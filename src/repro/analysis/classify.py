"""Vertex classification across a snapshot window.

The paper (Section 3.1) partitions vertices of a sliding window into:

* **affected** — the vertex's own feature changed, or it arrived/departed;
* **stable** — feature unchanged, but its neighbourhood changed (edge
  churn at the vertex, or a neighbour whose feature changed);
* **unaffected** — feature unchanged, neighbour lists identical in every
  snapshot, and every neighbour's feature unchanged.  Per the paper,
  "the set of unaffected vertices is a subset of the stable vertices";
  the labels here are disjoint, with STABLE meaning stable-but-not-
  unaffected.

Unaffected vertices are loaded and computed once per layer for the whole
window (the heart of the topology-aware concurrent execution); stable
vertices act as DFS roots bounding the affected subgraph; affected
vertices get full per-snapshot treatment.

Everything is vectorised: feature stability is one comparison per
consecutive snapshot pair (kept on the result, so the engine's cell
phase compares no pair twice), topology stability uses the
order-independent row fingerprints from
:meth:`CSRSnapshot.row_fingerprints`, and neighbour-feature stability
is one segmented AND over the first snapshot's neighbour lists.

"Neighbour lists identical" means equal degree and equal 64-bit
fingerprint; the rows themselves are never compared, so the labels —
and with them the engine's exactness contract — rest on that hash
(collision bound in :meth:`CSRSnapshot.row_fingerprints`;
docs/performance.md, "The exactness contract").  This module is its
only trusting reader: the similarity score's neighbour weight
intersects every row exactly.
"""

from __future__ import annotations

import enum
import operator
from dataclasses import dataclass

import numpy as np

from ..graphs.dynamic import DynamicGraph

__all__ = ["VertexClass", "WindowClassification", "classify_window"]


class VertexClass(enum.IntEnum):
    """Disjoint vertex categories of one window."""

    UNAFFECTED = 0
    STABLE = 1
    AFFECTED = 2


@dataclass(frozen=True)
class WindowClassification:
    """Result of :func:`classify_window` for one window.

    ``feature_pairs`` keeps the K − 1 per-pair compares classification
    makes anyway: ``feature_pairs[t]`` marks the rows whose features
    snapshot ``t + 1`` left exactly as snapshot ``t`` had them (``()``
    for a one-snapshot window).  The engine's cell phase reads them
    instead of comparing the same pairs again.
    """

    labels: np.ndarray  # (n,) VertexClass values
    window_size: int
    feature_pairs: tuple  # K - 1 (n,) bool masks

    @property
    def unaffected_mask(self) -> np.ndarray:
        return self.labels == VertexClass.UNAFFECTED

    @property
    def stable_mask(self) -> np.ndarray:
        """Stable-but-not-unaffected vertices (DFS roots)."""
        return self.labels == VertexClass.STABLE

    @property
    def affected_mask(self) -> np.ndarray:
        return self.labels == VertexClass.AFFECTED

    @property
    def feature_stable_mask(self) -> np.ndarray:
        """The paper's inclusive 'stable' set: unaffected ∪ stable."""
        return self.labels != VertexClass.AFFECTED

    def counts(self) -> dict[str, int]:
        return {
            "unaffected": int(self.unaffected_mask.sum()),
            "stable": int(self.stable_mask.sum()),
            "affected": int(self.affected_mask.sum()),
        }

    def unaffected_ratio(self) -> float:
        """Fraction of all vertices that are unaffected — the quantity in
        the paper's Fig. 3(a)."""
        return float(self.unaffected_mask.mean())

    def recompute_vertices(self) -> np.ndarray:
        """Vertices needing per-snapshot computation (stable + affected) —
        the affected-subgraph candidate set."""
        return np.flatnonzero(self.labels != VertexClass.UNAFFECTED)


def classify_window(window: DynamicGraph) -> WindowClassification:
    """Classify every vertex of a window as unaffected / stable / affected.

    Parameters
    ----------
    window:
        The snapshot window (>= 1 snapshot; a single snapshot makes every
        present vertex unaffected by definition).

    Features compare exactly (the paper's definition): a tolerance would
    label changed rows unaffected and break the engine's exactness
    contract.

    A window of read-only snapshots (:attr:`CSRSnapshot.read_only`: the
    serving cluster admits one such copy and every shard shares it) is
    classified once.  The result, its arrays made read-only too, is
    cached on the window's last snapshot beside the snapshots it
    covers, and classifying the same snapshots again returns it: the
    cluster classifies a window once per push, not once per shard.
    """
    snaps = window.snapshots
    cached = snaps[-1]._classified
    if (
        cached is not None
        and len(cached[0]) == len(snaps)
        and all(map(operator.is_, cached[0], snaps))
    ):
        return cached[1]
    result = _classify(snaps, window.num_vertices)
    if all(s.read_only for s in snaps):
        for array in (result.labels, *result.feature_pairs):
            array.flags.writeable = False
        snaps[-1]._classified = (tuple(snaps), result)
    return result


def _classify(snaps, n: int) -> WindowClassification:
    """:func:`classify_window`'s labels, computed."""
    if len(snaps) == 1:
        return WindowClassification(
            np.full(n, VertexClass.UNAFFECTED, dtype=np.int64), 1, ()
        )

    # --- presence: any arrival/departure within the window -> affected ---
    present = np.stack([s.present for s in snaps])
    present_all = present.all(axis=0)
    presence_changed = present.any(axis=0) & ~present_all

    # --- own-feature stability ------------------------------------------
    pairs = _feature_pairs(snaps)
    feat_stable = present_all.copy()
    for same in pairs:
        feat_stable &= same

    # --- topology stability via row fingerprints ------------------------
    fps = np.stack([s.row_fingerprints() for s in snaps])
    degs = np.stack([s.degrees for s in snaps])
    topo_stable = (fps[1:] == fps[:-1]).all(axis=0) & (degs[1:] == degs[:-1]).all(
        axis=0
    )

    # --- neighbour-feature stability -------------------------------------
    # Only meaningful for topo-stable vertices (their rows are identical in
    # every snapshot, so snapshot 0's CSR gives *the* neighbour list).
    # The non-empty rows' pointers cut the edge array into exactly those
    # rows' neighbour lists: one segmented AND per row, and an empty row
    # keeps its True.
    s0 = snaps[0]
    neigh_feat_stable = np.ones(n, dtype=bool)
    rows = np.flatnonzero(s0.degrees)
    if rows.size:
        neigh_feat_stable[rows] = np.logical_and.reduceat(
            feat_stable[s0.indices], s0.indptr[rows]
        )

    labels = np.full(n, VertexClass.AFFECTED, dtype=np.int64)
    stable = feat_stable & ~presence_changed
    labels[stable] = VertexClass.STABLE
    unaffected = stable & topo_stable & neigh_feat_stable
    labels[unaffected] = VertexClass.UNAFFECTED
    # vertices absent throughout the window never need work: unaffected
    labels[~present.any(axis=0)] = VertexClass.UNAFFECTED
    return WindowClassification(labels, len(snaps), pairs)


def _feature_pairs(snaps) -> tuple:
    """Per consecutive pair of ``snaps``, the rows whose features equal
    the previous snapshot's.  Together these are the booleans of one
    compare over the stacked ``(K, n, d)`` features, without the
    stack."""
    return tuple(
        (cur.features == prev.features).all(axis=1)
        for prev, cur in zip(snaps, snaps[1:])
    )
