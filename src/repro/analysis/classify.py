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
consecutive snapshot pair, topology stability uses the order-independent
row fingerprints from :meth:`CSRSnapshot.row_fingerprints`, and
neighbour-feature stability is one masked min-scatter over the first
snapshot's CSR.

"Neighbour lists identical" means equal degree and equal 64-bit
fingerprint; the rows themselves are never compared, so the engine's
exactness contract rests on that hash (collision bound in
:meth:`CSRSnapshot.row_fingerprints`; docs/performance.md, "The
exactness contract").
"""

from __future__ import annotations

import enum
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
    """Result of :func:`classify_window` for one window."""

    labels: np.ndarray  # (n,) VertexClass values
    window_size: int

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
    """
    snaps = window.snapshots
    n = window.num_vertices
    if len(snaps) == 1:
        return WindowClassification(
            np.full(n, VertexClass.UNAFFECTED, dtype=np.int64), 1
        )

    # --- presence: any arrival/departure within the window -> affected ---
    present = np.stack([s.present for s in snaps])
    present_all = present.all(axis=0)
    presence_changed = present.any(axis=0) & ~present_all

    # --- own-feature stability ------------------------------------------
    feat_stable = _features_stable(snaps) & present_all

    # --- topology stability via row fingerprints ------------------------
    fps = np.stack([s.row_fingerprints() for s in snaps])
    degs = np.stack([s.degrees for s in snaps])
    topo_stable = (fps[1:] == fps[:-1]).all(axis=0) & (degs[1:] == degs[:-1]).all(
        axis=0
    )

    # --- neighbour-feature stability -------------------------------------
    # Only meaningful for topo-stable vertices (their rows are identical in
    # every snapshot, so snapshot 0's CSR gives *the* neighbour list).
    s0 = snaps[0]
    neigh_ok = np.ones(n, dtype=np.uint8)
    if s0.num_edges:
        src = np.repeat(np.arange(n, dtype=np.int64), s0.degrees)
        np.minimum.at(neigh_ok, src, feat_stable[s0.indices].astype(np.uint8))
    neigh_feat_stable = neigh_ok.astype(bool)

    labels = np.full(n, VertexClass.AFFECTED, dtype=np.int64)
    stable = feat_stable & ~presence_changed
    labels[stable] = VertexClass.STABLE
    unaffected = stable & topo_stable & neigh_feat_stable
    labels[unaffected] = VertexClass.UNAFFECTED
    # vertices absent throughout the window never need work: unaffected
    labels[~present.any(axis=0)] = VertexClass.UNAFFECTED
    return WindowClassification(labels, len(snaps))


def _features_stable(snaps) -> np.ndarray:
    """Rows whose features equal the previous snapshot's in every
    consecutive pair of ``snaps``.  Pair by pair,
    these are the booleans of one compare over the stacked ``(K, n, d)``
    features, without the stack."""
    stable = np.ones(len(snaps[0].features), dtype=bool)
    for prev, cur in zip(snaps, snaps[1:]):
        stable &= (cur.features == prev.features).all(axis=1)
    return stable
