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
consecutive snapshot pair (kept on the result), topology stability is
one exact merge of each pair's neighbour lists
(:func:`~repro.analysis.similarity.common_neighbor_counts`, whose counts
are kept too: θ's neighbour weight divides them, so the engine's θ
stage compares no pair inside a window), and neighbour-feature
stability is one segmented AND over the first snapshot's neighbour
lists.

"Neighbour lists identical" means a row's common-neighbour count equals
its degree in both snapshots of every pair.  For strictly ascending
rows — as :func:`~repro.graphs.snapshot.build_csr`, ``apply_events``
and the generators build them and the ingest validator requires — that
is exact list equality.

Beside the labels, a classification memoises the facts of its window
that every reader shares — θ's neighbour weights, the churned feature
rows, the changed-row closure — each computed on first read and kept
read-only.  A read-only window is classified once, so the shards of a
cluster push and every recovery replay of that window read one value.
Both row facts are derived from what classification already proved
rather than from every snapshot again: the churned rows from the
consecutive pairs' feature compares, and the changed-row closure from
the first snapshot's edges, because a row outside the changed set
keeps one neighbour list through the window (the topology test; an
absent vertex holds no edge, which the canonical form requires and
:func:`~repro.resilience.ingest.snapshot_violation` enforces).
"""

from __future__ import annotations

import enum
import operator
from dataclasses import dataclass, field

import numpy as np

from ..graphs.dynamic import DynamicGraph
from .similarity import common_neighbor_counts, weights_of_counts

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
    for a one-snapshot window).  ``neighbor_counts[t]`` keeps the same
    pair's :func:`common_neighbor_counts` (with the rows present in both
    snapshots and left unchanged by the pair as the stable set), which
    the topology test read and θ's neighbour weight divides, so the
    engine's θ stage compares no pair inside a window.
    """

    labels: np.ndarray  # (n,) VertexClass values
    window_size: int
    feature_pairs: tuple  # K - 1 (n,) bool masks
    #: K - 1 (common, stable-common) pairs of (n,) counts
    neighbor_counts: tuple = field(repr=False, compare=False)
    #: the classified snapshots, which the memoised facts are read from
    snapshots: tuple = field(repr=False, compare=False)
    _memo: dict = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

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

    # ------------------------------------------------------------------
    # facts of the window every reader shares: computed on first read,
    # read-only, memoised
    # ------------------------------------------------------------------
    def neighbor_weights(self, t: int) -> np.ndarray:
        """θ's neighbour weight of every row for the pair of snapshots
        ``t`` and ``t + 1``: the pair's ``neighbor_counts`` divided
        (:func:`weights_of_counts`), which is what
        :func:`~repro.analysis.similarity.neighbor_stability_weights`
        computes over all ``n`` rows, without a second merge."""
        key = ("weights", t)
        if key not in self._memo:
            prev, cur = self.snapshots[t], self.snapshots[t + 1]
            self._keep(key, weights_of_counts(
                *self.neighbor_counts[t], prev.degrees, cur.degrees
            ))
        return self._memo[key]

    def churned_rows(self) -> tuple:
        """Per later snapshot ``t >= 1``, the ascending ids of the rows
        whose features differ from snapshot 0's.

        Read off ``feature_pairs``: snapshot 1's are the rows its pair
        moved, and a row no pair up to snapshot ``t`` moved still holds
        snapshot 0's features there, so only the rows some earlier pair
        moved are compared with snapshot 0 again."""
        key = ("churned",)
        if key not in self._memo:
            churned = []
            if self.feature_pairs:
                moved = ~self.feature_pairs[0]
                churned.append(np.flatnonzero(moved))
                snap0 = self.snapshots[0].features
                for same, snap in zip(self.feature_pairs[1:], self.snapshots[2:]):
                    moved |= ~same
                    rows = np.flatnonzero(moved)
                    differ = snap.features[rows] != snap0[rows]
                    churned.append(rows[differ.any(axis=1)])
            self._keep(key, tuple(churned))
        return self._memo[key]

    def changed_rows(self, num_layers: int) -> tuple:
        """Per GCN layer, the ascending ids of the rows a later
        snapshot recomputes: the stable and affected rows, grown one
        hop over the window's edges per layer, which are the first
        snapshot's (:func:`_changed_rows`).  The deepest closure read
        so far is kept, and a shallower read is its first layers."""
        rows = self._memo.get(("changed",), ())
        if len(rows) < num_layers:
            rows = tuple(_changed_rows(
                self.snapshots[0], self.labels != 0, num_layers
            ))
            self._keep(("changed",), rows)
        return rows if len(rows) == num_layers else rows[:num_layers]

    def _keep(self, key, value) -> None:
        for array in value if isinstance(value, tuple) else (value,):
            array.flags.writeable = False
        self._memo[key] = value


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
    cached on the window's last snapshot, and classifying the same
    snapshots again returns it: the cluster classifies a window once
    per push, not once per shard, and every shard reads the facts it
    memoises.
    """
    snaps = window.snapshots
    cached = snaps[-1]._classified
    if (
        cached is not None
        and len(cached.snapshots) == len(snaps)
        and all(map(operator.is_, cached.snapshots, snaps))
    ):
        return cached
    result = _classify(snaps, window.num_vertices)
    if all(s.read_only for s in snaps):
        for array in (
            result.labels, *result.feature_pairs,
            *sum(result.neighbor_counts, ()),
        ):
            array.flags.writeable = False
        snaps[-1]._classified = result
    return result


def _classify(snaps, n: int) -> WindowClassification:
    """:func:`classify_window`'s labels, computed."""
    if len(snaps) == 1:
        return WindowClassification(
            np.full(n, VertexClass.UNAFFECTED, dtype=np.int64), 1, (), (),
            tuple(snaps),
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

    # --- topology stability: one exact merge per pair ------------------
    counts = []
    topo_stable = np.ones(n, dtype=bool)
    for same, prev, cur in zip(pairs, snaps, snaps[1:]):
        common, stable_common = common_neighbor_counts(
            prev, cur, same & prev.present & cur.present
        )
        topo_stable &= (common == prev.degrees) & (common == cur.degrees)
        counts.append((common, stable_common))

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
    return WindowClassification(
        labels, len(snaps), pairs, tuple(counts), tuple(snaps)
    )


def _feature_pairs(snaps) -> tuple:
    """Per consecutive pair of ``snaps``, the rows whose features equal
    the previous snapshot's.  Together these are the booleans of one
    compare over the stacked ``(K, n, d)`` features, without the
    stack."""
    return tuple(
        (cur.features == prev.features).all(axis=1)
        for prev, cur in zip(snaps, snaps[1:])
    )


def _changed_rows(snap, changed, num_layers) -> list[np.ndarray]:
    """Ascending ids of the rows each GCN layer recomputes at the
    window's later snapshots: ``changed`` (a mask) for the first layer,
    one more hop over the window's edges per layer after it.

    ``snap`` is the window's first snapshot.  A row joins the next
    layer's set when any snapshot's row holds a neighbour in the
    previous one.  A row already in the set stays in it, and a row
    outside ``changed`` keeps one neighbour list through the window, so
    one hop over ``snap``'s edges is the hop over the union of the
    window's edges, without building it.
    """
    layer_rows = [np.flatnonzero(changed)]
    # the non-empty rows' pointers cut the edge array into exactly those
    # rows' neighbour lists
    rows = np.flatnonzero(snap.degrees)
    for _ in range(num_layers - 1):
        grown = changed.copy()
        grown[rows] |= np.logical_or.reduceat(
            changed[snap.indices], snap.indptr[rows]
        )
        changed = grown
        layer_rows.append(np.flatnonzero(changed))
    return layer_rows
