"""Dynamic graphs: ordered snapshot sequences plus change tracking.

A :class:`DynamicGraph` is the paper's :math:`G = \\{G_1, \\dots, G_T\\}`
(Section 2.1): a list of :class:`~repro.graphs.snapshot.CSRSnapshot` over a
shared global vertex-id space.  It provides the sliding-window views the
multi-snapshot execution pattern consumes, and per-step
:class:`SnapshotDelta` summaries (added/removed edges, feature churn,
vertex arrivals/departures) that drive both the synthetic generators and
the vertex classifier.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .snapshot import CSRSnapshot

__all__ = ["DynamicGraph", "SnapshotDelta", "snapshot_delta"]


@dataclass(frozen=True)
class SnapshotDelta:
    """Summary of the change from snapshot ``t`` to ``t + 1``.

    All members are arrays of vertex ids (sorted, unique), except the edge
    sets which are ``(k, 2)`` directed-edge arrays.
    """

    added_edges: np.ndarray
    removed_edges: np.ndarray
    feature_changed: np.ndarray  # vertices whose feature vector changed
    arrived: np.ndarray  # vertices absent at t, present at t+1
    departed: np.ndarray  # vertices present at t, absent at t+1

    @property
    def num_structural_changes(self) -> int:
        """Total count of edge insertions + deletions."""
        return len(self.added_edges) + len(self.removed_edges)

    def touched_vertices(self) -> np.ndarray:
        """Vertices directly involved in any change (endpoints of changed
        edges, feature churn, arrivals, departures)."""
        parts = [
            self.added_edges.reshape(-1),
            self.removed_edges.reshape(-1),
            self.feature_changed,
            self.arrived,
            self.departed,
        ]
        merged = np.concatenate([np.asarray(p, dtype=np.int64) for p in parts])
        return np.unique(merged)


def _edge_keys(snap: CSRSnapshot) -> np.ndarray:
    """Live ``src * n + dst`` keys of a snapshot as int64: sorted and
    unique, because CSR rows are strictly ascending."""
    n = np.int64(snap.num_vertices)
    src = np.repeat(np.arange(snap.num_vertices, dtype=np.int64), snap.degrees)
    return src * n + snap.indices.astype(np.int64)  # already (src,dst)-sorted


def snapshot_delta(a: CSRSnapshot, b: CSRSnapshot) -> SnapshotDelta:
    """Compute the :class:`SnapshotDelta` between two snapshots.

    Features compare exactly, matching the paper's definition of an
    unchanged feature.
    """
    if a.num_vertices != b.num_vertices:
        raise ValueError("snapshots must share a global id space")
    n = a.num_vertices
    ka, kb = _edge_keys(a), _edge_keys(b)
    added = np.setdiff1d(kb, ka, assume_unique=True)
    removed = np.setdiff1d(ka, kb, assume_unique=True)
    added_edges = np.stack([added // n, added % n], axis=1).astype(np.int64)
    removed_edges = np.stack([removed // n, removed % n], axis=1).astype(np.int64)

    both = a.present & b.present
    feat_diff = (a.features != b.features).any(axis=1)
    feature_changed = np.flatnonzero(feat_diff & both)

    arrived = np.flatnonzero(~a.present & b.present)
    departed = np.flatnonzero(a.present & ~b.present)
    return SnapshotDelta(added_edges, removed_edges, feature_changed, arrived, departed)


class DynamicGraph:
    """An ordered sequence of snapshots over one global vertex-id space.

    Parameters
    ----------
    snapshots:
        Snapshots in timestamp order; all must agree on ``num_vertices``
        and feature dimension.  Timestamps are renumbered ``0..T-1``.
    name:
        Optional dataset name (used in reports).
    """

    def __init__(self, snapshots: Sequence[CSRSnapshot], name: str = "dynamic-graph"):
        if not snapshots:
            raise ValueError("a dynamic graph needs at least one snapshot")
        n = snapshots[0].num_vertices
        d = snapshots[0].dim
        for s in snapshots:
            if s.num_vertices != n:
                raise ValueError("snapshots disagree on global vertex count")
            if s.dim != d:
                raise ValueError("snapshots disagree on feature dimension")
        self.snapshots: list[CSRSnapshot] = list(snapshots)
        for t, s in enumerate(self.snapshots):
            s.timestamp = t
        self.name = name
        self._deltas: dict[int, SnapshotDelta] = {}

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.snapshots)

    def __getitem__(self, t: int) -> CSRSnapshot:
        return self.snapshots[t]

    def __iter__(self) -> Iterator[CSRSnapshot]:
        return iter(self.snapshots)

    @property
    def num_vertices(self) -> int:
        """Size of the shared global id space."""
        return self.snapshots[0].num_vertices

    @property
    def dim(self) -> int:
        """Feature dimensionality (constant across snapshots)."""
        return self.snapshots[0].dim

    @property
    def num_snapshots(self) -> int:
        return len(self.snapshots)

    def total_edges(self) -> int:
        """Sum of directed edge counts over every snapshot."""
        return sum(s.num_edges for s in self.snapshots)

    def max_edges(self) -> int:
        """Largest per-snapshot edge count (sizing for buffers)."""
        return max(s.num_edges for s in self.snapshots)

    # ------------------------------------------------------------------
    def delta(self, t: int) -> SnapshotDelta:
        """Cached change summary from snapshot ``t`` to ``t + 1``."""
        if not 0 <= t < len(self.snapshots) - 1:
            raise IndexError(f"delta index {t} out of range")
        if t not in self._deltas:
            self._deltas[t] = snapshot_delta(self.snapshots[t], self.snapshots[t + 1])
        return self._deltas[t]

    def deltas(self) -> list[SnapshotDelta]:
        """All consecutive deltas ``t -> t+1`` for ``t in [0, T-1)``."""
        return [self.delta(t) for t in range(len(self) - 1)]

    # ------------------------------------------------------------------
    def window(self, start: int, size: int) -> "DynamicGraph":
        """A sliding-window view ``[start, start + size)`` as a new
        :class:`DynamicGraph` sharing the underlying snapshot objects.

        This is the unit the multi-snapshot execution pattern processes in
        one batch (the paper's default window is 4 snapshots).
        """
        if size < 1:
            raise ValueError("window size must be >= 1")
        if start < 0 or start + size > len(self):
            raise IndexError(
                f"window [{start}, {start + size}) out of range for T={len(self)}"
            )
        sub = DynamicGraph(
            self.snapshots[start : start + size],
            name=f"{self.name}[{start}:{start + size}]",
        )
        # restore true timestamps clobbered by the constructor's renumbering
        for off, s in enumerate(sub.snapshots):
            s.timestamp = start + off
        return sub

    def windows(self, size: int, stride: int | None = None) -> Iterator["DynamicGraph"]:
        """Iterate over sliding windows (default stride = size, i.e. the
        disjoint batches TaGNN's MSDL forms)."""
        stride = size if stride is None else stride
        for start in range(0, len(self) - size + 1, stride):
            yield self.window(start, size)

    # ------------------------------------------------------------------
    def memory_bytes(self) -> int:
        """Total footprint across snapshots (no overlap dedup — this is the
        naive multi-snapshot cost Section 1 says overflows accelerators)."""
        return sum(s.memory_bytes() for s in self.snapshots)

    def stats(self) -> dict:
        """Summary statistics used by the Table 2 bench."""
        return {
            "name": self.name,
            "num_vertices": self.num_vertices,
            "num_snapshots": self.num_snapshots,
            "dim": self.dim,
            "total_edges": self.total_edges(),
            "max_edges": self.max_edges(),
            "mean_edges": self.total_edges() / self.num_snapshots,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"DynamicGraph(name={self.name!r}, |V|={self.num_vertices}, "
            f"T={self.num_snapshots}, dim={self.dim})"
        )
