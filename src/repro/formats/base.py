"""Shared machinery for multi-snapshot storage formats.

The three formats compared in the paper's Fig. 13(b) — per-snapshot CSR,
PMA, and TaGNN's O-CSR — all store the same logical object: the edges and
features of a vertex subset (usually the affected subgraph) across a
window of snapshots.  This module defines that logical object
(:class:`WindowSelection`), the abstract format interface
(:class:`MultiSnapshotStorage`), and the access-cost model used to compare
formats on equal terms.

Access-cost model
-----------------
Off-chip reads are charged in two currencies, following the paper's
motivation (Section 2.2, "irregular memory access"):

* ``random_accesses`` — pointer-chasing reads that each pay full DRAM
  latency (row activation); and
* ``sequential_words`` — words streamed after a random access at full
  bandwidth.

``access_cycles(...)`` converts the two into cycles with the standard
latency/bandwidth split; the hardware simulator reuses the same constants
so format-level and accelerator-level numbers are commensurable.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field

import numpy as np

from ..graphs.dynamic import DynamicGraph

__all__ = [
    "AccessCost",
    "WindowSelection",
    "MultiSnapshotStorage",
    "RANDOM_ACCESS_CYCLES",
    "WORDS_PER_CYCLE",
]

#: Cycles charged per random (row-miss) DRAM access.  HBM2 tRC ≈ 45 ns at
#: the paper's 225 MHz fabric clock ≈ 10 cycles.
RANDOM_ACCESS_CYCLES = 10.0

#: 4-byte words streamed per fabric cycle once a burst is open
#: (256 GB/s HBM at 225 MHz ≈ 1138 B/cycle ≈ 284 words; a single loader
#: port sees a 16-words/cycle slice).
WORDS_PER_CYCLE = 16.0


@dataclass
class AccessCost:
    """Accumulated access accounting for one traversal of a format."""

    random_accesses: int = 0
    sequential_words: int = 0

    def add(self, *, randoms: int = 0, words: int = 0) -> None:
        """Charge ``randoms`` latency-bound accesses and ``words`` streamed
        words to this counter."""
        self.random_accesses += randoms
        self.sequential_words += words

    def cycles(self) -> float:
        """Convert to cycles under the shared latency/bandwidth model."""
        return (
            self.random_accesses * RANDOM_ACCESS_CYCLES
            + self.sequential_words / WORDS_PER_CYCLE
        )

    def __add__(self, other: "AccessCost") -> "AccessCost":
        return AccessCost(
            self.random_accesses + other.random_accesses,
            self.sequential_words + other.sequential_words,
        )


@dataclass
class WindowSelection:
    """The logical content every format stores: for each selected source
    vertex, its neighbour lists in each snapshot of a window.

    Attributes
    ----------
    window:
        The snapshot window (typically 2–8 snapshots).
    sources:
        Sorted array of selected source vertex ids (the affected-subgraph
        vertices; or all vertices for whole-graph storage).
    """

    window: DynamicGraph
    sources: np.ndarray
    _edges: np.ndarray | None = field(default=None, repr=False)
    _fv: tuple[np.ndarray, np.ndarray] | None = field(default=None, repr=False)

    def __post_init__(self) -> None:
        self.sources = np.unique(np.asarray(self.sources, dtype=np.int64))
        if self.sources.size and (
            self.sources[0] < 0 or self.sources[-1] >= self.window.num_vertices
        ):
            raise ValueError("source id out of range")

    @classmethod
    def whole_graph(cls, window: DynamicGraph) -> "WindowSelection":
        """Select every vertex (baseline formats store the full window)."""
        return cls(window, np.arange(window.num_vertices, dtype=np.int64))

    @property
    def num_snapshots(self) -> int:
        return self.window.num_snapshots

    def edges(self) -> np.ndarray:
        """All selected edges as an ``(n, 3)`` array of
        ``(source, target, timestamp)``, sorted by (source, timestamp,
        target).  Cached; this is the canonical content formats must agree
        on (property tests compare formats against it)."""
        if self._edges is None:
            chunks = []
            src_mask = np.zeros(self.window.num_vertices, dtype=bool)
            src_mask[self.sources] = True
            for k, snap in enumerate(self.window):
                src = np.repeat(
                    np.arange(snap.num_vertices, dtype=np.int64), snap.degrees
                )
                keep = src_mask[src]
                if keep.any():
                    chunks.append(
                        np.stack(
                            [
                                src[keep],
                                snap.indices[keep].astype(np.int64),
                                np.full(int(keep.sum()), k, dtype=np.int64),
                            ],
                            axis=1,
                        )
                    )
            if chunks:
                e = np.concatenate(chunks)
                order = np.lexsort((e[:, 1], e[:, 2], e[:, 0]))
                self._edges = e[order]
            else:
                self._edges = np.empty((0, 3), dtype=np.int64)
        return self._edges

    def feature_version_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """Flat ``(fv_vertex, fv_start)`` arrays of distinct feature
        versions, sorted by (vertex, start snapshot).

        For each vertex appearing in the selection (as source or target),
        one row per snapshot at which its feature vector differs from the
        previous snapshot — snapshot 0 always included.  This is the
        vectorised backbone of :meth:`feature_versions`; formats consume
        it directly to build version tables without per-vertex loops.
        """
        if self._fv is None:
            e = self.edges()
            vertices = np.unique(
                np.concatenate([e[:, 0], e[:, 1], self.sources])
            )
            snaps = self.window.snapshots
            K = len(snaps)
            changed = np.ones((vertices.size, K), dtype=bool)
            for k in range(1, K):
                changed[:, k] = np.any(
                    snaps[k].features[vertices]
                    != snaps[k - 1].features[vertices],
                    axis=1,
                )
            fv_vertex = np.repeat(vertices, changed.sum(axis=1))
            fv_start = np.tile(np.arange(K, dtype=np.int64), vertices.size)[
                changed.ravel()
            ]
            self._fv = (fv_vertex, fv_start)
        return self._fv

    def feature_versions(self) -> dict[int, list[int]]:
        """For each vertex appearing in the selection (as source or
        target), the snapshot indices at which its feature vector differs
        from the previous appearance.

        ``result[v]`` lists the snapshot offsets holding *distinct*
        feature versions of ``v`` — the minimum any format must store.
        """
        fv_vertex, fv_start = self.feature_version_arrays()
        vertices, starts = np.unique(fv_vertex, return_index=True)
        splits = np.split(fv_start, starts[1:])
        return {int(v): s.tolist() for v, s in zip(vertices, splits)}


class MultiSnapshotStorage(abc.ABC):
    """Abstract multi-snapshot storage format.

    Concrete formats build from a :class:`WindowSelection` and must
    support the gather pattern the DGNN computation consumes: *"give me
    every (neighbour, timestamp) pair of source v across the window"*.
    """

    name: str = "abstract"

    def __init__(self, selection: WindowSelection):
        self.selection = selection

    # -- content ---------------------------------------------------------
    @abc.abstractmethod
    def gather(self, source: int) -> tuple[np.ndarray, np.ndarray]:
        """Return ``(targets, timestamps)`` of every stored edge of
        ``source`` across the window, in (timestamp, target) order."""

    @abc.abstractmethod
    def storage_bytes(self) -> int:
        """Total bytes the format occupies (structure + features +
        indexing overhead)."""

    @abc.abstractmethod
    def scan_cost(self) -> AccessCost:
        """Access cost of one full pass that gathers every source's
        neighbours and features across the window — the pattern one GNN
        layer executes."""

    # -- shared helpers ----------------------------------------------------
    def compression_vs(self, other: "MultiSnapshotStorage") -> float:
        """Storage reduction of ``self`` relative to ``other`` in
        [0, 1) — the metric of the paper's Fig. 13(b) discussion."""
        a, b = self.storage_bytes(), other.storage_bytes()
        return 1.0 - a / b if b else 0.0
