"""Workload characterisation shared by every platform simulator.

Platform models need structural quantities the functional engines do not
track — how many latency-bound (random) accesses a storage layout incurs,
how large the affected subgraph is per window, how imbalanced the degree
distribution is.  :class:`WorkloadStats` derives them once per
(graph, model, window) so all platforms price the *same* workload.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field

import numpy as np

from ..analysis.classify import VertexClass, WindowClassification, classify_window
from ..graphs.dynamic import DynamicGraph
from ..models.base import DGNNModel

__all__ = ["WindowStats", "WorkloadStats"]


@dataclass(frozen=True)
class WindowStats:
    """Per-window structural quantities."""

    num_snapshots: int
    present_total: int  # sum of present vertices over snapshots
    edges_total: int  # sum of directed edges over snapshots
    unaffected: int
    stable: int
    affected: int
    subgraph_vertices: int
    subgraph_edges: int  # edges of the affected subgraph across snapshots


@dataclass
class WorkloadStats:
    """Whole-run workload characterisation."""

    graph: DynamicGraph
    model: DGNNModel
    window_size: int
    windows: list[WindowStats] = field(default_factory=list)

    @classmethod
    def analyze(
        cls, graph: DynamicGraph, model: DGNNModel, window_size: int = 4,
        classifications: list[WindowClassification] | None = None,
    ) -> "WorkloadStats":
        """Price every window from its labels and degrees: the stable-
        rooted DFS reaches each stable or affected vertex and nothing
        else, so the affected subgraph is a label count and a degree sum.
        ``classifications`` are an engine run's per-window labels over
        this graph and window size (classified here when not given)."""
        ws = cls(graph, model, window_size)
        starts = range(0, graph.num_snapshots, window_size)
        if classifications is None:
            classifications = [None] * len(starts)
        for start, c in zip(starts, classifications, strict=True):
            window = graph.window(start, min(window_size, graph.num_snapshots - start))
            if c is None:
                c = classify_window(window)
            elif (c.window_size, len(c.labels)) != (len(window), graph.num_vertices):
                raise ValueError(f"classification does not fit window {start}")
            mask = c.labels != VertexClass.UNAFFECTED
            ws.windows.append(
                WindowStats(
                    num_snapshots=len(window),
                    present_total=sum(s.num_present for s in window),
                    edges_total=sum(s.num_edges for s in window),
                    **c.counts(),
                    subgraph_vertices=int(mask.sum()),
                    subgraph_edges=sum(int(s.degrees[mask].sum()) for s in window),
                )
            )
        return ws

    # ------------------------------------------------------------------
    @property
    def total_edges(self) -> int:
        return sum(w.edges_total for w in self.windows)

    @property
    def total_present(self) -> int:
        return sum(w.present_total for w in self.windows)

    @property
    def num_gnn_layers(self) -> int:
        return len(self.model.gnn.layers)

    def random_accesses_csr(self) -> int:
        """Latency-bound accesses of a per-snapshot CSR execution: one
        per neighbour feature gather per GCN layer, plus one row lookup
        per vertex per snapshot."""
        return self.total_edges * self.num_gnn_layers + self.total_present

    def random_accesses_ocsr(self) -> int:
        """Latency-bound accesses under O-CSR: one per affected-subgraph
        run per window (contiguous runs) plus one per subgraph vertex for
        the feature-table region."""
        return sum(2 * w.subgraph_vertices for w in self.windows) + len(self.windows)

    def scored_vertices(self) -> int:
        """Vertices the SCU scores over the run (stable + affected per
        consecutive pair)."""
        return sum(
            (w.stable + w.affected) * max(0, w.num_snapshots - 1)
            for w in self.windows
        )

    def avg_degree(self) -> float:
        if self.total_present == 0:
            return 0.0
        return self.total_edges / self.total_present

    def load_imbalance(self, num_units: int, *, balanced: bool) -> float:
        """Max/mean load across compute units when tasks (vertices
        weighted by degree) are assigned greedily by descending weight
        (balanced — the Task Dispatcher's policy) or by contiguous
        vertex-id chunks (unbalanced baseline).

        Uses the first snapshot's degree distribution as representative.
        """
        degrees = self.graph[0].degrees.astype(np.int64) + 1
        if num_units <= 1 or degrees.sum() == 0:
            return 1.0
        if balanced:
            # greedy LPT: the heap's root is the least-loaded, lowest-id unit
            heap = [(0, unit) for unit in range(num_units)]
            for d in (-np.sort(-degrees)).tolist():
                heapq.heapreplace(heap, (heap[0][0] + d, heap[0][1]))
            loads = np.array([load for load, _ in heap])
            mean = loads.mean()
            return float(loads.max() / mean) if mean else 1.0

        # Baseline dispatchers chunk vertices in arrival order.  Arrival
        # order carries *mild* degree correlation (older vertices have
        # accumulated more edges) but is far from degree-sorted — model it
        # as a log-blend of the fully-correlated (contiguous chunk on the
        # degree-sorted synthetic ids) and fully-decorrelated (random-
        # permutation chunk) imbalances, weighted 0.3 / 0.7.
        def chunk_imbalance(vals: np.ndarray) -> float:
            chunks = np.array_split(vals, num_units)
            loads = np.array([c.sum() for c in chunks])
            mean = loads.mean()
            return float(loads.max() / mean) if mean else 1.0

        rng = np.random.default_rng(12345)
        correlated = chunk_imbalance(degrees)
        decorrelated = chunk_imbalance(degrees[rng.permutation(len(degrees))])
        return float(correlated**0.3 * decorrelated**0.7)
