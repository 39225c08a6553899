"""The simulator prices a window from its labels.

``WorkloadStats.analyze`` used to run the stable-rooted DFS over each
window's union adjacency and then read the visited set as a mask; it now
counts labels and sums degrees, on the classifications the engine run
already made when ``simulate`` ran the engine itself.  The replaced
computations — the DFS, the repeat-and-mask edge count, the ``argmin``
dispatch loop — survive here as oracles: no report field may move.
"""

from dataclasses import asdict
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.accel import (
    CAMBRICON_DG,
    PIPAD,
    TAGNN_S,
    TaGNNConfig,
    TaGNNSimulator,
    WorkloadStats,
)
from repro.accel.cyclesim import CycleSimulator
from repro.accel.workload import WindowStats
from repro.analysis import VertexClass, classify_window, extract_affected_subgraph
from repro.engine import ConcurrentEngine, ReferenceEngine
from repro.graphs import CSRSnapshot, DynamicGraph, load_dataset
from repro.models import make_model

from ..engine.test_window_work import random_window


def window_oracle(window: DynamicGraph) -> WindowStats:
    """One window of the replaced ``analyze``: DFS, then each snapshot's
    edge sources repeated and masked by the visited set."""
    c = classify_window(window)
    sg = extract_affected_subgraph(window, c)
    counts = c.counts()
    sub_edges = 0
    if sg.num_vertices:
        mask = np.zeros(window.num_vertices, dtype=bool)
        mask[sg.vertices] = True
        for snap in window:
            src = np.repeat(
                np.arange(snap.num_vertices, dtype=np.int64), snap.degrees
            )
            sub_edges += int(mask[src].sum())
    return WindowStats(
        num_snapshots=window.num_snapshots,
        present_total=sum(s.num_present for s in window),
        edges_total=sum(s.num_edges for s in window),
        unaffected=counts["unaffected"],
        stable=counts["stable"],
        affected=counts["affected"],
        subgraph_vertices=sg.num_vertices,
        subgraph_edges=sub_edges,
    )


def analyze_oracle(graph, model, window_size) -> WorkloadStats:
    ws = WorkloadStats(graph, model, window_size)
    for start in range(0, graph.num_snapshots, window_size):
        size = min(window_size, graph.num_snapshots - start)
        ws.windows.append(window_oracle(graph.window(start, size)))
    return ws


def lpt_loop_oracle(degrees: np.ndarray, num_units: int) -> float:
    """The replaced balanced ``load_imbalance``: one ``argmin`` per task."""
    degrees = degrees.astype(np.int64) + 1
    if num_units <= 1 or degrees.sum() == 0:
        return 1.0
    loads = np.zeros(num_units, dtype=np.int64)
    for d in -np.sort(-degrees):
        loads[np.argmin(loads)] += d
    mean = loads.mean()
    return float(loads.max() / mean) if mean else 1.0


def still_window(n: int, k: int, edges) -> DynamicGraph:
    """``k`` identical snapshots: nothing changes, every vertex unaffected."""
    feats = np.ones((n, 2), dtype=np.float32)
    return DynamicGraph(
        [CSRSnapshot.from_edges(n, edges, feats, timestamp=t) for t in range(k)]
    )


class TestLabelsPriceTheWindow:
    @given(
        seed=st.integers(0, 10_000),
        n=st.integers(1, 40),
        k=st.sampled_from([1, 3, 4]),
    )
    @example(seed=1500, n=6, k=4)  # no stable root, adjacent affected vertices
    @settings(max_examples=150, deadline=None)
    def test_label_mask_and_degree_sum_equal_the_dfs(self, seed, n, k):
        window = random_window(seed, n, k)
        c = classify_window(window)
        mask = c.labels != VertexClass.UNAFFECTED
        assert np.array_equal(
            np.flatnonzero(mask), extract_affected_subgraph(window, c).vertices
        )
        want = window_oracle(window)
        assert sum(int(s.degrees[mask].sum()) for s in window) == want.subgraph_edges
        assert WorkloadStats.analyze(window, None, k).windows == [want]

    @given(seed=st.integers(0, 10_000), k=st.sampled_from([1, 3, 4]))
    @settings(max_examples=40, deadline=None)
    def test_every_window_of_a_graph_with_a_partial_tail(self, seed, k):
        graph = random_window(seed, 30, 2 * k + 1)
        got = WorkloadStats.analyze(graph, None, k)
        assert got.windows == analyze_oracle(graph, None, k).windows
        assert got.windows[-1].num_snapshots == 1

    @pytest.mark.parametrize("k", [1, 3, 4])
    @pytest.mark.parametrize(
        "edges", [np.empty((0, 2), dtype=np.int64), [(0, 1), (1, 2), (3, 4)]],
        ids=["empty-graph", "all-unaffected"],
    )
    def test_a_window_where_nothing_changes(self, k, edges):
        window = still_window(5, k, edges)
        (got,) = WorkloadStats.analyze(window, None, k).windows
        assert got == window_oracle(window)
        assert (got.unaffected, got.subgraph_vertices, got.subgraph_edges) == (5, 0, 0)


class TestHeapDispatch:
    @given(
        degrees=st.lists(st.integers(0, 6), min_size=0, max_size=80),
        num_units=st.sampled_from([1, 2, 7, 32]),
    )
    @example(degrees=[3] * 40, num_units=7)  # every task ties
    @example(degrees=[0] * 5, num_units=32)  # more units than tasks
    @settings(max_examples=300, deadline=None)
    def test_equals_the_argmin_loop_to_the_last_bit(self, degrees, num_units):
        degrees = np.asarray(degrees, dtype=np.int64)
        ws = WorkloadStats([SimpleNamespace(degrees=degrees)], None, 4)
        got = ws.load_imbalance(num_units, balanced=True)
        assert got == lpt_loop_oracle(degrees, num_units)

    def test_on_a_dataset_graph(self):
        graph = load_dataset("GT", num_snapshots=1, seed=5)
        ws = WorkloadStats(graph, None, 4)
        for units in (2, 16, 32):
            assert ws.load_imbalance(units, balanced=True) == lpt_loop_oracle(
                graph[0].degrees, units
            )


@pytest.fixture
def analyzed(monkeypatch):
    """Every ``WorkloadStats`` that ``analyze`` returns while the test
    runs, beside the classifications it was handed."""
    made = []
    real = WorkloadStats.analyze.__func__

    def spy(cls, graph, model, window_size=4, classifications=None):
        ws = real(cls, graph, model, window_size, classifications)
        made.append((ws, classifications))
        return ws

    monkeypatch.setattr(WorkloadStats, "analyze", classmethod(spy))
    return made


class TestClassificationsAreThisRuns:
    @pytest.fixture(scope="class")
    def graph(self):
        return load_dataset("GT", num_snapshots=9, seed=4)  # K = 4: 4 + 4 + 1

    @pytest.fixture(scope="class")
    def model(self, graph):
        return make_model("T-GCN", graph.dim, 16, seed=4)

    @pytest.mark.parametrize("simulate", [
        TaGNNSimulator().simulate, TAGNN_S.simulate,
    ], ids=["TaGNN", "TaGNN-S"])
    def test_own_run_hands_its_labels_over(self, analyzed, graph, model, simulate):
        simulate(model, graph, "GT")
        ((ws, handed),) = analyzed
        assert [c.window_size for c in handed] == [4, 4, 1]
        assert ws.windows == analyze_oracle(graph, model, 4).windows
        assert ws.windows[-1] == window_oracle(graph.window(8, 1))

    @pytest.mark.parametrize("simulate", [
        TaGNNSimulator().simulate, TAGNN_S.simulate,
    ], ids=["TaGNN", "TaGNN-S"])
    def test_a_result_from_another_window_size_is_not_reused(
        self, analyzed, graph, model, simulate
    ):
        # 9 snapshots cut 3 + 3 + 3 and 4 + 4 + 1: the window counts agree
        k3 = ConcurrentEngine(model, window_size=3).run(graph)
        assert len(k3.extra["classifications"]) == 3
        simulate(model, graph, "GT", engine_result=k3)
        ((ws, handed),) = analyzed
        assert handed is None
        assert ws.windows == WorkloadStats.analyze(graph, model, 4).windows

    def test_analyze_rejects_labels_that_do_not_fit(self, graph, model):
        fit = ConcurrentEngine(model, window_size=4).run(graph).extra[
            "classifications"
        ]
        assert (
            WorkloadStats.analyze(graph, model, 4, fit).windows
            == WorkloadStats.analyze(graph, model, 4).windows
        )
        k3 = ConcurrentEngine(model, window_size=3).run(graph).extra[
            "classifications"
        ]
        other = load_dataset("GT", num_snapshots=9, seed=4, scale=0.5)
        for graph_, labels in ((graph, k3), (graph, fit[:2]), (other, fit)):
            with pytest.raises(ValueError):
                WorkloadStats.analyze(graph_, model, 4, labels)


def report_fields(report) -> dict:
    fields = asdict(report)
    fields["metrics"] = report.metrics.as_dict()
    return fields


@pytest.mark.parametrize("seed", [3, 8])
@pytest.mark.parametrize("name", ["CD-GCN", "GC-LSTM", "T-GCN"])
class TestReportsCannotMove:
    """Every simulator against the same run priced from the DFS oracle."""

    @pytest.fixture
    def case(self, name, seed):
        graph = load_dataset("GT", num_snapshots=9, seed=seed)
        model = make_model(name, graph.dim, 16, seed=seed)
        return graph, model, analyze_oracle(graph, model, 4)

    @pytest.mark.parametrize("config", [
        TaGNNConfig(), TaGNNConfig().ablated(oadl=False, dispatcher=False),
    ], ids=["full", "ablated"])
    def test_tagnn(self, case, config):
        graph, model, oracle = case
        sim = TaGNNSimulator(config)
        want = report_fields(sim.simulate(model, graph, "GT", workload=oracle))
        assert report_fields(sim.simulate(model, graph, "GT")) == want
        passed_in = WorkloadStats.analyze(graph, model, 4)
        assert report_fields(
            sim.simulate(model, graph, "GT", workload=passed_in)
        ) == want

    def test_software_platforms_and_cyclesim(self, case):
        graph, model, oracle = case
        got = WorkloadStats.analyze(graph, model, 4)
        assert got.windows == oracle.windows
        run = ConcurrentEngine(model, window_size=4).run(graph)
        assert report_fields(TAGNN_S.simulate(model, graph, "GT")) == report_fields(
            TAGNN_S.simulate(model, graph, "GT", engine_result=run, workload=oracle)
        )
        ref = ReferenceEngine(model, window_size=4).run(graph).metrics
        for platform in (PIPAD, CAMBRICON_DG):
            assert report_fields(
                platform.simulate(model, graph, "GT", metrics=ref)
            ) == report_fields(
                platform.simulate(model, graph, "GT", metrics=ref, workload=oracle)
            )
        assert CycleSimulator().run_workload(got) == CycleSimulator().run_workload(
            oracle
        )
