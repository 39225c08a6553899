"""A window step computes only what its outputs and counters read.

``ConcurrentEngine.step`` used to build the window's union adjacency,
run the stable-rooted DFS over it and convolve the whole hidden state
at every later snapshot, then read a vertex count, a one-hop mask and a
handful of rows.  It now grows the per-layer changed rows over the
window's own CSRs and aggregates the rows it needs.  The replaced
formulas survive here as oracles, and a guard keeps the dead work from
creeping back.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.adaptive import ExecutionPlan, KernelChoice
from repro.analysis import (
    classify_window,
    extract_affected_subgraph,
    union_adjacency,
)
from repro.engine import (
    Carry,
    ConcurrentEngine,
    ExecutionMetrics,
    StreamingInference,
)
from repro.analysis.classify import _changed_rows
from repro.graphs import CSRSnapshot, DynamicGraph, load_dataset
from repro.graphs.snapshot import build_csr
from repro.models import make_model
from repro.skipping.policy import SkipThresholds


def random_window(seed: int, n: int, k: int, dim: int = 3) -> DynamicGraph:
    """``k`` snapshots over ``n`` ids with vertex turnover, feature
    churn on a few rows, isolated vertices, and now and then a snapshot
    with no edges at all."""
    rng = np.random.default_rng(seed)
    present = rng.random(n) < 0.8
    feats = rng.standard_normal((n, dim)).astype(np.float32)
    edges = rng.integers(0, n, size=(2 * n, 2))
    snaps = []
    for t in range(k):
        present = present ^ (rng.random(n) < 0.1)  # arrivals + departures
        feats = feats.copy()
        churned = rng.random(n) < 0.15
        feats[churned] += 1.0
        edges = np.concatenate(
            [edges[rng.random(len(edges)) > 0.1], rng.integers(0, n, size=(n // 4, 2))]
        )
        live = edges[present[edges].all(axis=1)]
        if rng.random() < 0.15:
            live = live[:0]
        snaps.append(
            CSRSnapshot.from_edges(
                n, live, np.where(present[:, None], feats, 0.0),
                present=present.copy(), timestamp=t,
            )
        )
    return DynamicGraph(snaps, name="random")


def union_oracle(window):
    """The replaced ``union_adjacency``: ``np.unique`` then ``build_csr``."""
    n = window.num_vertices
    keys = []
    for s in window:
        src = np.repeat(np.arange(n, dtype=np.int64), s.degrees)
        keys.append(src * n + s.indices.astype(np.int64))
    merged = np.unique(np.concatenate(keys))
    return build_csr(n, merged // n, merged % n)


def masks_over_union(window, changed0, num_layers):
    """The replaced mask growth: one hop over the union adjacency."""
    u_indptr, u_indices = union_oracle(window)
    src = np.repeat(
        np.arange(window.num_vertices, dtype=np.int64), np.diff(u_indptr)
    )
    masks = [changed0]
    for _ in range(num_layers - 1):
        prev = masks[-1]
        grown = prev.copy()
        hit = prev[u_indices]
        if hit.any():
            grown[src[hit]] = True
        masks.append(grown)
    return masks


windows = given(
    seed=st.integers(0, 10_000),
    n=st.integers(1, 40),
    k=st.sampled_from([1, 2, 4]),
)


class TestChangedRows:
    @windows
    @settings(max_examples=150, deadline=None)
    def test_equal_the_masks_grown_over_the_union(self, seed, n, k):
        window = random_window(seed, n, k)
        changed = classify_window(window).labels != 0
        for layers in (1, 2, 3):
            got = _changed_rows(window, changed, layers)
            want = masks_over_union(window, changed, layers)
            assert len(got) == layers
            for rows, mask in zip(got, want):
                assert np.array_equal(rows, np.flatnonzero(mask))

    @windows
    @example(seed=1500, n=6, k=4)  # no stable root, adjacent affected vertices
    @settings(max_examples=60, deadline=None)
    def test_subgraph_size_is_the_label_count(self, seed, n, k):
        """The identity that lets ``step`` charge the DFS's modelled
        cost without running it (the DFS used to visit an affected
        component twice when no stable root reached it)."""
        window = random_window(seed, n, k)
        cls = classify_window(window)
        subgraph = extract_affected_subgraph(window, cls)
        assert subgraph.num_vertices == (cls.labels != 0).sum()
        assert np.array_equal(subgraph.vertices, np.flatnonzero(cls.labels != 0))
        assert np.array_equal(np.sort(subgraph.dfs_order), subgraph.vertices)

    @windows
    @settings(max_examples=60, deadline=None)
    def test_union_adjacency_equals_unique_then_build_csr(self, seed, n, k):
        window = random_window(seed, n, k)
        for got, want in zip(union_adjacency(window), union_oracle(window)):
            assert got.dtype == want.dtype
            assert np.array_equal(got, want)


def _raise(*args, **kwargs):
    raise AssertionError("the window step must not build the union or run the DFS")


@pytest.fixture
def no_subgraph_work(monkeypatch):
    """``union_adjacency`` / ``extract_affected_subgraph`` raise wherever
    they are bound."""
    import repro.accel.partition
    import repro.accel.workload
    import repro.analysis
    import repro.analysis.subgraph
    import repro.engine.concurrent

    for module in (
        repro.analysis.subgraph,
        repro.analysis,
        repro.accel.partition,
        repro.accel.workload,
        repro.engine.concurrent,
    ):
        for name in ("union_adjacency", "extract_affected_subgraph"):
            monkeypatch.setattr(module, name, _raise, raising=False)


class TestDeadWorkStaysDead:
    @pytest.mark.parametrize("name", ["GC-LSTM", "T-GCN"])
    def test_stream_runs(self, no_subgraph_work, name):
        graph = load_dataset("GT", num_snapshots=8, seed=3)
        stream = StreamingInference(
            make_model(name, graph.dim, 16, seed=3), window_size=4
        )
        released = [stream.push(s.copy()) for s in graph]
        assert sum(len(r.outputs) for r in released if r is not None) == 8

    def test_planned_delta_condensed_window_runs(self, no_subgraph_work):
        graph = load_dataset("GT", num_snapshots=4, seed=3)
        engine = ConcurrentEngine(make_model("GC-LSTM", graph.dim, 16, seed=3))
        plan = ExecutionPlan(KernelChoice.DELTA_CONDENSED, SkipThresholds())
        _, outputs = engine.step(
            Carry(window_size=4), graph, classify_window(graph), plan,
            ExecutionMetrics(),
        )
        assert len(outputs) == 4
