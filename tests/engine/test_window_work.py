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
from repro.models import GCNStack, make_model
from repro.resilience.ingest import snapshot_violation
from repro.skipping.policy import SkipThresholds

from . import oracle


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


#: the counters of a window's GNN dataflow and its analysis reads
COUNTERS = ("feature_words", "structure_words", "combination_macs", "aggregation_macs")


def accounting_oracle(window, layers, owned):
    """The words and MACs of one OADL step from the replaced formulas:
    each layer's rows by ``masks_over_union`` from the oracle's labels
    (cut to the rows an owned-row step computes the layer on), and each
    later snapshot's churned rows by comparing its features with
    snapshot 0's."""
    snaps, n = window.snapshots, window.num_vertices
    u_indptr, u_indices = union_oracle(window)
    # the rows each layer runs on: the owned ones at the last layer, and
    # below a layer its rows and their neighbours in any snapshot
    need = [np.ones(n, dtype=bool)]
    if owned is not None:
        need = [np.isin(np.arange(n), owned)]
    for _ in range(len(layers) - 1):
        below = need[0].copy()
        for v in np.flatnonzero(need[0]):
            below[u_indices[u_indptr[v] : u_indptr[v + 1]]] = True
        need.insert(0, below)
    changed = masks_over_union(
        window, oracle.labels(snaps) != oracle.UNAFFECTED, len(layers)
    )
    edges = sum(s.num_edges for s in snaps)
    count = dict.fromkeys(COUNTERS, 0)
    count["structure_words"] += edges + (n + 1) * len(snaps)  # the analysis

    def layer_work(layer, inputs, outputs, rows, snap):
        """A layer combining ``inputs`` rows when it shrinks, else
        ``outputs``, and aggregating the edges of ``rows``."""
        agg_dim = min(layer.in_dim, layer.out_dim)
        combined = inputs if layer.out_dim < layer.in_dim else outputs
        gathered = int(snap.degrees[rows].sum())
        count["combination_macs"] += combined * layer.in_dim * layer.out_dim
        count["aggregation_macs"] += gathered * agg_dim
        count["feature_words"] += gathered * agg_dim
        return combined, gathered

    first = snaps[0]  # the representative: each needed row, in full
    rows = np.flatnonzero(need[0])
    count["structure_words"] += len(rows) + 1 + int(first.degrees[rows].sum())
    inputs = first.num_present
    for layer, mask in zip(layers, need):
        rows = np.flatnonzero(mask)
        present = int(first.present[rows].sum())
        combined, _ = layer_work(layer, inputs, present, rows, first)
        count["feature_words"] += combined * layer.in_dim
        inputs = present
    for snap in snaps[1:]:  # the changed rows
        inputs = int((snap.features != first.features).any(axis=1).sum())
        count["feature_words"] += inputs * window.dim
        for layer, grown, mask in zip(layers, changed, need):
            rows = np.flatnonzero(grown & mask)
            _, gathered = layer_work(layer, inputs, len(rows), rows, snap)
            count["structure_words"] += len(rows) + gathered
            inputs = len(rows)
    return count


def step_counts(window, model, owned):
    m = ExecutionMetrics()
    ConcurrentEngine(model, window_size=window.num_snapshots).step(
        Carry(window_size=window.num_snapshots, rows=owned), window,
        classify_window(window), None, m,
    )
    return {key: getattr(m, key) for key in COUNTERS}


#: vertex 4 is absent, yet holds an edge (4 -> 2); the canonical form
#: gives an absent vertex an empty row
RELINKED = dict(
    edges=np.array([(0, 1), (1, 0), (2, 3), (3, 2), (4, 2)]),
    features=np.arange(15, dtype=np.float32).reshape(5, 3),
    present=np.array([True, True, True, True, False]),
)


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
            got = _changed_rows(window[0], changed, layers)
            want = masks_over_union(window, changed, layers)
            assert len(got) == layers
            for rows, mask in zip(got, want):
                assert np.array_equal(rows, np.flatnonzero(mask))

    @windows
    @settings(max_examples=100, deadline=None)
    def test_the_memoised_closure_equals_the_masks_grown_over_the_union(
        self, seed, n, k
    ):
        window = random_window(seed, n, k)
        cls = classify_window(window)
        for layers in (1, 3, 2):  # grown deeper, then read shallower
            want = masks_over_union(window, cls.labels != 0, layers)
            for rows, mask in zip(cls.changed_rows(layers), want):
                assert np.array_equal(rows, np.flatnonzero(mask))

    def test_an_absent_row_holding_edges_is_not_made(self):
        """The closure hops over the first snapshot alone because an
        unaffected row keeps its neighbour list; an absent vertex that
        held edges would break that, so no snapshot is made with one."""
        with pytest.raises(ValueError, match="absent vertex 4 holds 1 edge"):
            CSRSnapshot.from_edges(5, **RELINKED, undirected=False)
        # an undirected edge to an absent vertex fills its row too
        with pytest.raises(ValueError, match="absent vertex 4 holds 1 edge"):
            CSRSnapshot.from_edges(
                5, RELINKED["edges"][4:], RELINKED["features"],
                present=RELINKED["present"],
            )

    def test_an_absent_row_holding_edges_is_refused_at_ingest(self):
        """The counters hop over the first snapshot's edges alone; a
        snapshot made past :meth:`CSRSnapshot.from_edges` with an absent
        row that holds edges does not enter a stream."""
        edges = RELINKED["edges"]
        indptr, indices = build_csr(5, edges[:, 0], edges[:, 1])
        snap = CSRSnapshot(
            indptr, indices, RELINKED["features"], RELINKED["present"]
        )
        assert snapshot_violation(snap) == "absent vertex 4 holds 1 edge(s)"
        emptied = indptr.copy()
        emptied[-1] = emptied[-2]  # row 4 is the last: drop its edge
        canonical = CSRSnapshot(
            emptied, indices[:-1], RELINKED["features"], RELINKED["present"]
        )
        assert snapshot_violation(canonical) is None

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


def accounting_model(dim, hidden, layers):
    """A T-GCN (row-local cell) whose GNN is ``layers`` GCN layers."""
    model = make_model("T-GCN", dim, hidden, seed=1)
    model.gnn = GCNStack([dim] + [hidden] * layers, seed=1)
    return model


class TestTheCountersKeepTheirDefinitions:
    """The step counts the OADL dataflow from its classification's
    memoised facts; the counts are the ones the definitions give."""

    @given(
        seed=st.integers(0, 10_000),
        n=st.integers(1, 40),
        k=st.sampled_from([1, 2, 4]),
        layers=st.integers(1, 3),
        hidden=st.sampled_from([2, 8]),  # 2 < dim: the first layer shrinks
        shards=st.sampled_from([None, 2, 4]),
    )
    @settings(max_examples=80, deadline=None)
    def test_equal_the_accounting_oracle(self, seed, n, k, layers, hidden, shards):
        window = random_window(seed, n, k)
        model = accounting_model(window.dim, hidden, layers)
        owners = [None]
        if shards is not None:
            owner = np.random.default_rng(seed).integers(0, shards, n)
            owners = [np.flatnonzero(owner == s) for s in range(shards)]
        for owned in owners:
            want = accounting_oracle(window, model.gnn.layers, owned)
            assert step_counts(window, model, owned) == want


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
