"""The kernel rule: one GNN kernel per window, and the OADL dataflow in
the counters.

A whole-graph window (``Carry.computed_rows`` None) makes exactly one
``DGNNModel.gnn_forward_window`` call, whatever its changed share or
length.  An owned-row window computes each snapshot layer by layer with
``GCNLayer.forward(snap, h, rows=need[l])``, ``need`` the rows each
layer must produce for the owned ones.  Either way the outputs are the
exact engine's, and the counters count the configured OADL dataflow:
the per-row formulas the changed-rows path once applied inline are
frozen here as the oracle.
"""

from collections import Counter
from contextlib import contextmanager
from dataclasses import replace
from functools import lru_cache

import numpy as np
import pytest

from repro.adaptive import ExecutionPlan, KernelChoice
from repro.adaptive.planner import RECOMPUTE_SHARE, recomputes
from repro.analysis.classify import classify_window
from repro.engine import (
    Carry,
    ConcurrentEngine,
    ExecutionMetrics,
    ReferenceEngine,
    StreamingInference,
)
from repro.graphs import DynamicGraph, dataset_spec, generate_dynamic_graph
from repro.models import MODEL_ZOO, DGNNModel, GCNLayer, make_model
from repro.serving import ShardCluster
from repro.skipping import SkipThresholds

from .test_window_work import masks_over_union

SEED, K = 3, 4
#: 9 snapshots: two full windows and a one-snapshot one
SNAPSHOTS = 9
#: churn scale and vertex turnover per graph; "low" and "trickle" stay
#: below the planner's recompute share, the others reach it (the
#: turnover graph is batch-sim's input)
GRAPHS = {
    "low": (0.25, False),
    "trickle": (0.004, False),
    "high": (3.0, False),
    "turnover": (1.0, True),
}
#: every zoo model with a shrinking first layer, and one growing one
MODELS = [(name, 16) for name in sorted(MODEL_ZOO)] + [("CD-GCN", 64)]


@lru_cache(maxsize=None)
def _graph(which):
    churn, turnover = GRAPHS[which]
    spec = dataset_spec("GT", num_snapshots=SNAPSHOTS, seed=SEED)
    config = spec.churn.scaled(churn)
    if not turnover:
        config = replace(
            config, vertex_arrival_frac=0.0, vertex_departure_frac=0.0
        )
    return generate_dynamic_graph(replace(spec, churn=config))


def _model(graph, name, hidden):
    return make_model(name, graph.dim, hidden, seed=SEED)


def _windows(graph):
    for start in range(0, graph.num_snapshots, K):
        yield graph.window(start, min(K, graph.num_snapshots - start))


def _share(window):
    return np.count_nonzero(classify_window(window).labels) / window.num_vertices


def _need(window, owned, layers):
    """Per layer, the rows an owned-row window computes: the owned rows
    at the last layer, each layer below grown one hop over the union of
    the window's edges (the rows the layer above reads)."""
    mask = np.zeros(window.num_vertices, dtype=bool)
    mask[owned] = True
    return [np.flatnonzero(m) for m in masks_over_union(window, mask, layers)][::-1]


@contextmanager
def kernel_calls():
    """The GNN kernel calls of every engine and model in the process:
    ``calls["window"]`` counts ``gnn_forward_window`` calls, and
    ``calls["layer"]`` lists ``(layer, rows)`` per ``GCNLayer.forward``
    call."""
    calls = {"window": 0, "layer": []}
    forward_window = DGNNModel.gnn_forward_window
    forward = GCNLayer.forward

    def stacked(self, *args, **kwargs):
        calls["window"] += 1
        return forward_window(self, *args, **kwargs)

    def layer(self, snap, x, rows=None):
        calls["layer"].append((self, rows))
        return forward(self, snap, x, rows=rows)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(DGNNModel, "gnn_forward_window", stacked)
        mp.setattr(GCNLayer, "forward", layer)
        yield calls


def _assert_owned_calls(calls, layers, window, owned):
    """Every snapshot ran each layer once, on ``need[l]``."""
    need = _need(window, owned, len(layers))
    assert calls["window"] == 0
    assert len(calls["layer"]) == len(window) * len(layers)
    for i, (layer, rows) in enumerate(calls["layer"]):
        l = i % len(layers)
        assert layer is layers[l]
        np.testing.assert_array_equal(rows, need[l])


def _full_counts(model, snap) -> Counter:
    """The counters of one GNN pass over every row of ``snap``."""
    p, e = snap.num_present, snap.num_edges
    c = Counter(structure_words=snap.num_vertices + 1 + e)
    for layer in model.gnn.layers:
        width = min(layer.in_dim, layer.out_dim)
        c["feature_words"] += p * layer.in_dim + e * width
        c["combination_macs"] += p * layer.in_dim * layer.out_dim
        c["aggregation_macs"] += e * width
    return c


def _changed_counts(model, window) -> Counter:
    """The counters of the later snapshots' changed rows, with the
    formulas the changed-rows path applied per row and per layer."""
    layers = model.gnn.layers
    changed = classify_window(window).labels != 0
    layer_rows = [
        np.flatnonzero(mask)
        for mask in masks_over_union(window, changed, len(layers))
    ]
    snap0 = window[0]
    c = Counter()
    for snap in list(window)[1:]:
        in_rows = np.flatnonzero((snap.features != snap0.features).any(axis=1))
        c["feature_words"] += len(in_rows) * window.dim
        for layer, rows in zip(layers, layer_rows):
            macs = layer.in_dim * layer.out_dim
            if layer.out_dim < layer.in_dim:
                c["combination_macs"] += len(in_rows) * macs
                width = layer.out_dim
            else:
                width = layer.in_dim
            gathered = int(snap.degrees[rows].sum())
            c["aggregation_macs"] += gathered * width
            c["feature_words"] += gathered * width
            c["structure_words"] += len(rows) + gathered
            if layer.out_dim >= layer.in_dim:
                c["combination_macs"] += len(rows) * macs
            in_rows = rows
    return c


class TestTheRule:
    def test_the_graphs_sit_on_both_sides_of_the_share(self):
        for which in GRAPHS:
            shares = [
                _share(w) for w in _windows(_graph(which)) if len(w) == K
            ]
            if which in ("low", "trickle"):
                assert max(shares) < RECOMPUTE_SHARE, shares
            else:
                assert min(shares) >= RECOMPUTE_SHARE, shares

    @pytest.mark.parametrize("which", sorted(GRAPHS))
    @pytest.mark.parametrize("name, hidden", MODELS)
    def test_the_share_picks_the_kernel(self, which, name, hidden):
        """The share picks the kernel a plan counts (``recomputes``).
        Whichever it picks, and unplanned, a whole-graph window is one
        stacked kernel call and no per-layer call, with the same bits;
        the trailing one-snapshot window too."""
        graph = _graph(which)
        engine = ConcurrentEngine(_model(graph, name, hidden), window_size=K)
        carry = Carry(window_size=K)
        for window in _windows(graph):
            cls = classify_window(window)
            kernel = (
                KernelChoice.BATCHED_SPMM
                if recomputes(_share(window))
                else KernelChoice.DELTA_CONDENSED
            )
            outputs = []
            for plan in (None, ExecutionPlan(kernel, SkipThresholds())):
                with kernel_calls() as calls:
                    successor, outs = engine.step(
                        carry.copy(), window, cls, plan, ExecutionMetrics()
                    )
                assert calls == {"window": 1, "layer": []}
                outputs.append([o.tobytes() for o in outs])
            assert outputs[0] == outputs[1]
            carry = successor

    @pytest.mark.parametrize("name", ["CD-GCN", "GC-LSTM"])
    @pytest.mark.parametrize("tail", [1, 2])
    def test_a_flushed_window_takes_the_rule(self, name, tail):
        """StreamingInference's trailing window of ``tail`` snapshots
        is one stacked kernel call and is exact."""
        graph = _graph("low")
        head = graph.snapshots[: K + tail]
        stream = StreamingInference(
            _model(graph, name, 16), window_size=K, enable_skipping=False
        )
        outputs = []
        for snap in head:
            result = stream.push(snap)
            if result is not None:
                outputs.extend(result.outputs)
        assert stream.pending == tail
        with kernel_calls() as calls:
            outputs.extend(stream.flush().outputs)
        assert calls == {"window": 1, "layer": []}
        ref = ReferenceEngine(_model(graph, name, 16), window_size=K)
        want = ref.run(DynamicGraph(head)).outputs
        assert [o.tobytes() for o in outputs] == [o.tobytes() for o in want]

    @pytest.mark.parametrize("name", ["CD-GCN", "GC-LSTM"])
    @pytest.mark.parametrize("tail", [1, 2])
    def test_a_cluster_flush_takes_the_rule(self, name, tail):
        """ShardCluster's trailing window: a GC-LSTM shard computes every
        row (its cell reads its neighbours), so it makes one stacked
        call; a CD-GCN shard computes the rows its owned ones need,
        layer by layer."""
        graph = _graph("low")
        head = graph.snapshots[: K + tail]
        shards = 2
        cluster = ShardCluster(
            lambda: _model(graph, name, 16),
            num_shards=shards,
            window_size=K,
            enable_skipping=False,
        )
        cluster.register_tenant("t")
        for snap in head:
            cluster.push("t", snap)
        cluster.drain_backlogs()
        with kernel_calls() as calls:
            cluster.flush("t")
        model = _model(graph, name, 16)
        if model.cell_reads_neighbours:
            assert calls == {"window": shards, "layer": []}
        else:
            # the shards flush in turn, each a snapshot's layers at a time
            window = DynamicGraph(head[K:])
            each = tail * len(model.gnn.layers)
            assert len(calls["layer"]) == shards * each
            for i, worker in enumerate(cluster.workers):
                mine = calls["layer"][i * each : (i + 1) * each]
                layers = worker.streams["t"].model.gnn.layers
                _assert_owned_calls(
                    {"window": calls["window"], "layer": mine},
                    layers, window, worker.rows,
                )
        ref = ReferenceEngine(model, window_size=K).run(DynamicGraph(head))
        assert [o.tobytes() for o in cluster.released("t")] == [
            o.tobytes() for o in ref.outputs
        ]

    @pytest.mark.parametrize("name", ["T-GCN", "CD-GCN"])
    def test_an_owned_window_computes_the_rows_it_needs(self, name):
        graph = _graph("high")
        n = graph.num_vertices
        whole = ConcurrentEngine(_model(graph, name, 16), window_size=K).run(graph)
        engine = ConcurrentEngine(_model(graph, name, 16), window_size=K)
        rows = np.arange(0, n, 2)
        carry, m = Carry(window_size=K, rows=rows), ExecutionMetrics()
        outputs = []
        for window in _windows(graph):
            with kernel_calls() as calls:
                carry, outs = engine.step(
                    carry, window, classify_window(window), None, m
                )
            _assert_owned_calls(calls, engine.model.gnn.layers, window, rows)
            outputs.extend(outs)
        for got, full in zip(outputs, whole.outputs):
            assert got[rows].tobytes() == full[rows].tobytes()


@pytest.mark.parametrize("which", sorted(GRAPHS))
@pytest.mark.parametrize("name, hidden", MODELS)
class TestExactAndCountedAsOADL:
    def test_outputs_equal_the_recompute_ablation(self, which, name, hidden):
        graph = _graph(which)
        on = ConcurrentEngine(_model(graph, name, hidden), window_size=K)
        off = ConcurrentEngine(
            _model(graph, name, hidden), window_size=K, enable_overlap=False
        )
        for a, b in zip(on.run(graph).outputs, off.run(graph).outputs, strict=True):
            assert a.tobytes() == b.tobytes()

    def test_outputs_equal_the_reference_without_skipping(self, which, name, hidden):
        graph = _graph(which)
        engine = ConcurrentEngine(
            _model(graph, name, hidden), window_size=K, enable_skipping=False
        )
        ref = ReferenceEngine(_model(graph, name, hidden), window_size=K)
        for a, b in zip(
            engine.run(graph).outputs, ref.run(graph).outputs, strict=True
        ):
            assert a.tobytes() == b.tobytes()

    def test_counters_count_the_oadl_dataflow(self, which, name, hidden):
        """The OADL run's counters are the recompute ablation's (same
        outputs, so the same cell phase) with each window's full passes
        swapped for the representative pass and the changed rows."""
        graph = _graph(which)
        got = ConcurrentEngine(_model(graph, name, hidden), window_size=K).run(graph)
        model = _model(graph, name, hidden)
        off = ConcurrentEngine(model, window_size=K, enable_overlap=False)
        want = Counter(off.run(graph).metrics.as_dict())
        for window in _windows(graph):
            for snap in window:
                want.subtract(_full_counts(model, snap))
            want.update(_full_counts(model, window[0]))
            want.update(_changed_counts(model, window))
        assert got.metrics.as_dict() == dict(want)
