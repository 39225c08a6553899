"""The kernel rule: the host's GNN kernel follows each layer's changed
share.

A later snapshot recomputes layer ``l`` on the stable and affected rows
grown ``l`` hops, so the share only grows with depth.  A whole-graph
window (``Carry.computed_rows`` None) runs the representative pass plus
``_layer_rows`` below ``top``, the first layer whose share reaches
``RECOMPUTE_SHARE``, and the stacked window kernel,
``DGNNModel.gnn_forward_window(..., start=top)``, from ``top`` on; every
layer of an owned-row window takes ``_layer_rows``.  Either way the
outputs are the exact engine's, and the counters count the configured
OADL dataflow: the per-row formulas the changed-rows path once applied
inline are frozen here as the oracle.
"""

from collections import Counter
from contextlib import contextmanager
from dataclasses import replace
from functools import lru_cache

import numpy as np
import pytest

from repro.analysis.classify import classify_window
from repro.engine import (
    Carry,
    ConcurrentEngine,
    ExecutionMetrics,
    ReferenceEngine,
    StreamingInference,
)
from repro.engine.concurrent import RECOMPUTE_SHARE
from repro.graphs import DynamicGraph, dataset_spec, generate_dynamic_graph
from repro.models import MODEL_ZOO, DGNNModel, make_model
from repro.serving import ShardCluster

from .test_window_work import masks_over_union

SEED, K = 3, 4
#: 9 snapshots: two full windows and a one-snapshot one
SNAPSHOTS = 9
#: churn scale and vertex turnover per graph; "low" and "trickle" stay
#: below the share at the first layer, the others reach it (the turnover
#: graph is batch-sim's input)
GRAPHS = {
    "low": (0.25, False),
    "trickle": (0.004, False),
    "high": (3.0, False),
    "turnover": (1.0, True),
}
#: per graph, the first of three layers at or above the share in each
#: full window: "low" reaches it at layer 2, "trickle" at layer 2 or 3
TOPS = {"low": {1}, "trickle": {1, 2}, "high": {0}, "turnover": {0}}
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


def _top(window, layers):
    """The first of ``layers`` layers whose changed share reaches the
    rule (``layers`` if none does), from the union-adjacency oracle."""
    changed = classify_window(window).labels != 0
    masks = masks_over_union(window, changed, layers)
    shares = [np.count_nonzero(mask) / window.num_vertices for mask in masks]
    return next(
        (l for l, share in enumerate(shares) if share >= RECOMPUTE_SHARE),
        layers,
    )


def _want(window, layers) -> Counter:
    """The kernel calls of one window: K - 1 ``_layer_rows`` calls at
    each layer below its top, then one stacked call from the top."""
    if len(window) == 1:  # the representative pass is the whole window
        return Counter()
    top = _top(window, layers)
    want = Counter({("rows", l): len(window) - 1 for l in range(top)})
    if top < layers:
        want["stacked", top] = 1
    return want


@contextmanager
def kernel_calls(engine):
    """Counts of the window kernel's and ``_layer_rows``' calls."""
    calls = Counter()

    def spy(key, fn):
        def counted(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)

        return counted

    with pytest.MonkeyPatch.context() as mp:
        model = engine.model
        mp.setattr(
            model, "gnn_forward_window", spy("window", model.gnn_forward_window)
        )
        mp.setattr(engine, "_layer_rows", spy("rows", engine._layer_rows))
        yield calls


@contextmanager
def layer_kernels():
    """Counts of ``_layer_rows`` calls per layer, ``("rows", l)``, and of
    stacked-kernel calls per starting layer, ``("stacked", start)``, of
    every engine and model in the process."""
    calls = Counter()
    layer_rows = ConcurrentEngine._layer_rows
    forward_window = DGNNModel.gnn_forward_window

    def rows(self, layer, *args, **kwargs):
        at = [l for l, it in enumerate(self.model.gnn.layers) if it is layer]
        calls["rows", *at] += 1
        return layer_rows(self, layer, *args, **kwargs)

    def stacked(self, *args, **kwargs):
        calls["stacked", kwargs.get("start", 0)] += 1
        return forward_window(self, *args, **kwargs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ConcurrentEngine, "_layer_rows", rows)
        mp.setattr(DGNNModel, "gnn_forward_window", stacked)
        yield calls


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
            windows = [w for w in _windows(_graph(which)) if len(w) == K]
            shares = [_share(w) for w in windows]
            if which in ("low", "trickle"):
                assert max(shares) < RECOMPUTE_SHARE, shares
            else:
                assert min(shares) >= RECOMPUTE_SHARE, shares
            assert {_top(w, 3) for w in windows} == TOPS[which]

    @pytest.mark.parametrize("which", sorted(GRAPHS))
    @pytest.mark.parametrize("name, hidden", MODELS)
    def test_the_share_picks_the_kernel(self, which, name, hidden):
        """Each layer's share picks its kernel: the row path below the
        top, the stacked kernel from it on — and a multi-layer model
        below the rule at layer 1 runs a mixed window."""
        graph = _graph(which)
        engine = ConcurrentEngine(_model(graph, name, hidden), window_size=K)
        carry, m = Carry(window_size=K), ExecutionMetrics()
        layers = len(engine.model.gnn.layers)
        tops = set()
        for window in _windows(graph):
            cls = classify_window(window)
            with layer_kernels() as calls:
                carry, _ = engine.step(carry, window, cls, None, m)
            assert calls == _want(window, layers)
            if len(window) == K:
                tops.add(_top(window, layers))
        # "low" is mixed for every multi-layer model: layer 1 on the row
        # path, the rest stacked
        assert tops == {min(top, layers) for top in TOPS[which]}

    @pytest.mark.parametrize("name", ["CD-GCN", "GC-LSTM"])
    @pytest.mark.parametrize("tail", [1, 2])
    def test_a_flushed_window_takes_the_rule(self, name, tail):
        """StreamingInference's trailing window of ``tail`` snapshots
        goes through the rule and is exact."""
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
        window = DynamicGraph(head[K:])
        with layer_kernels() as calls:
            outputs.extend(stream.flush().outputs)
        layers = len(stream.model.gnn.layers)
        assert calls == _want(window, layers)
        if tail == 2:  # layer 1 below the rule, layer 2 above it
            assert _top(window, layers) == 1
        ref = ReferenceEngine(_model(graph, name, 16), window_size=K)
        want = ref.run(DynamicGraph(head)).outputs
        assert [o.tobytes() for o in outputs] == [o.tobytes() for o in want]

    @pytest.mark.parametrize("name", ["CD-GCN", "GC-LSTM"])
    @pytest.mark.parametrize("tail", [1, 2])
    def test_a_cluster_flush_takes_the_rule(self, name, tail):
        """ShardCluster's trailing window: a GC-LSTM shard computes every
        row (its cell reads its neighbours), so it takes the rule; a
        CD-GCN shard computes its owned rows on the row path."""
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
        with layer_kernels() as calls:
            cluster.flush("t")
        model = _model(graph, name, 16)
        layers = len(model.gnn.layers)
        if model.cell_reads_neighbours:
            want = _want(DynamicGraph(head[K:]), layers)
        else:
            want = Counter({("rows", l): tail - 1 for l in range(layers)})
        assert calls == Counter({key: shards * c for key, c in want.items()})
        ref = ReferenceEngine(model, window_size=K).run(DynamicGraph(head))
        assert [o.tobytes() for o in cluster.released("t")] == [
            o.tobytes() for o in ref.outputs
        ]

    @pytest.mark.parametrize("name", ["T-GCN", "CD-GCN"])
    def test_an_owned_row_window_stays_on_the_changed_rows(self, name):
        graph = _graph("high")
        n = graph.num_vertices
        whole = ConcurrentEngine(_model(graph, name, 16), window_size=K).run(graph)
        engine = ConcurrentEngine(_model(graph, name, 16), window_size=K)
        rows = np.arange(0, n, 2)
        carry, m = Carry(window_size=K, rows=rows), ExecutionMetrics()
        layers = len(engine.model.gnn.layers)
        outputs = []
        for window in _windows(graph):
            assert len(window) == 1 or _share(window) > 0.99
            with kernel_calls(engine) as calls:
                carry, outs = engine.step(
                    carry, window, classify_window(window), None, m
                )
            want = (len(window) - 1) * layers
            assert calls == ({"rows": want} if want else {})
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
