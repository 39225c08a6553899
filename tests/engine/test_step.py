"""One window executor per engine: ``step(carry, window, ...)``.

Batch ``run``, the pushed stream, the drift probe, the supervisor's
rollback and the degraded path are all callers of the two ``step``
methods, so these tests pin the contracts the callers lean on: a
hand-written fold equals ``run`` equals the stream byte for byte, a
planned stream is the fold of the plans it committed, a plan is an
argument (nothing ambient is touched), and a carry is a value: no step
writes it, so running a window from the same carry twice is exact.
"""

import dataclasses
import io
from itertools import repeat

import numpy as np
import pytest

from repro.adaptive import AdaptivePlanner, ExecutionPlan, KernelChoice
from repro.analysis.classify import classify_window
from repro.engine import (
    Carry,
    ConcurrentEngine,
    ExecutionMetrics,
    ReferenceEngine,
    StreamingInference,
)
from repro.graphs import load_dataset
from repro.models import make_model
from repro.resilience import load_checkpoint, save_checkpoint
from repro.skipping.policy import SkippingPolicy, SkipThresholds

SEED = 3
WINDOW = 4


@pytest.fixture(scope="module")
def graph():
    # 7 snapshots: not a multiple of K, so the last window is partial
    return load_dataset("GT", num_snapshots=7, seed=SEED)


def _model(graph, name="T-GCN"):
    return make_model(name, graph.dim, hidden_dim=16, seed=SEED)


def _windows(graph, k=WINDOW):
    for start in range(0, graph.num_snapshots, k):
        yield graph.window(start, min(k, graph.num_snapshots - start))


def _fold(engine, graph, plans=None):
    """``ConcurrentEngine.run`` written out by hand; window ``i`` runs
    under ``plans[i]`` (None: every window at the static
    configuration)."""
    m = ExecutionMetrics()
    carry = Carry(window_size=engine.window_size)
    outputs = []
    windows = _windows(graph, engine.window_size)
    for window, plan in zip(windows, repeat(None) if plans is None else plans):
        cls = classify_window(window)
        carry, outs = engine.step(carry, window, cls, plan, m)
        outputs.extend(outs)
    return outputs, m, carry


def _recorded_plans(planner):
    return [rec.plan for rec in planner.records]


def _pushed(stream, graph):
    outs = []
    for snap in graph:
        r = stream.push(snap.copy())
        if r is not None:
            outs.extend(r.outputs)
    r = stream.flush()
    if r is not None:
        outs.extend(r.outputs)
    return outs


def _assert_bytes_equal(a, b):
    assert len(a) == len(b)
    for x, y in zip(a, b):
        assert x.dtype == y.dtype and x.shape == y.shape
        assert x.tobytes() == y.tobytes()


def _assert_carry_equal(a: Carry, b: Carry):
    """Field by field over ``dataclasses.fields`` so a field added later
    is compared (or fails here) by construction."""
    for f in dataclasses.fields(Carry):
        x, y = getattr(a, f.name), getattr(b, f.name)
        if x is None or y is None:
            assert x is y, f.name
        elif f.name == "snap_prev":
            _assert_snapshot_equal(x, y)
        elif f.name == "metrics":
            assert x.as_dict() == y.as_dict()
        elif f.name == "state":
            assert type(x) is type(y)
            for k in vars(x):
                assert getattr(x, k).tobytes() == getattr(y, k).tobytes(), k
        elif f.name == "cache":
            assert x.z_input.tobytes() == y.z_input.tobytes(), f.name
        elif isinstance(x, np.ndarray):
            assert x.tobytes() == y.tobytes(), f.name
        else:
            assert x == y, f.name


def _assert_snapshot_equal(s, t):
    assert s.timestamp == t.timestamp
    for k in ("indptr", "indices", "features", "present"):
        assert getattr(s, k).tobytes() == getattr(t, k).tobytes(), k


class TestRunIsAFoldOfStep:
    @pytest.mark.parametrize("kernel", [None, *KernelChoice])
    def test_run_equals_fold_equals_stream(
        self, graph, forced_planner, kernel
    ):
        """``run``, a hand fold of ``step`` and the pushed stream agree
        byte for byte.  A planned stream is the fold fed the plans it
        recorded; a kernel never changes a result, so ``run`` (static)
        agrees with it too."""
        planner = None if kernel is None else forced_planner(kernel)
        stream = StreamingInference(
            _model(graph), window_size=WINDOW, planner=planner
        )
        pushed = _pushed(stream, graph)
        plans = None if planner is None else _recorded_plans(planner)
        folded, m, carry = _fold(
            ConcurrentEngine(_model(graph), window_size=WINDOW), graph, plans
        )
        ran = ConcurrentEngine(_model(graph), window_size=WINDOW).run(graph)
        assert len(ran.outputs) == graph.num_snapshots
        _assert_bytes_equal(ran.outputs, folded)
        _assert_bytes_equal(ran.outputs, pushed)
        probes = 0 if planner is None else planner.probes_done
        assert stream.metrics == dataclasses.replace(m, drift_probes=probes)
        if planner is None:
            assert ran.metrics == m
        assert carry.timestamp == graph.num_snapshots
        assert carry.window_index == 2
        assert carry.snap_prev is graph.snapshots[-1]

    def test_a_default_planner_stream_is_the_fold_of_its_plans(self):
        """A default ``AdaptivePlanner()`` drift-probes and moves the
        thresholds, so the stream's outputs are the fold of ``step`` fed
        the plans it committed, and not the static ``run``'s.  A batch
        loop that planned without probing stayed at the default
        thresholds and disagreed with this stream on 31 of these 40
        snapshots."""
        graph = load_dataset("GT", num_snapshots=40, seed=0)

        def model():
            return make_model("CD-GCN", graph.dim, hidden_dim=8, seed=0)

        planner = AdaptivePlanner()
        stream = StreamingInference(
            model(), window_size=WINDOW, planner=planner
        )
        pushed = _pushed(stream, graph)
        plans = _recorded_plans(planner)
        assert len(plans) == graph.num_snapshots // WINDOW
        # not vacuous: the probes moved the thresholds mid-stream
        assert planner.probes_done == 3 and planner.aggressiveness > 0
        assert len({plan.thresholds for plan in plans}) > 1
        folded, m, _ = _fold(
            ConcurrentEngine(model(), window_size=WINDOW), graph, plans
        )
        _assert_bytes_equal(pushed, folded)
        assert stream.metrics == dataclasses.replace(m, drift_probes=3)
        static = ConcurrentEngine(model(), window_size=WINDOW).run(graph)
        assert any(
            a.tobytes() != b.tobytes() for a, b in zip(static.outputs, pushed)
        )

    def test_second_run_on_one_engine_repeats_the_first(
        self, graph, forced_planner
    ):
        """Nothing survives a run on the engine itself (the deleted
        delta-sparsity probe did): ``run`` twice, or fold the same plans
        twice, on one engine and get the same bytes."""
        planner = forced_planner(KernelChoice.DELTA_CONDENSED)
        _pushed(
            StreamingInference(
                _model(graph), window_size=WINDOW, planner=planner
            ),
            graph,
        )
        plans = _recorded_plans(planner)
        engine = ConcurrentEngine(_model(graph), window_size=WINDOW)
        a, b = engine.run(graph), engine.run(graph)
        _assert_bytes_equal(a.outputs, b.outputs)
        assert a.metrics == b.metrics
        fa, ma, _ = _fold(engine, graph, plans)
        fb, mb, _ = _fold(engine, graph, plans)
        _assert_bytes_equal(fa, fb)
        assert ma == mb


class TestNoAmbientState:
    def test_engine_attributes_untouched_inside_a_planned_window(
        self, graph, monkeypatch
    ):
        engine = ConcurrentEngine(
            _model(graph), window_size=WINDOW, enable_overlap=True
        )
        policy = engine.policy
        seen = []
        decide = SkippingPolicy.decide

        def spying_decide(self, scored, theta):
            seen.append((engine.enable_overlap, engine.policy))
            return decide(self, scored, theta)

        monkeypatch.setattr(SkippingPolicy, "decide", spying_decide)
        plan = ExecutionPlan(KernelChoice.BATCHED_SPMM, SkipThresholds())
        _fold(engine, graph, repeat(plan))
        assert seen, "the planned windows must have scored something"
        # BATCHED_SPMM disables overlap *for the window*, as a local
        assert all(overlap is True and p is policy for overlap, p in seen)


def _carry_bytes(carry: Carry) -> dict:
    """Every array ``carry`` holds and its counters, by name, as
    bytes."""
    out = {"metrics": carry.metrics.as_dict()}
    for f in dataclasses.fields(Carry):
        value = getattr(carry, f.name)
        if isinstance(value, np.ndarray):
            out[f.name] = value.tobytes()
        elif f.name == "state" and value is not None:
            for k, array in vars(value).items():
                out[f"state.{k}"] = array.tobytes()
        elif f.name == "cache" and value is not None:
            out["cache"] = value.z_input.tobytes()
        elif f.name == "snap_prev" and value is not None:
            for k in ("indptr", "indices", "features", "present"):
                out[f"snap_prev.{k}"] = getattr(value, k).tobytes()
    return out


class TestACarryIsAValue:
    @pytest.mark.parametrize("name", ["GC-LSTM", "T-GCN", "EvolveGCN"])
    def test_step_writes_no_array_of_its_input(self, graph, name):
        """LSTM, GRU and identity-cell models, with and without the
        per-window refresh: after a step every array of its input carry
        is bit-identical — the delta baseline included — and a second
        step from the same carry gives equal outputs, counters and
        successors."""
        for refresh in (True, False):
            self._step_twice(graph, name, refresh)

    @staticmethod
    def _step_twice(graph, name, refresh):
        engine = ConcurrentEngine(
            _model(graph, name), window_size=WINDOW,
            refresh_each_window=refresh,
        )
        first, second = _windows(graph)
        carry, _ = engine.step(
            Carry(window_size=WINDOW),
            first,
            classify_window(first),
            None,
            ExecutionMetrics(),
        )
        assert (carry.cache is None) == (name == "EvolveGCN")
        before = _carry_bytes(carry)
        cls = classify_window(second)
        m_a, m_b = ExecutionMetrics(), ExecutionMetrics()
        succ_a, outs_a = engine.step(carry, second, cls, None, m_a)
        assert _carry_bytes(carry) == before
        succ_b, outs_b = engine.step(carry, second, cls, None, m_b)
        assert _carry_bytes(carry) == before
        _assert_bytes_equal(outs_a, outs_b)
        _assert_carry_equal(succ_a, succ_b)
        assert m_a.as_dict() == m_b.as_dict()
        if name != "EvolveGCN":
            # not vacuous: the window moved the successor's baseline
            assert _carry_bytes(succ_a)["cache"] != before["cache"]
            assert succ_a.cache is not succ_b.cache
        with pytest.raises(dataclasses.FrozenInstanceError):
            carry.timestamp = 0

    def test_one_loaded_carry_resumes_two_streams_alike(self):
        """One loaded ``Carry`` restored into two streams, each fed the
        same snapshots, gives the same bytes and the same counters: the
        first stream neither advanced its baseline nor buffered its
        snapshots in the carry the second one resumes from."""
        graph = load_dataset("GT", num_snapshots=12, seed=SEED)
        stream = StreamingInference(_model(graph), window_size=WINDOW)
        for snap in list(graph)[: WINDOW + 1]:
            stream.push(snap.copy())
        buf = io.BytesIO()
        save_checkpoint(stream, buf)
        buf.seek(0)
        carry = load_checkpoint(buf)
        runs = []
        for _ in range(2):
            resumed = StreamingInference(_model(graph), window_size=WINDOW)
            resumed.restore_carry(carry)
            outputs = _pushed(resumed, list(graph)[carry.timestamp:])
            runs.append((outputs, resumed.metrics))
        (outs_a, m_a), (outs_b, m_b) = runs
        assert len(outs_a) == graph.num_snapshots - WINDOW
        _assert_bytes_equal(outs_a, outs_b)
        assert m_a == m_b


class TestReferenceStep:
    @pytest.mark.parametrize("name", ["T-GCN", "EvolveGCN"])
    def test_fold_equals_run_and_allocates_no_cache(self, graph, name):
        ran = ReferenceEngine(_model(graph, name), window_size=WINDOW).run(
            graph
        )
        engine = ReferenceEngine(_model(graph, name), window_size=WINDOW)
        m = ExecutionMetrics()
        carry = Carry(window_size=WINDOW)
        outputs = []
        for window in _windows(graph):
            before = carry
            carry, outs = engine.step(carry, window.snapshots, m)
            outputs.extend(outs)
            assert carry.cache is None
            assert before.window_index + 1 == carry.window_index
        _assert_bytes_equal(ran.outputs, outputs)
        # run adds only the redundancy audit on top of the step's
        # counters
        for field in (
            "feature_words",
            "structure_words",
            "weight_words",
            "output_words",
            "aggregation_macs",
            "combination_macs",
            "cell_macs",
            "cells_full",
            "snapshots_processed",
        ):
            assert getattr(ran.metrics, field) == getattr(m, field), field
        assert carry.timestamp == graph.num_snapshots


class TestCheckpointCoversEveryCarryField:
    @pytest.mark.parametrize("name", ["GC-LSTM", "T-GCN", "EvolveGCN"])
    @pytest.mark.parametrize("pushes", [0, 2, 5])
    def test_round_trip_compares_every_field(self, graph, name, pushes):
        """save → load → restore_carry → ``carry``, compared over
        ``dataclasses.fields(Carry)``: a field added without
        serialisation comes back at its default and fails here.  The
        snapshots are the one exception: a checkpoint stores none, so
        ``snap_prev`` comes back None and the buffer empty."""
        stream = StreamingInference(_model(graph, name), window_size=WINDOW)
        for snap in list(graph)[:pushes]:
            stream.push(snap.copy())
        buf = io.BytesIO()
        save_checkpoint(stream, buf)
        buf.seek(0)
        resumed = StreamingInference(_model(graph, name), window_size=WINDOW)
        resumed.restore_carry(load_checkpoint(buf))
        loaded = resumed.carry
        assert resumed.pending == 0 and loaded.snap_prev is None
        _assert_carry_equal(
            dataclasses.replace(stream.carry, snap_prev=None), loaded
        )
        if pushes == 5 and name != "EvolveGCN":
            # loaded without a model, then checked against the stream's
            # cell: an identity cell keeps no delta baseline
            buf.seek(0)
            identity = StreamingInference(
                _model(graph, "EvolveGCN"), window_size=WINDOW
            )
            with pytest.raises(ValueError, match="delta baseline"):
                identity.restore_carry(load_checkpoint(buf))
