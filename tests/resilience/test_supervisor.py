"""Tests for supervised streaming: degradation, poison snapshots, and the
chaos campaign on a one-shard, one-tenant cluster."""

import io

import numpy as np
import pytest

from repro.engine import ReferenceEngine, StreamingInference
from repro.graphs import load_dataset
from repro.models import make_model
from repro.resilience import (
    EVENT_FAULTS,
    FaultKind,
    FaultPlan,
    FaultSpec,
    FlakyHBM,
    Incident,
    ResilientStreamingInference,
    RetryPolicy,
    load_checkpoint,
    save_checkpoint,
    with_retry,
)
from repro.serving import run_chaos_campaign

WINDOW = 4
SEED = 3


@pytest.fixture(scope="module")
def graph():
    return load_dataset("GT", num_snapshots=8, seed=SEED)


def _model(graph):
    return make_model("T-GCN", graph.dim, hidden_dim=16, seed=SEED)


def _drain(supervisor, snapshots):
    outs = []
    for snap in snapshots:
        r = supervisor.push(snap.copy())
        if r is not None:
            outs.extend(r.outputs)
    r = supervisor.flush()
    if r is not None:
        outs.extend(r.outputs)
    return outs


class TestIncident:
    def test_field_validation(self):
        with pytest.raises(ValueError, match="window_index"):
            Incident(window_index=-1, step=0, kind="x", action="y")
        with pytest.raises(ValueError, match="step"):
            Incident(window_index=0, step=-1, kind="x", action="y")


class TestFaultFreeTransparency:
    def test_matches_unsupervised_stream_bit_for_bit(self, graph):
        plain = []
        stream = StreamingInference(_model(graph), window_size=WINDOW)
        for snap in graph:
            r = stream.push(snap.copy())
            if r is not None:
                plain.extend(r.outputs)
        r = stream.flush()
        if r is not None:
            plain.extend(r.outputs)

        sup = ResilientStreamingInference(_model(graph), window_size=WINDOW)
        guarded = _drain(sup, list(graph))
        assert len(guarded) == len(plain)
        for a, b in zip(plain, guarded):
            np.testing.assert_array_equal(a, b)
        assert sup.incidents == []
        assert sup.metrics.incidents == 0
        assert sup.metrics.fallback_windows == 0


class TestGracefulDegradation:
    def test_every_window_degraded_equals_reference(self, graph):
        """Fault every window: the whole stream must still be bit-identical
        to the reference engine (skipping disabled by the fallback)."""
        model = _model(graph)
        sup = ResilientStreamingInference(model, window_size=WINDOW)
        plan = FaultPlan([], seed=0)
        outs = []
        for t, snap in enumerate(graph):
            if (t + 1) % WINDOW == 0:  # this push completes a window
                sup.inject_fault(
                    plan.violation(FaultSpec(FaultKind.SANITIZER_VIOLATION, t))
                )
            r = sup.push(snap.copy())
            if r is not None:
                outs.extend(r.outputs)
        sup.inject_fault(
            plan.violation(
                FaultSpec(FaultKind.SANITIZER_VIOLATION, graph.num_snapshots)
            )
        )
        r = sup.flush()
        if r is not None:
            outs.extend(r.outputs)

        ref = ReferenceEngine(
            make_model("T-GCN", graph.dim, hidden_dim=16, seed=SEED),
            window_size=WINDOW,
        ).run(graph)
        assert len(outs) == len(ref.outputs)
        for a, b in zip(ref.outputs, outs):
            np.testing.assert_array_equal(a, b)
        assert sup.metrics.fallback_windows == sup.metrics.windows_processed
        assert sup.metrics.restores == sup.metrics.fallback_windows
        assert all(i.action == "degraded" for i in sup.incidents)
        assert all(i.component == "resilience" for i in sup.incidents)

    def test_stream_continues_after_single_degraded_window(self, graph):
        """A fault in one window must not perturb later fault-free windows."""
        model = _model(graph)
        sup = ResilientStreamingInference(
            model, window_size=WINDOW, enable_skipping=False
        )
        plan = FaultPlan([], seed=0)
        outs = []
        for t, snap in enumerate(graph):
            if t == WINDOW - 1:  # fault only the first window
                sup.inject_fault(
                    plan.violation(FaultSpec(FaultKind.SANITIZER_VIOLATION, t))
                )
            r = sup.push(snap.copy())
            if r is not None:
                outs.extend(r.outputs)
        r = sup.flush()
        if r is not None:
            outs.extend(r.outputs)
        ref = ReferenceEngine(
            make_model("T-GCN", graph.dim, hidden_dim=16, seed=SEED),
            window_size=WINDOW,
        ).run(graph)
        assert sup.metrics.fallback_windows == 1
        for a, b in zip(ref.outputs, outs):
            np.testing.assert_array_equal(a, b)

    def test_degraded_window_records_its_trajectory_entry(self, graph):
        """One trajectory entry per processed window, degraded ones
        included (all-FULL, as ``ReferenceEngine.run`` records them) —
        and every later checkpoint carries the full-length array."""
        sup = ResilientStreamingInference(_model(graph), window_size=WINDOW)
        sup.inject_fault(RuntimeError("injected engine fault"))
        for snap in list(graph)[: 2 * WINDOW]:
            sup.push(snap.copy())
        m = sup.stream.metrics
        assert m.fallback_windows == 1 and m.windows_processed == 2
        assert len(m.window_modes) == m.windows_processed
        ref = ReferenceEngine(_model(graph), window_size=WINDOW).run(graph)
        assert m.window_modes[0] == ref.metrics.window_modes[0]
        buf = io.BytesIO()
        save_checkpoint(sup.stream, buf)
        buf.seek(0)
        loaded = load_checkpoint(buf).metrics
        assert loaded.window_modes == m.window_modes
        assert len(loaded.window_modes) == loaded.windows_processed


class TestPoisonSnapshots:
    def test_rejected_then_clean_redelivery(self, graph):
        sup = ResilientStreamingInference(_model(graph), window_size=WINDOW)
        plan = FaultPlan([], seed=0)
        torn = plan.corrupt_snapshot(
            FaultSpec(FaultKind.TRUNCATED_SNAPSHOT, 0), graph[0]
        )
        assert sup.push(torn) is None
        assert len(sup.dlq) == 1
        assert sup.metrics.dead_letter_events == 1
        assert sup.stream.pending == 0  # position did not advance
        assert sup.push(graph[0].copy()) is None  # buffered, no window yet
        assert sup.stream.pending == 1


def _campaign(graph, plan, window):
    """The chaos driver on a one-shard, one-tenant cluster: one stream."""
    return run_chaos_campaign(
        lambda: _model(graph), graph, plan, num_shards=1, window_size=window
    )


class TestChaosCampaign:
    @pytest.fixture(scope="class")
    def report_and_plan(self, graph):
        plan = FaultPlan.generate(seed=7, num_steps=graph.num_snapshots)
        return _campaign(graph, plan, WINDOW), plan

    def test_all_outputs_released(self, graph, report_and_plan):
        report, _ = report_and_plan
        assert len(report.outputs["tenant-0"]) == graph.num_snapshots
        assert report.identical

    def test_every_fault_accounted(self, report_and_plan):
        report, plan = report_and_plan
        counts = plan.counts()
        n_event = sum(counts.get(k.value, 0) for k in EVENT_FAULTS)
        n_snap = counts.get(FaultKind.TRUNCATED_SNAPSHOT.value, 0)
        n_engine = counts.get(FaultKind.SANITIZER_VIOLATION.value, 0)
        n_storage = counts.get(FaultKind.TRANSIENT_STORAGE.value, 0)
        m = report.metrics
        assert m.dead_letter_events == n_event + n_snap
        assert len(report.dead_letters) == n_event + n_snap
        assert m.fallback_windows == n_engine
        assert m.restores == n_engine
        assert m.retries == n_storage
        assert m.incidents == n_event + n_snap + n_engine
        assert len(report.retry_delays) == n_storage

    def test_campaign_is_deterministic(self, graph, report_and_plan):
        report, plan = report_and_plan
        again = _campaign(graph, plan, WINDOW)
        got, want = again.outputs["tenant-0"], report.outputs["tenant-0"]
        assert len(got) == len(want)
        for a, b in zip(want, got):
            np.testing.assert_array_equal(a, b)
        assert again.metrics.as_dict() == report.metrics.as_dict()
        assert again.retry_delays == report.retry_delays

    def test_degraded_windows_match_reference_positions(
        self, graph, report_and_plan
    ):
        """Outputs of non-degraded windows come from the skipping engine;
        the stream as a whole still covers every timestamp exactly once."""
        report, _ = report_and_plan
        assert all(
            o.shape == (graph.num_vertices, 16)
            for o in report.outputs["tenant-0"]
        )

    def test_summary_renders(self, report_and_plan):
        report, plan = report_and_plan
        text = report.summary()
        assert "chaos campaign report" in text
        assert f"planned faults      : {len(plan)}" in text
        assert "dead-letter reasons:" in text
        assert "sanitizer-violation -> degraded" in text

    def test_heavier_plans_also_complete(self, graph):
        plan = FaultPlan.generate(
            seed=23, num_steps=graph.num_snapshots, per_kind=3
        )
        report = _campaign(graph, plan, 3)
        assert len(report.outputs["tenant-0"]) == graph.num_snapshots
        assert report.metrics.retries == plan.storage_failures()
        assert report.identical


class TestStorageRetrySeam:
    def test_flaky_hbm_retry_reproduces_clean_report(self, graph):
        from repro.accel import TaGNNConfig, TaGNNSimulator

        model = _model(graph)
        sim = TaGNNSimulator(TaGNNConfig(window_size=WINDOW))
        clean = sim.simulate(model, graph, "GT")
        flaky = FlakyHBM(sim.config.hbm(), failures=2)
        report, delays = with_retry(
            lambda: sim.simulate(model, graph, "GT", hbm=flaky),
            policy=RetryPolicy(max_attempts=3, seed=0),
        )
        assert len(delays) == 2
        assert report.cycles == clean.cycles
        assert report.joules == clean.joules
