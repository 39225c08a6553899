"""The adaptive correctness contract, property-tested.

Four parts:

* **a plan is what the engine executes** — ``ExecutionPlan`` has two
  decision fields and each one moves a counter of one ``step``; a field
  nothing executes fails here.
* **bit-identity by construction** — whichever kernel the planner
  picks, the outputs are *exactly* the static pipeline's (both kernels
  apply the same additions in the same order).  Only thresholds may
  change results.
* **bounded drift** — the one accuracy-affecting knob, auto-tuned
  :math:`(\\theta_s, \\theta_e)`, stays inside the configured drift
  budget at every probe, and a zero budget degenerates to the exact
  default-threshold pipeline.
* **a plan is a function of its window** — the kernel follows the
  profile's changed share, and a clock running ten times faster changes
  no plan; observed latency is audit only.
"""

from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.adaptive import (
    AdaptiveConfig,
    AdaptivePlanner,
    ExecutionPlan,
    KernelChoice,
    relative_drift,
)
from repro.adaptive.planner import RECOMPUTE_SHARE
from repro.analysis import classify_window
from repro.engine import (
    Carry,
    ConcurrentEngine,
    ExecutionMetrics,
    StreamingInference,
)
from repro.formats import FORMATS, WindowSelection
from repro.graphs import (
    ChurnConfig,
    DynamicGraph,
    DynamicGraphSpec,
    generate_dynamic_graph,
    load_dataset,
)
from repro.models import make_model
from repro.skipping import SkipThresholds

from ..storage import all_edges

SEED = 3


def random_graph(seed, n=60, t=6, churn_scale=1.0):
    return generate_dynamic_graph(
        DynamicGraphSpec(
            name="adaptive-prop",
            num_vertices=n,
            num_edges=180,
            dim=6,
            num_snapshots=t,
            churn=ChurnConfig().scaled(churn_scale),
            seed=seed,
        )
    )


def churn_step_graph(windows=4):
    """``windows`` windows at churn x0.1, then ``windows`` at x3.0 — two
    graphs' snapshots spliced at a window boundary (classification reads
    one window at a time, so the splice is never compared)."""
    cut = 4 * windows
    low, high = (
        random_graph(SEED, t=2 * cut, churn_scale=c) for c in (0.1, 3.0)
    )
    return DynamicGraph(
        low.snapshots[:cut] + high.snapshots[cut:], name="churn-step"
    )


class _FakeClock:
    """``time.perf_counter`` stand-in: the n-th read advances the time
    by n ticks, so no two intervals of one window are equal."""

    def __init__(self, tick):
        self.tick = tick
        self.reads = []

    def __call__(self):
        last = self.reads[-1] if self.reads else 0.0
        self.reads.append(last + self.tick * (len(self.reads) + 1))
        return self.reads[-1]


def run_planned(model, graph, plan, window=4):
    """A fold of ``ConcurrentEngine.step`` running every window under
    ``plan``."""
    engine = ConcurrentEngine(model, window_size=window)
    carry, m, outs = Carry(window_size=window), ExecutionMetrics(), []
    for start in range(0, graph.num_snapshots, window):
        w = graph.window(start, min(window, graph.num_snapshots - start))
        carry, got = engine.step(carry, w, classify_window(w), plan, m)
        outs.extend(got)
    return outs


def run_stream(model, graph, planner=None, window=4):
    stream = StreamingInference(model, window_size=window, planner=planner)
    outs = []
    for snap in graph:
        r = stream.push(snap)
        if r is not None:
            outs.extend(r.outputs)
    r = stream.flush()
    if r is not None:
        outs.extend(r.outputs)
    return outs, stream


class TestPlanIsWhatTheEngineExecutes:
    def test_every_decision_field_moves_a_step_counter(self):
        """The axis list, kept honest: two decision fields plus the
        audit trail, and one ``step`` of a fixed low-churn window counts
        differently under each value of each decision."""
        assert {f.name for f in fields(ExecutionPlan)} == {
            "kernel", "thresholds", "expected_kernel_seconds", "reasons",
        }
        graph = random_graph(SEED, t=4, churn_scale=0.5)
        window = graph.window(0, 4)
        cls = classify_window(window)
        assert cls.counts()["unaffected"] > 0  # reuse has rows to act on

        def counters(kernel, thresholds):
            m = ExecutionMetrics()
            # a plan is an argument of one step
            ConcurrentEngine(
                make_model("T-GCN", graph.dim, 8, seed=SEED), window_size=4
            ).step(
                Carry(window_size=4), window, cls,
                ExecutionPlan(kernel, thresholds), m,
            )
            return m

        cfg = AdaptiveConfig()  # the controller's a = 0 and a = 1 ends
        default = SkipThresholds()
        aggressive = SkipThresholds(cfg.theta_s_min, cfg.theta_e_min)
        delta = counters(KernelChoice.DELTA_CONDENSED, default)
        spmm = counters(KernelChoice.BATCHED_SPMM, default)
        assert delta.aggregation_macs < spmm.aggregation_macs
        assert delta.cells_skipped == spmm.cells_skipped
        eager = counters(KernelChoice.DELTA_CONDENSED, aggressive)
        assert eager.cells_skipped > delta.cells_skipped
        assert eager.aggregation_macs == delta.aggregation_macs


class TestKernelBitIdentity:
    @given(
        seed=st.integers(min_value=0, max_value=5_000),
        model_name=st.sampled_from(["T-GCN", "CD-GCN", "GC-LSTM"]),
        kernel=st.sampled_from(list(KernelChoice)),
        churn=st.floats(min_value=0.3, max_value=2.5),
    )
    @settings(max_examples=24, deadline=None)
    def test_forced_kernel_matches_static_engine(
        self, seed, model_name, kernel, churn
    ):
        """Any kernel a plan can name yields the static engine's
        outputs bit-for-bit, for arbitrary random workloads."""
        g = random_graph(seed, churn_scale=churn)
        static = ConcurrentEngine(
            make_model(model_name, g.dim, 8, seed=seed), window_size=4
        ).run(g)
        planned = run_planned(
            make_model(model_name, g.dim, 8, seed=seed),
            g,
            ExecutionPlan(kernel, SkipThresholds()),
        )
        assert len(planned) == len(static.outputs) == g.num_snapshots
        for a, b in zip(static.outputs, planned):
            np.testing.assert_array_equal(a, b)

    @given(
        seed=st.integers(min_value=0, max_value=2_000),
        kernel=st.sampled_from(list(KernelChoice)),
    )
    @settings(max_examples=9, deadline=None)
    def test_forced_kernel_matches_static_streaming(
        self, forced_planner, seed, kernel
    ):
        g = random_graph(seed)
        static, _ = run_stream(make_model("T-GCN", g.dim, 8, seed=seed), g)
        adaptive, _ = run_stream(
            make_model("T-GCN", g.dim, 8, seed=seed),
            g,
            planner=forced_planner(kernel),
        )
        assert len(static) == len(adaptive) == g.num_snapshots
        for a, b in zip(static, adaptive):
            np.testing.assert_array_equal(a, b)

    def test_untuned_planner_is_bit_identical_end_to_end(self):
        """Free kernel choice with a zero drift budget (threshold tuning
        off): the planner may reorder *work*, never *results*."""
        g = load_dataset("GT", num_snapshots=10, seed=SEED)
        static, _ = run_stream(make_model("T-GCN", g.dim, 16, seed=SEED), g)
        planner = AdaptivePlanner(AdaptiveConfig(drift_budget=0.0))
        adaptive, stream = run_stream(
            make_model("T-GCN", g.dim, 16, seed=SEED), g, planner=planner
        )
        for a, b in zip(static, adaptive):
            np.testing.assert_array_equal(a, b)
        assert len(planner.records) == stream.metrics.windows_processed


class TestStorageContentIdentity:
    @given(seed=st.integers(min_value=0, max_value=5_000))
    @settings(max_examples=10, deadline=None)
    def test_all_formats_hold_identical_content(self, seed):
        """Every Fig. 13(b) format returns the same canonical edge
        set."""
        g = random_graph(seed, t=4)
        rng = np.random.default_rng(seed)
        sources = np.unique(
            rng.choice(g.num_vertices, size=20, replace=False)
        )
        sel = WindowSelection(g.window(0, 4), sources)
        edges = {
            name: all_edges(cls(sel)) for name, cls in FORMATS.items()
        }
        ref = edges["O-CSR"]
        for name, e in edges.items():
            np.testing.assert_array_equal(e, ref)


class TestBoundedDrift:
    def _tuned_vs_default(self, budget, snapshots=16):
        g = load_dataset("GT", num_snapshots=snapshots, seed=SEED)
        default, _ = run_stream(make_model("T-GCN", g.dim, 16, seed=SEED), g)
        planner = AdaptivePlanner(AdaptiveConfig(drift_budget=budget))
        tuned, _ = run_stream(
            make_model("T-GCN", g.dim, 16, seed=SEED), g, planner=planner
        )
        return default, tuned, planner

    def test_probed_drift_never_exceeds_budget_unanswered(self):
        """Every probe's measured drift is either within budget or the
        controller retreated — and on this workload the tuned stream
        stays within budget at every probe."""
        default, tuned, planner = self._tuned_vs_default(budget=0.02)
        assert planner.probes_done >= 2
        assert planner.max_observed_drift <= planner.config.drift_budget
        # thresholds actually moved (the test would be vacuous otherwise)
        assert planner.aggressiveness > 0.0
        # end-to-end divergence stays small (a few multiples of the
        # per-window budget — windows compound through carried state)
        assert relative_drift(default, tuned) <= 10 * 0.02

    def test_zero_budget_is_bit_identical(self):
        default, tuned, planner = self._tuned_vs_default(budget=0.0)
        assert planner.aggressiveness == 0.0
        for a, b in zip(default, tuned):
            np.testing.assert_array_equal(a, b)

    def test_drift_recorded_in_metrics(self):
        g = load_dataset("GT", num_snapshots=12, seed=SEED)
        planner = AdaptivePlanner()
        _, stream = run_stream(
            make_model("T-GCN", g.dim, 16, seed=SEED), g, planner=planner
        )
        assert stream.metrics.drift_probes == planner.probes_done
        assert len(planner.records) == stream.metrics.windows_processed


class TestPlanBookkeeping:
    def test_window_mode_trajectory_matches_totals(self):
        """A window's counters are its push's ``StreamResult.metrics``;
        merged over the stream's windows they are the stream's totals."""
        g = load_dataset("GT", num_snapshots=8, seed=SEED)
        planner = AdaptivePlanner(AdaptiveConfig(drift_budget=0.0))
        stream = StreamingInference(
            make_model("T-GCN", g.dim, 16, seed=SEED),
            window_size=4,
            planner=planner,
        )
        results = [r for r in map(stream.push, g) if r is not None]
        assert len(results) == stream.metrics.windows_processed == 2
        total = ExecutionMetrics()
        for r in results:
            assert r.metrics.windows_processed == 1
            total = total.merge(r.metrics)
        assert total == stream.metrics
        assert total.cells_full + total.cells_delta + total.cells_skipped


class TestKernelRule:
    def test_kernel_switches_where_the_changed_share_crosses(self):
        g = churn_step_graph()
        planner = AdaptivePlanner(AdaptiveConfig(drift_budget=0.0))
        run_stream(make_model("CD-GCN", g.dim, 8, seed=SEED), g, planner)
        shares = [rec.profile.changed_frac for rec in planner.records]
        assert max(shares[:4]) < RECOMPUTE_SHARE <= min(shares[4:])
        assert [rec.plan.kernel for rec in planner.records] == (
            [KernelChoice.DELTA_CONDENSED] * 4 + [KernelChoice.BATCHED_SPMM] * 4
        )
        assert planner.kernel_switches == 1


class TestPlansIgnoreTheClock:
    def _planned(self, monkeypatch, tick):
        monkeypatch.setattr(
            "repro.engine.streaming.time.perf_counter", _FakeClock(tick)
        )
        g = churn_step_graph()
        planner = AdaptivePlanner()
        outputs, _ = run_stream(
            make_model("CD-GCN", g.dim, 8, seed=SEED), g, planner
        )
        return planner, outputs

    def test_a_ten_times_faster_clock_changes_no_plan(self, monkeypatch):
        slow, slow_out = self._planned(monkeypatch, 1e-3)
        fast, fast_out = self._planned(monkeypatch, 1e-2)

        def decisions(planner):
            return [(r.plan.kernel, r.plan.thresholds) for r in planner.records]

        assert decisions(slow) == decisions(fast)
        assert slow.kernel_switches == fast.kernel_switches == 1
        # not vacuous: both kernels ran and the thresholds moved
        assert {k for k, _ in decisions(slow)} == set(KernelChoice)
        assert len({t for _, t in decisions(slow)}) > 1
        # the clock did reach the audit trail, ten times faster
        for a, b in zip(slow.records, fast.records):
            assert b.observed_seconds == pytest.approx(10 * a.observed_seconds)
        for a, b in zip(slow_out, fast_out):
            np.testing.assert_array_equal(a, b)

    def test_probe_window_records_the_committed_latency(self, monkeypatch):
        """A probe replays the window before committing it; only the
        committed ``step`` is timed, so every window reads the clock
        twice and its record keeps that interval, not the replay's or
        the sum."""
        clock = _FakeClock(1e-3)
        monkeypatch.setattr("repro.engine.streaming.time.perf_counter", clock)
        steps = []
        step = ConcurrentEngine.step

        def counted_step(self, *args, **kwargs):
            steps.append(len(clock.reads))
            return step(self, *args, **kwargs)

        monkeypatch.setattr(ConcurrentEngine, "step", counted_step)
        g = churn_step_graph()
        planner = AdaptivePlanner()
        stream = StreamingInference(
            make_model("CD-GCN", g.dim, 8, seed=SEED),
            window_size=4,
            planner=planner,
        )
        replayed = 0
        for snap in g:
            before, calls = len(clock.reads), len(steps)
            if stream.push(snap) is None:
                continue
            reads = clock.reads[before:]
            assert len(reads) == 2
            rec = planner.records[-1]
            assert rec.observed_seconds == reads[1] - reads[0]
            if len(steps) - calls == 2:  # the probe's replay ran first
                replayed += 1
                assert rec.drift is not None
                assert rec.plan.thresholds != SkipThresholds()
                assert steps[-2] == before  # before the clock started
            else:
                assert len(steps) - calls == 1
        assert replayed >= 1
