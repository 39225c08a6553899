"""Unit tests for the planner: kernel rule, controller, probe schedule."""

from dataclasses import replace

import numpy as np
import pytest

from repro.adaptive import (
    AdaptiveConfig,
    AdaptivePlanner,
    CostModel,
    KernelChoice,
    profile_window,
    relative_drift,
)
from repro.adaptive.planner import RECOMPUTE_SHARE
from repro.analysis import classify_window
from repro.engine import ConcurrentEngine, ExecutionMetrics
from repro.graphs import load_dataset
from repro.models import make_model
from repro.skipping import SkipThresholds


@pytest.fixture(scope="module")
def profile():
    graph = load_dataset("GT", num_snapshots=8, seed=3)
    window = graph.window(0, 4)
    model = make_model("T-GCN", graph.dim, 16, seed=3)
    return profile_window(window, classify_window(window), model)


class TestConfigValidation:
    def test_defaults_valid(self):
        AdaptiveConfig()

    @pytest.mark.parametrize(
        "kw",
        [
            {"drift_budget": -0.1},
            {"theta_s_min": 0.0},  # must be <= default theta_s (-0.5)
            {"theta_s_min": -1.5},
            {"theta_e_min": 0.9},  # must be <= default theta_e (+0.5)
            {"theta_e_min": -1.5},
            {"max_probes": -1},
            # a NaN bound fails every comparison: the range checks must
            # be written so that this rejects rather than passes
            {"theta_s_min": float("nan")},
            {"theta_e_min": float("nan")},
        ],
    )
    def test_bad_values_rejected(self, kw):
        with pytest.raises(ValueError):
            AdaptiveConfig(**kw)


class TestThresholdController:
    def test_defaults_at_zero_aggressiveness(self):
        planner = AdaptivePlanner()
        assert planner.aggressiveness == 0.0
        assert planner.thresholds() == SkipThresholds()

    def test_full_aggressiveness_hits_the_bounds(self):
        planner = AdaptivePlanner()
        planner._aggressiveness = 1.0
        thr = planner.thresholds()
        assert thr.theta_s == pytest.approx(planner.config.theta_s_min)
        assert thr.theta_e == pytest.approx(planner.config.theta_e_min)

    def test_tuning_disabled_pins_defaults(self, profile):
        """A zero budget is tuning switched off: across the whole probe
        schedule every plan carries the default thresholds."""
        planner = AdaptivePlanner(AdaptiveConfig(drift_budget=0.0))
        for _ in range(70):  # probes at 2, 4, …, 64
            assert planner.plan(profile).thresholds == SkipThresholds()
            if planner.wants_probe():
                planner.observe_drift(0.0)
        assert planner.probes_done == planner.config.max_probes

    def test_low_drift_raises_aggressiveness(self):
        planner = AdaptivePlanner()
        planner.observe_drift(0.0)
        assert planner.aggressiveness == pytest.approx(0.25)
        planner.observe_drift(0.001)  # <= budget/2
        assert planner.aggressiveness == pytest.approx(0.5)

    def test_over_budget_retreats_hard(self):
        planner = AdaptivePlanner()
        planner._aggressiveness = 1.0
        planner.observe_drift(0.05)  # budget is 0.02
        assert planner.aggressiveness == pytest.approx(0.25)
        planner.observe_drift(0.05)
        assert planner.aggressiveness == 0.0
        assert planner.max_observed_drift == pytest.approx(0.05)

    def test_near_budget_holds(self):
        planner = AdaptivePlanner()
        planner._aggressiveness = 0.5
        planner.observe_drift(0.015)  # in (budget/2, budget]
        assert planner.aggressiveness == pytest.approx(0.5)

    def test_zero_budget_never_tunes(self):
        planner = AdaptivePlanner(AdaptiveConfig(drift_budget=0.0))
        planner.observe_drift(0.0)
        planner.observe_drift(0.0)
        assert planner.aggressiveness == 0.0
        assert planner.thresholds() == SkipThresholds()


class TestProbeSchedule:
    def _plan_n(self, planner, profile, n):
        for _ in range(n):
            planner.plan(profile)

    def test_exponential_spacing(self, profile):
        planner = AdaptivePlanner()
        fired_at = []
        for i in range(1, 40):
            planner.plan(profile)
            if planner.wants_probe():
                fired_at.append(i)
                planner.observe_drift(0.015)  # hold: isolates the schedule
        assert fired_at == [2, 4, 8, 16, 32]

    def test_max_probes_caps_the_schedule(self, profile):
        planner = AdaptivePlanner(AdaptiveConfig(max_probes=2))
        fired = 0
        for _ in range(40):
            planner.plan(profile)
            if planner.wants_probe():
                fired += 1
                planner.observe_drift(0.0)
        assert fired == 2
        assert planner.probes_done == 2

    def test_no_probes_when_tuning_disabled(self, profile):
        planner = AdaptivePlanner(AdaptiveConfig(max_probes=0))
        for _ in range(10):
            planner.plan(profile)
            assert not planner.wants_probe()


def _with_changed(profile, changed):
    return replace(
        profile,
        unaffected_frac=1.0 - changed,
        stable_frac=changed,
        affected_frac=0.0,
    )


class TestKernelSelection:
    def test_changed_share_threshold_picks_the_kernel(self, profile):
        assert RECOMPUTE_SHARE == 0.5
        planner = AdaptivePlanner()
        low = planner.plan(_with_changed(profile, 0.49))
        high = planner.plan(_with_changed(profile, 0.50))
        assert low.kernel is KernelChoice.DELTA_CONDENSED
        assert high.kernel is KernelChoice.BATCHED_SPMM
        assert "changed share 0.490" in low.reasons[0]

    def test_expectations_are_the_closed_form(self, profile):
        """Every plan carries the calibrated prediction for each kernel,
        whatever latencies were recorded before it."""
        planner = AdaptivePlanner()
        planner.observe(planner.plan(profile), 123.0)
        plan = planner.plan(profile)
        model = CostModel()
        assert plan.expected_kernel_seconds == {
            k.value: model.predict_kernel_seconds(profile, k)
            for k in KernelChoice
        }

    def test_kernel_switches_counted(self, profile):
        planner = AdaptivePlanner()
        planner.plan(_with_changed(profile, 0.9))
        planner.plan(_with_changed(profile, 0.8))
        assert planner.kernel_switches == 0
        planner.plan(_with_changed(profile, 0.1))
        assert planner.kernel_switches == 1

    def test_choice_disabled_is_static(self):
        """No planner is the static pipeline: no window is planned."""
        graph = load_dataset("GT", num_snapshots=4, seed=3)
        window = graph.window(0, 4)
        engine = ConcurrentEngine(make_model("T-GCN", graph.dim, 16, seed=3))
        m = ExecutionMetrics()
        assert engine.plan_window(m, window, classify_window(window)) is None
        assert m.windows_planned == 0


class TestAudit:
    def test_explain_lists_every_window(self, profile):
        planner = AdaptivePlanner()
        assert planner.explain() == "no windows planned yet"
        for _ in range(3):
            plan = planner.plan(profile)
            planner.observe(plan, 0.012)
        text = planner.explain()
        assert "window   0" in text and "window   2" in text
        assert "12.00 ms" in text
        assert "latest plan:" in text

    def test_plan_as_dict_serializable(self, profile):
        import json

        plan = AdaptivePlanner().plan(profile)
        json.dumps(plan.as_dict())
        assert plan.as_dict()["kernel"] == plan.kernel.value
        assert plan.explain()  # non-empty rationale text


class TestRelativeDrift:
    def test_identical_is_zero(self):
        x = [np.ones((3, 2)), np.full((3, 2), 2.0)]
        assert relative_drift(x, [a.copy() for a in x]) == 0.0

    def test_scales_with_divergence(self):
        base = [np.ones((2, 2))]
        assert relative_drift(base, [np.full((2, 2), 1.1)]) == pytest.approx(
            0.1
        )

    def test_zero_baseline(self):
        z = [np.zeros((2, 2))]
        assert relative_drift(z, [np.zeros((2, 2))]) == 0.0
        assert relative_drift(z, [np.ones((2, 2))]) == float("inf")
