"""Unit tests for the planner: controller, exploration, probe schedule."""

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
from repro.analysis import classify_window
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
            {"ewma_alpha": 0.0},
            {"ewma_alpha": 1.5},
            {"explore_margin": -1.0},
            {"explore_min_obs": -1},
            {"theta_s_min": 0.0},  # must be <= default theta_s (-0.5)
            {"theta_s_min": -1.5},
            {"theta_e_min": 0.9},  # must be <= default theta_e (+0.5)
            {"theta_e_min": -1.5},
            {"max_probes": -1},
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

    def test_tuning_disabled_pins_defaults(self):
        planner = AdaptivePlanner(AdaptiveConfig(tune_thresholds=False))
        planner._aggressiveness = 1.0
        assert planner.thresholds() == SkipThresholds()

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
        planner = AdaptivePlanner(AdaptiveConfig(tune_thresholds=False))
        for _ in range(10):
            planner.plan(profile)
            assert not planner.wants_probe()


class TestKernelSelection:
    def _observed(self, mapping, **cfg_kw):
        cfg = AdaptiveConfig(explore_min_obs=0, **cfg_kw)
        planner = AdaptivePlanner(cfg)
        for kernel, seconds in mapping.items():
            planner.cost_model.observe(kernel, seconds)
        return planner

    def test_argmin_of_observed_latency(self, profile):
        planner = self._observed(
            {
                KernelChoice.DELTA_CONDENSED: 0.030,
                KernelChoice.BATCHED_SPMM: 0.010,
            }
        )
        plan = planner.plan(profile)
        assert plan.kernel is KernelChoice.BATCHED_SPMM

    def test_exploration_revisits_under_observed_kernels(self, profile):
        """A candidate with fewer than ``explore_min_obs`` samples and a
        near-best prediction gets picked over the current argmin."""
        cfg = AdaptiveConfig(explore_min_obs=1, explore_margin=1000.0)
        planner = AdaptivePlanner(cfg)
        first = planner.plan(profile).kernel
        planner.cost_model.observe(first, 1e-4)  # observed once, now best
        second = planner.plan(profile).kernel
        assert second is not first  # explored, not exploited
        assert any("exploring" in r for r in planner.records[-1].plan.reasons)

    def test_kernel_switches_counted(self, profile):
        planner = self._observed({KernelChoice.BATCHED_SPMM: 1e-6})
        planner.plan(profile)
        assert planner.kernel_switches == 0
        planner.cost_model.observe(KernelChoice.DELTA_CONDENSED, 1e-9)
        planner.plan(profile)
        assert planner.kernel_switches == 1

    def test_choice_disabled_is_static(self, profile):
        planner = AdaptivePlanner(AdaptiveConfig(choose_kernel=False))
        plan = planner.plan(profile)
        assert plan.kernel is KernelChoice.DELTA_CONDENSED


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
