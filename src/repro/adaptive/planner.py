"""The per-window execution planner.

:class:`AdaptivePlanner` turns a :class:`WindowProfile` into an
:class:`ExecutionPlan`:

* **kernel** — one rule on the profile (:meth:`AdaptivePlanner.kernel_for`):
  full recompute (``batched-spmm``) once at least
  :data:`RECOMPUTE_SHARE` of the window's vertices changed, OADL
  changed-set reuse (``delta-condensed``) below it.  No clock is read:
  the same window always gets the same kernel.
* **thresholds** — :math:`(\\theta_s, \\theta_e)` interpolated between
  the paper's defaults and the configured aggressive bounds by an
  *aggressiveness* scalar ``a ∈ [0, 1]``.  ``a`` moves under a
  drift-probe controller: the engine periodically replays a window at
  the default thresholds (via carry-state checkpoint/rollback) and
  reports the relative output divergence; drift comfortably under the
  budget raises ``a``, drift over budget slashes it.  The budget is a
  hard configuration knob — auto-tuning can never push divergence past
  it unnoticed, because the probes that raise ``a`` are the same
  mechanism that measures the divergence.

The planner's only state across windows is the threshold controller
(aggressiveness, probes done) and the audit trail; ``plan()`` is a pure
function of the profile and that state, so a plan can be recomputed and
explained offline.  Observed window latency is recorded on the
:class:`PlanRecord` for audit and read by no decision.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..check.shapes import contract
from ..skipping.policy import SkipThresholds
from .costmodel import CostModel
from .plan import ExecutionPlan, KernelChoice
from .profile import WindowProfile

__all__ = [
    "AdaptiveConfig",
    "AdaptivePlanner",
    "PlanRecord",
    "RECOMPUTE_SHARE",
    "relative_drift",
]

_DEFAULTS = SkipThresholds()

#: Changed share (``WindowProfile.changed_frac``) at or above which a
#: window runs ``batched-spmm`` instead of ``delta-condensed``.  Batched
#: ÷ delta stream time on the GT generator at churn ×0.1 / ×0.25 / ×1 /
#: ×3 (changed share 0.21 / 0.56 / 0.98 / 1.00), two seeds: CD-GCN
#: 1.00–1.01 / 0.96–0.97 / 0.93 / 0.94–0.96, GC-LSTM 1.06–1.13 /
#: 0.99–1.00 / 0.93 / 0.95, T-GCN 1.18 / 1.03–1.05 / 0.96–0.97 / 0.96 —
#: reuse wins only where most rows are reusable, because past layer 1
#: the changed set's closure is the whole graph (docs/performance.md,
#: "The kernel is the profile's call", has the method and every cell).
RECOMPUTE_SHARE = 0.5


@contract("_, _ -> float")
def relative_drift(baseline: list, outputs: list) -> float:
    """Relative L1 divergence between two output trajectories — the
    quantity the drift budget bounds (tuned vs default-threshold run of
    the *same* window from the *same* carried state)."""
    num = 0.0
    den = 0.0
    for a, b in zip(baseline, outputs):
        num += float(np.abs(np.asarray(a) - np.asarray(b)).sum())
        den += float(np.abs(np.asarray(a)).sum())
    if den == 0.0:
        return 0.0 if num == 0.0 else float("inf")
    return num / den


@dataclass(frozen=True)
class AdaptiveConfig:
    """Threshold-controller knobs; everything defaults to the
    safe/productive middle."""

    #: hard bound on relative output divergence vs the default-threshold
    #: pipeline (measured by drift probes; see
    #: :meth:`AdaptivePlanner.observe_drift`) — 0 pins the defaults
    drift_budget: float = 0.02
    #: probes run at exponentially-spaced planner windows (2, 4, 8, ...)
    #: up to this many — overhead decays to zero on long streams
    max_probes: int = 6
    #: aggressive ends of the threshold interpolation (defaults are the
    #: paper's Fig. 14(a) optimum, these are the far ends the controller
    #: may approach at a = 1)
    theta_e_min: float = 0.2
    theta_s_min: float = -0.8
    #: controller step size for the aggressiveness scalar
    aggressiveness_step: float = 0.25

    def __post_init__(self) -> None:
        if self.drift_budget < 0.0:
            raise ValueError(f"drift_budget must be >= 0, got {self.drift_budget}")
        if not -1.0 <= self.theta_s_min <= _DEFAULTS.theta_s:
            raise ValueError(
                f"theta_s_min must lie in [-1, {_DEFAULTS.theta_s}],"
                f" got {self.theta_s_min}"
            )
        if not _DEFAULTS.theta_e >= self.theta_e_min >= -1.0:
            raise ValueError(
                f"theta_e_min must lie in [-1, {_DEFAULTS.theta_e}],"
                f" got {self.theta_e_min}"
            )
        if self.max_probes < 0:
            raise ValueError("max_probes must be >= 0")


@dataclass
class PlanRecord:
    """One planned window: the decision, its inputs, and what happened."""

    window_index: int
    plan: ExecutionPlan
    profile: WindowProfile
    observed_seconds: float | None = None
    drift: float | None = None


class AdaptivePlanner:
    """Stateful per-window planner (share one instance per stream/run)."""

    def __init__(
        self,
        config: AdaptiveConfig | None = None,
        cost_model: CostModel | None = None,
    ):
        self.config = config or AdaptiveConfig()
        self.cost_model = cost_model or CostModel()
        self.records: list[PlanRecord] = []
        self.kernel_switches = 0
        self.max_observed_drift = 0.0
        self._window_index = 0
        self._last_kernel: KernelChoice | None = None
        self._aggressiveness = 0.0
        self._probes_done = 0

    # ------------------------------------------------------------------
    # threshold controller
    # ------------------------------------------------------------------
    @property
    def aggressiveness(self) -> float:
        return self._aggressiveness

    @property
    def probes_done(self) -> int:
        return self._probes_done

    def thresholds(self) -> SkipThresholds:
        """Current auto-tuned thresholds: defaults at a = 0, the
        configured aggressive bounds at a = 1."""
        a = self._aggressiveness
        return SkipThresholds(
            theta_s=_DEFAULTS.theta_s
            + a * (self.config.theta_s_min - _DEFAULTS.theta_s),
            theta_e=_DEFAULTS.theta_e
            + a * (self.config.theta_e_min - _DEFAULTS.theta_e),
        )

    def wants_probe(self) -> bool:
        """True when the window just planned should be drift-probed
        (call after :meth:`plan`).

        Probes sit at exponentially-spaced planned-window counts
        (2, 4, 8, …): early windows establish whether aggression is
        safe, and the probe overhead (one extra window execution each)
        decays to zero on long streams.
        """
        if self._probes_done >= self.config.max_probes:
            return False
        return self._window_index >= 2 ** (self._probes_done + 1)

    def observe_drift(self, drift: float) -> None:
        """Feed one probe's measured divergence into the controller."""
        self._probes_done += 1
        drift = float(drift)
        self.max_observed_drift = max(self.max_observed_drift, drift)
        if self.records:
            self.records[-1].drift = drift
        cfg = self.config
        if drift > cfg.drift_budget:
            # over budget: retreat hard — halve, then step down
            self._aggressiveness = max(
                0.0, self._aggressiveness / 2.0 - cfg.aggressiveness_step
            )
        elif drift <= 0.5 * cfg.drift_budget and cfg.drift_budget > 0.0:
            # a zero budget means "never leave the defaults": the
            # bootstrap probe's free 0.0 must not count as headroom
            self._aggressiveness = min(
                1.0, self._aggressiveness + cfg.aggressiveness_step
            )
        # drift in (budget/2, budget]: hold position

    # ------------------------------------------------------------------
    # planning
    # ------------------------------------------------------------------
    def kernel_for(self, profile: WindowProfile) -> KernelChoice:
        """The kernel rule: full recompute once the changed share reaches
        :data:`RECOMPUTE_SHARE`, changed-set reuse below it."""
        if profile.changed_frac >= RECOMPUTE_SHARE:
            return KernelChoice.BATCHED_SPMM
        return KernelChoice.DELTA_CONDENSED

    def plan(self, profile: WindowProfile) -> ExecutionPlan:
        kernel = self.kernel_for(profile)
        reasons = [
            f"kernel {kernel.value}: changed share"
            f" {profile.changed_frac:.3f} (recompute at >= {RECOMPUTE_SHARE})"
        ]

        thresholds = self.thresholds()
        if self._aggressiveness > 0.0:
            reasons.append(
                f"thresholds at aggressiveness {self._aggressiveness:.2f}"
                f" (max probed drift {self.max_observed_drift:.4f}"
                f" <= budget {self.config.drift_budget})"
            )

        plan = ExecutionPlan(
            kernel=kernel,
            thresholds=thresholds,
            expected_kernel_seconds={
                k.value: self.cost_model.predict_kernel_seconds(profile, k)
                for k in KernelChoice
            },
            reasons=tuple(reasons),
        )
        if self._last_kernel is not None and kernel is not self._last_kernel:
            self.kernel_switches += 1
        self._last_kernel = kernel
        self.records.append(
            PlanRecord(window_index=self._window_index, plan=plan, profile=profile)
        )
        self._window_index += 1
        return plan

    def observe(self, plan: ExecutionPlan, seconds: float) -> None:
        """Record one executed plan's realized latency on its
        :class:`PlanRecord` (audit only: no decision reads it).  Only the
        record holding this very ``plan`` object is written, so a drift
        probe's replay — a copy made by ``dataclasses.replace`` — records
        nothing."""
        for rec in reversed(self.records):
            if rec.plan is plan:
                rec.observed_seconds = float(seconds)
                break

    # ------------------------------------------------------------------
    def explain(self) -> str:
        """Multi-window audit: one line per planned window plus the
        latest plan's full rationale."""
        if not self.records:
            return "no windows planned yet"
        lines = []
        for rec in self.records:
            obs = (
                f"{rec.observed_seconds * 1e3:8.2f} ms"
                if rec.observed_seconds is not None
                else "   (unobserved)"
            )
            drift = (
                f"  drift={rec.drift:.4f}" if rec.drift is not None else ""
            )
            lines.append(
                f"window {rec.window_index:3d}: {rec.plan.kernel.value:16s}"
                f" theta=({rec.plan.thresholds.theta_s:+.2f},"
                f"{rec.plan.thresholds.theta_e:+.2f})"
                f" {obs}{drift}"
            )
        lines.append("")
        lines.append("latest plan:")
        lines.append(self.records[-1].plan.explain())
        lines.append(
            f"kernel switches: {self.kernel_switches};"
            f" probes: {self._probes_done};"
            f" max drift: {self.max_observed_drift:.5f}"
            f" (budget {self.config.drift_budget})"
        )
        return "\n".join(lines)
