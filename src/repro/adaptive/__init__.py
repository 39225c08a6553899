"""Runtime adaptive execution planning (ROADMAP item 3).

Dynasparse (PAPERS.md) maps GNN computation onto the kernels the
hardware runs *at runtime* from a measured profile.  This package is the
analogue for the TaGNN reproduction: per window it

1. measures the live workload into a :class:`WindowProfile` (class
   fractions, edge counts, layer shapes — all counts the engine already
   has);
2. consults a :class:`CostModel` — seeded offline by
   :func:`calibrate_cost_model` micro-benchmarks of the PR-6 kernels,
   refined online from exponentially-weighted observed window
   latencies — to pick the propagation kernel (delta-condensed /
   batched spmm, i.e. OADL overlap on or off) and auto-tuned skip
   thresholds :math:`(\\theta_s, \\theta_e)`;
3. emits an :class:`ExecutionPlan` that
   :meth:`ConcurrentEngine.step <repro.engine.ConcurrentEngine.step>`
   executes field for field, with every decision and realized cost
   recorded for audit.

Correctness contract: the kernel choice is **bit-identical by
construction** (both kernels apply the same additions in the same
order — property-tested), and the only accuracy-affecting knob,
:math:`\\theta` auto-tuning, is held inside a configurable drift budget
against the default-threshold pipeline by :class:`AdaptivePlanner`'s
probe/controller loop.
"""

from .calibrate import calibrate_cost_model
from .costmodel import CalibrationTable, CostModel
from .plan import ExecutionPlan, KernelChoice
from .planner import AdaptiveConfig, AdaptivePlanner, PlanRecord, relative_drift
from .profile import WindowProfile, profile_window

__all__ = [
    "AdaptiveConfig",
    "AdaptivePlanner",
    "CalibrationTable",
    "CostModel",
    "ExecutionPlan",
    "KernelChoice",
    "PlanRecord",
    "WindowProfile",
    "calibrate_cost_model",
    "profile_window",
    "relative_drift",
]
