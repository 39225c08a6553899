"""Runtime adaptive execution planning (ROADMAP item 3).

Dynasparse (PAPERS.md) maps GNN computation onto the kernels the
hardware runs *at runtime* from a measured profile.  This package is the
analogue for the TaGNN reproduction: per window it

1. measures the live workload into a :class:`WindowProfile` (class
   fractions, edge counts, layer shapes — all counts the engine already
   has);
2. picks the kernel (delta-condensed / batched spmm, i.e. OADL overlap
   on or off) by one rule on the profile's changed share, and
   auto-tuned skip thresholds :math:`(\\theta_s, \\theta_e)` from the
   drift-probe controller;
3. emits an :class:`ExecutionPlan` for
   :meth:`ConcurrentEngine.step <repro.engine.ConcurrentEngine.step>`,
   with every decision, a :class:`CostModel` prediction (seeded by
   :func:`calibrate_cost_model` micro-benchmarks) and the realized
   latency recorded for audit — no decision reads a clock.  The host
   runs one GNN kernel whichever is chosen: the kernel moves only what
   the counters count, and the thresholds gate the cells.

Correctness contract: the kernel choice changes no output bit (one
GNN kernel runs either way), and the only accuracy-affecting knob,
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
