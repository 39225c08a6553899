"""Runtime sparsity-adaptive execution planning (ROADMAP item 3).

Dynasparse (PAPERS.md) maps GNN computation to dense/sparse kernels *at
runtime* from measured sparsity; AutoGNN argues the storage/layout
decision should be cost-model-driven.  This package is the analogue for
the TaGNN reproduction: per window it

1. measures the live workload into a :class:`WindowProfile`
   (affected-subgraph density, event churn, feature sparsity — all from
   quantities the engine already computes);
2. consults a :class:`CostModel` — seeded offline by
   :func:`calibrate_cost_model` micro-benchmarks of the PR-6 kernels,
   refined online from exponentially-weighted observed window
   latencies — to pick the storage format (DENSE / CSR / O-CSR / PMA),
   the propagation kernel (batched spmm / dense gemm / delta-condensed)
   and auto-tuned skip thresholds :math:`(\\theta_s, \\theta_e)`;
3. emits an :class:`ExecutionPlan` that
   :class:`~repro.engine.streaming.StreamingInference` executes, with
   every decision and realized cost recorded for audit.

Correctness contract: format and kernel choices are **bit-identical by
construction** (all kernels apply the same additions in the same order;
all formats store the same canonical content — property-tested), and the
only accuracy-affecting knob, :math:`\\theta` auto-tuning, is held inside
a configurable drift budget against the default-threshold pipeline by
:class:`AdaptivePlanner`'s probe/controller loop.
"""

from .calibrate import calibrate_cost_model
from .costmodel import CalibrationTable, CostModel
from .plan import ExecutionPlan, KernelChoice, StorageChoice
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
    "StorageChoice",
    "WindowProfile",
    "calibrate_cost_model",
    "profile_window",
    "relative_drift",
]
