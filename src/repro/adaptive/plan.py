"""The planner's output: one :class:`ExecutionPlan` per window.

A plan holds what :meth:`ConcurrentEngine.step
<repro.engine.concurrent.ConcurrentEngine.step>` reads — the kernel
its counters count and the skip thresholds — plus its audit trail: the
cost model's prediction for every kernel candidate and human-readable
reasons.  The engines execute plans; they never decide.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from ..skipping.policy import SkipThresholds

__all__ = ["ExecutionPlan", "KernelChoice"]


class KernelChoice(str, enum.Enum):
    """The GNN dataflow a window's counters count.  The host runs one
    GNN kernel whichever is chosen, so the choice moves only what is
    counted, never an output bit."""

    #: OADL changed-set propagation: counted as snapshot 0 in full and,
    #: at each later snapshot, the per-layer changed rows.
    DELTA_CONDENSED = "delta-condensed"
    #: Every snapshot counted in full (ablation WO/OADL).
    BATCHED_SPMM = "batched-spmm"


@dataclass(frozen=True)
class ExecutionPlan:
    """One window's execution decision (immutable once emitted)."""

    kernel: KernelChoice
    thresholds: SkipThresholds
    #: cost-model prediction (seconds) for every kernel candidate —
    #: audit only, checked against the trace; the kernel rule does not
    #: read it.
    expected_kernel_seconds: dict = field(default_factory=dict)
    reasons: tuple = ()

    # ------------------------------------------------------------------
    def as_dict(self) -> dict:
        return {
            "kernel": self.kernel.value,
            "theta_s": self.thresholds.theta_s,
            "theta_e": self.thresholds.theta_e,
            "expected_kernel_seconds": {
                k: round(v, 9)
                for k, v in self.expected_kernel_seconds.items()
            },
        }

    def explain(self) -> str:
        """Human-readable audit trail (``repro plan --explain``)."""
        lines = [
            f"kernel    : {self.kernel.value}",
            f"thresholds: theta_s={self.thresholds.theta_s:+.2f}"
            f" theta_e={self.thresholds.theta_e:+.2f}",
        ]
        if self.expected_kernel_seconds:
            ranked = sorted(
                self.expected_kernel_seconds.items(), key=lambda kv: kv[1]
            )
            lines.append("kernel expectations (s): " + ", ".join(
                f"{k}={v:.2e}" for k, v in ranked
            ))
        for r in self.reasons:
            lines.append(f"  - {r}")
        return "\n".join(lines)
