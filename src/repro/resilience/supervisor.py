"""Supervision and graceful degradation for streaming inference.

:class:`ResilientStreamingInference` wraps
:class:`~repro.engine.streaming.StreamingInference` with the recovery
protocol a production serving path needs:

1. **Admission control** — every pushed snapshot is validated
   (:func:`~repro.resilience.ingest.snapshot_violation`); poison
   snapshots are dead-lettered, never entering the engine.
2. **Checkpoint before risk** — immediately before a push/flush that
   will process a window, the carry state is captured in memory, so a
   mid-window fault can roll the stream back to the exact boundary.
3. **Graceful degradation** — engine faults and
   :class:`~repro.check.sanitizer.SanitizerViolation`\\ s are caught, the
   carry is restored, and the failed window is re-executed with the
   exact :class:`~repro.engine.reference.ReferenceEngine` semantics
   (correct but slower: no batching, no skipping, conventional
   accounting).  The degraded results are spliced back into the stream
   via ``adopt_window`` so subsequent windows continue seamlessly.

Every absorbed anomaly is recorded twice: as a structured
:class:`Incident` for operators, and in the ``incidents`` / ``retries`` /
``fallback_windows`` / ``dead_letter_events`` / ``checkpoints_taken`` /
``restores`` counters of :class:`~repro.engine.metrics.ExecutionMetrics`
so resilience shows up in the same report as performance.

The stream never refuses work: the one circuit breaker is the serving
cluster's per-tenant :class:`~repro.serving.tenants.TenantGate`, and the
one chaos driver is :func:`repro.serving.run_chaos_campaign` (a single
stream is a one-shard, one-tenant cluster).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..check.sanitizer import SanitizerViolation
from ..engine.carry import Carry
from ..engine.metrics import ExecutionMetrics
from ..engine.reference import ReferenceEngine
from ..engine.streaming import StreamingInference, StreamResult
from ..models.base import DGNNModel
from ..skipping.policy import SkipThresholds
from .ingest import DeadLetterQueue, snapshot_violation

__all__ = ["Incident", "ResilientStreamingInference"]


@dataclass(frozen=True)
class Incident:
    """One absorbed anomaly, in operator-actionable form.

    ``shard`` and ``tenant`` localise cluster-level incidents raised by
    :mod:`repro.serving`; single-stream incidents leave them at the
    ``-1`` / ``""`` sentinels.
    """

    window_index: int
    step: int
    # "sanitizer-violation" | "engine-fault" | "poison-snapshot" |
    # "backpressure" | "slow-shard" | "torn-checkpoint" | "worker-crash" |
    # "worker-stall"
    kind: str
    # "degraded" | "dead-lettered" | "shed" | "restarted" | "rolled-back" |
    # "cold-start"
    action: str
    detail: str = ""
    component: str = ""
    shard: int = -1
    tenant: str = ""

    def __post_init__(self) -> None:
        if self.window_index < 0:
            raise ValueError(
                f"window_index must be >= 0, got {self.window_index}"
            )
        if self.step < 0:
            raise ValueError(f"step must be >= 0, got {self.step}")
        if self.shard < -1:
            raise ValueError(f"shard must be >= -1, got {self.shard}")


class ResilientStreamingInference:
    """Fault-tolerant facade over :class:`StreamingInference`.

    Parameters
    ----------
    model, window_size, thresholds, enable_skipping, rows:
        Forwarded to the wrapped :class:`StreamingInference`.
    dlq:
        Optional shared :class:`DeadLetterQueue` (e.g. the same queue a
        :class:`~repro.resilience.ingest.GuardedIngest` writes to).
    """

    def __init__(
        self,
        model: DGNNModel,
        *,
        window_size: int = 4,
        thresholds: SkipThresholds | None = None,
        enable_skipping: bool = True,
        rows=None,
        dlq: DeadLetterQueue | None = None,
    ):
        self.model = model
        self.stream = StreamingInference(
            model,
            window_size=window_size,
            thresholds=thresholds,
            enable_skipping=enable_skipping,
            rows=rows,
        )
        self.dlq = dlq if dlq is not None else DeadLetterQueue()
        self.incidents: list[Incident] = []
        self._own = ExecutionMetrics()
        self._queued_faults: list[Exception] = []

    # ------------------------------------------------------------------
    @property
    def metrics(self) -> ExecutionMetrics:
        """Engine counters plus the supervisor's resilience counters."""
        return self.stream.metrics.merge(self._own)

    def inject_fault(self, exc: Exception) -> None:
        """Queue an exception to be raised when the next window is
        processed — the seam deterministic chaos testing hooks into."""
        self._queued_faults.append(exc)

    # ------------------------------------------------------------------
    def push(self, snapshot) -> StreamResult | None:
        """Guarded :meth:`StreamingInference.push`.

        Poison snapshots are dead-lettered and ``None`` is returned (the
        stream position does not advance — the feed should redeliver a
        clean snapshot).  Engine faults while a window processes degrade
        that window to the reference engine; the results come back as if
        nothing happened, with the incident recorded.
        """
        step = self.stream.timestamp + self.stream.pending
        reason = snapshot_violation(
            snapshot,
            num_vertices=self.stream.num_vertices,
            dim=self.model.in_dim,
        )
        if reason is not None:
            self._reject_snapshot(step, reason, snapshot)
            return None
        if self.stream.pending + 1 < self.stream.window_size:
            return self.stream.push(snapshot)  # pure buffering: no risk
        return self._guarded(self.stream.push, snapshot)

    def flush(self) -> StreamResult | None:
        """Guarded :meth:`StreamingInference.flush`."""
        if self.stream.pending == 0:
            return None
        return self._guarded(self.stream.flush)

    def _guarded(self, call, *arriving) -> StreamResult:
        """Run the window-completing ``call(*arriving)`` behind a
        rollback point.  The copy taken here is the one value stored to
        recover from a fault: on failure it is installed as is and its
        pending snapshots (plus the arriving one) are the window to
        re-execute."""
        saved = self.stream.carry_state()
        self._own.checkpoints_taken += 1
        try:
            if self._queued_faults:
                raise self._queued_faults.pop(0)
            result = call(*arriving)
        except (SanitizerViolation, FloatingPointError, RuntimeError) as exc:
            return self._recover(saved, saved.pending + list(arriving), exc)
        return result

    # ------------------------------------------------------------------
    def _reject_snapshot(self, step: int, reason: str, snapshot) -> None:
        self.dlq.record(step, reason, payload=snapshot)
        self._own.dead_letter_events += 1
        self._own.incidents += 1
        self.incidents.append(
            Incident(
                window_index=self.stream.window_index,
                step=step,
                kind="poison-snapshot",
                action="dead-lettered",
                detail=reason,
            )
        )

    def _recover(self, saved: Carry, window, exc: Exception) -> StreamResult:
        """Roll back to the pre-window carry, then re-execute the window
        on the reference path."""
        self.stream.restore_carry(saved)
        self._own.restores += 1
        self._own.incidents += 1
        kind = (
            "sanitizer-violation"
            if isinstance(exc, SanitizerViolation)
            else "engine-fault"
        )
        self.incidents.append(
            Incident(
                window_index=saved.window_index,
                step=saved.timestamp,
                kind=kind,
                action="degraded",
                detail=str(exc),
                component=getattr(exc, "component", "")
                or type(exc).__name__,
            )
        )
        return self._degrade(saved, window)

    def _degrade(self, saved: Carry, window) -> StreamResult:
        """Re-execute ``window`` with exact reference-engine semantics.

        :meth:`ReferenceEngine.step` from the rolled-back carry is the
        very loop body of :meth:`ReferenceEngine.run`, so a degraded
        window's outputs are bit-identical to what the reference engine
        would have produced at this position in the stream.  Accounting
        uses the reference engine's conventional (everything-moved)
        pattern: degradation is correct but slower, and the metrics say
        so.  An owned-row stream degrades on every row too: a superset
        is exact, and a row-local cell never reads the stale state of
        the rows the stream does not own.
        """
        for off, snap in enumerate(window):
            snap.timestamp = saved.timestamp + off
        ref = ReferenceEngine(self.model, window_size=self.stream.window_size)
        m = ExecutionMetrics()
        carry, outputs = ref.step(saved, window, m)
        m.windows_processed += 1
        m.fallback_windows += 1
        m.record_window_modes(m.cells_full, 0, 0)  # all-FULL, as run() records
        return self.stream.adopt_window(carry, outputs, m)
