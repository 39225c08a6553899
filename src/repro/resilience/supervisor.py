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
4. **Circuit breaker** — after ``failure_threshold`` consecutive
   incidents the breaker opens and further pushes raise
   :class:`CircuitOpenError` instead of silently degrading forever.

Every absorbed anomaly is recorded twice: as a structured
:class:`Incident` for operators, and in the ``incidents`` / ``retries`` /
``fallback_windows`` / ``dead_letter_events`` / ``checkpoints_taken`` /
``restores`` counters of :class:`~repro.engine.metrics.ExecutionMetrics`
so resilience shows up in the same report as performance.

:func:`run_chaos_campaign` drives a whole
:class:`~repro.graphs.dynamic.DynamicGraph` through this machinery while
a :class:`~repro.resilience.faults.FaultPlan` injects every fault it
carries, and returns a :class:`ChaosReport` reconciling observed
incidents against the plan.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..check.sanitizer import SanitizerViolation
from ..engine.carry import Carry
from ..engine.metrics import ExecutionMetrics
from ..engine.reference import ReferenceEngine
from ..engine.streaming import StreamingInference, StreamResult
from ..graphs.dynamic import DynamicGraph
from ..graphs.snapshot import CSRSnapshot
from ..graphs.updates import event_stream
from ..models.base import DGNNModel
from ..skipping.policy import SkipThresholds
from .faults import FaultPlan, FlakyHBM
from .ingest import (
    DeadLetterQueue,
    GuardedIngest,
    RetryPolicy,
    snapshot_violation,
    with_retry,
)

__all__ = [
    "ChaosReport",
    "CircuitOpenError",
    "Incident",
    "ResilientStreamingInference",
    "run_chaos_campaign",
]


class CircuitOpenError(RuntimeError):
    """The stream refused work because its circuit breaker is open."""


@dataclass(frozen=True)
class Incident:
    """One absorbed anomaly, in operator-actionable form.

    ``shard`` and ``tenant`` localise cluster-level incidents raised by
    :mod:`repro.serving`; single-stream incidents leave them at the
    ``-1`` / ``""`` sentinels.
    """

    window_index: int
    step: int
    kind: str  # "sanitizer-violation" | "engine-fault" | "poison-snapshot"
    action: str  # "degraded" | "dead-lettered" | "restarted" | "shed" | ...
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
    failure_threshold:
        Consecutive incidents before the circuit breaker opens
        (``0`` disables the breaker).
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
        failure_threshold: int = 5,
        dlq: DeadLetterQueue | None = None,
    ):
        if failure_threshold < 0:
            raise ValueError(
                f"failure_threshold must be >= 0, got {failure_threshold}"
            )
        self.model = model
        self.stream = StreamingInference(
            model,
            window_size=window_size,
            thresholds=thresholds,
            enable_skipping=enable_skipping,
            rows=rows,
        )
        self.failure_threshold = failure_threshold
        self.dlq = dlq if dlq is not None else DeadLetterQueue()
        self.incidents: list[Incident] = []
        self._own = ExecutionMetrics()
        self._queued_faults: list[Exception] = []
        self._consecutive_failures = 0
        self._open = False

    # ------------------------------------------------------------------
    @property
    def metrics(self) -> ExecutionMetrics:
        """Engine counters plus the supervisor's resilience counters."""
        return self.stream.metrics.merge(self._own)

    @property
    def circuit_open(self) -> bool:
        return self._open

    def reset_circuit(self) -> None:
        """Close the breaker and forget the failure streak (operator
        action after fixing the feed)."""
        self._open = False
        self._consecutive_failures = 0

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
        self._check_circuit()
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
        self._check_circuit()
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
        self._consecutive_failures = 0
        return result

    # ------------------------------------------------------------------
    def _check_circuit(self) -> None:
        if self._open:
            raise CircuitOpenError(
                f"circuit open after {self._consecutive_failures}"
                " consecutive failures; call reset_circuit() to resume"
            )

    def _note_failure(self) -> None:
        self._consecutive_failures += 1
        if (
            self.failure_threshold
            and self._consecutive_failures >= self.failure_threshold
        ):
            self._open = True

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
        self._note_failure()

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
        result = self._degrade(saved, window)
        self._note_failure()
        return result

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


# ----------------------------------------------------------------------
# chaos campaign
# ----------------------------------------------------------------------
@dataclass
class ChaosReport:
    """Everything a seeded fault campaign observed."""

    outputs: list = field(default_factory=list)
    incidents: list = field(default_factory=list)
    dead_letters: list = field(default_factory=list)
    metrics: ExecutionMetrics = field(default_factory=ExecutionMetrics)
    plan_counts: dict = field(default_factory=dict)
    retry_delays: list = field(default_factory=list)

    def summary(self) -> str:
        """Human-readable incident report (the ``repro chaos`` output)."""
        m = self.metrics
        lines = [
            "chaos campaign report",
            f"  planned faults      : {sum(self.plan_counts.values())}",
        ]
        for kind in sorted(self.plan_counts):
            lines.append(f"    {kind:<20}: {self.plan_counts[kind]}")
        lines += [
            f"  incidents absorbed  : {m.incidents}",
            f"  dead-lettered       : {m.dead_letter_events}"
            f" (queue depth {len(self.dead_letters)})",
            f"  degraded windows    : {m.fallback_windows}",
            f"  storage retries     : {m.retries}",
            f"  checkpoints taken   : {m.checkpoints_taken}",
            f"  carry restores      : {m.restores}",
            f"  outputs released    : {len(self.outputs)}",
        ]
        if self.incidents:
            lines.append("  incident log:")
            for inc in self.incidents:
                lines.append(
                    f"    window {inc.window_index:>3} step {inc.step:>3}:"
                    f" {inc.kind} -> {inc.action}"
                )
        if self.dead_letters:
            lines.append("  dead-letter reasons:")
            seen: dict[str, int] = {}
            for letter in self.dead_letters:
                seen[letter.reason] = seen.get(letter.reason, 0) + 1
            for reason in sorted(seen):
                lines.append(f"    {seen[reason]}x {reason}")
        return "\n".join(lines)


def run_chaos_campaign(
    model: DGNNModel,
    graph: DynamicGraph,
    plan: FaultPlan,
    *,
    window_size: int = 4,
    enable_skipping: bool = True,
    retry_policy: RetryPolicy | None = None,
) -> ChaosReport:
    """Serve ``graph`` through the resilient path under ``plan``'s faults.

    The graph is re-expressed as its event stream, as a production feed
    would deliver it.  Per step ``t``:

    * event faults are appended to step ``t``'s legitimate events; the
      batch goes through :class:`~repro.resilience.ingest.GuardedIngest`,
      which quarantines exactly the poison events and rebuilds snapshot
      ``t`` from the clean remainder (events always apply to the true
      previous snapshot, so a dropped poison event cannot cascade);
    * engine faults are queued on the supervisor and fire while the
      enclosing window processes, degrading it to the reference engine;
    * snapshot faults deliver a torn copy first — the supervisor
      dead-letters it — and then redeliver the clean snapshot, as a
      replaying feed would.

    Storage faults run after streaming: the accelerator simulator is
    invoked with a :class:`~repro.resilience.faults.FlakyHBM` under
    :func:`~repro.resilience.ingest.with_retry`.

    The campaign completes with zero unhandled exceptions for any plan;
    the returned :class:`ChaosReport` carries the released outputs,
    incident log, dead letters, and merged metrics for reconciliation
    against ``plan.counts()``.
    """
    supervisor = ResilientStreamingInference(
        model,
        window_size=window_size,
        enable_skipping=enable_skipping,
        failure_threshold=0,  # campaigns absorb every fault; no breaker
    )
    guard = GuardedIngest(dlq=supervisor.dlq)
    report = ChaosReport(plan_counts=plan.counts())
    steps = event_stream(graph)
    for t in range(graph.num_snapshots):
        if t == 0:
            delivered: CSRSnapshot = graph[0].copy()
        else:
            events = list(steps[t - 1])
            events += [
                plan.poison_event(spec, graph[t])
                for spec in plan.event_specs(t)
            ]
            delivered = guard.apply(graph[t - 1], events, step=t)
        for spec in plan.engine_specs(t):
            supervisor.inject_fault(plan.violation(spec))
        for spec in plan.snapshot_specs(t):
            torn = plan.corrupt_snapshot(spec, delivered)
            supervisor.push(torn)  # rejected: dead-lettered, returns None
        result = supervisor.push(delivered)
        if result is not None:
            report.outputs.extend(result.outputs)
    result = supervisor.flush()
    if result is not None:
        report.outputs.extend(result.outputs)

    failures = plan.storage_failures()
    if failures:
        from ..accel.config import TaGNNConfig
        from ..accel.tagnn import TaGNNSimulator

        sim = TaGNNSimulator(TaGNNConfig(window_size=window_size))
        flaky = FlakyHBM(sim.config.hbm(), failures=failures)
        policy = (
            retry_policy
            if retry_policy is not None
            else RetryPolicy(max_attempts=failures + 1, seed=plan.seed)
        )
        _, delays = with_retry(
            lambda: sim.simulate(model, graph, "chaos", hbm=flaky),
            policy=policy,
            metrics=supervisor._own,
        )
        report.retry_delays = delays

    report.incidents = list(supervisor.incidents)
    report.dead_letters = list(supervisor.dlq.letters)
    report.metrics = supervisor.metrics.merge(guard.metrics)
    return report
