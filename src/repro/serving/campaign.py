"""Seeded fault campaigns — the serving layer's chaos proof.

:func:`run_chaos_campaign` is the one chaos driver.  It drives one or
more tenants' dynamic graphs through a
:class:`~repro.serving.cluster.ShardCluster` while a
:class:`~repro.resilience.faults.FaultPlan` injects its faults; a single
stream is the one-shard, one-tenant cluster.  A plan has one of two
shapes:

* **shard faults** (worker crash / stall / slow shard / torn checkpoint,
  from :meth:`~repro.resilience.faults.FaultPlan.generate_cluster`,
  which hits every shard with every kind);
* **stream faults** (poison events, torn snapshots, engine faults and
  transient storage failures, from
  :meth:`~repro.resilience.faults.FaultPlan.generate`), all on the first
  tenant's feed.

A plan never carries both engine and shard faults: a crash or a lagging
backlog drops or moves the queued engine fault, so no oracle could know
which window it degraded.  The report reconciles three guarantees:

* **bit-identity** — after the campaign, each tenant's released outputs
  are compared element-for-element against one unsharded
  :class:`~repro.resilience.supervisor.ResilientStreamingInference` fed
  the same admitted snapshots and raising the same engine faults at the
  same steps (cell skipping makes a window's bits depend on the engine
  that ran it, so the oracle must degrade where the campaign did).
  Crash recovery replays from checkpoints, torn checkpoints roll back to
  older ones — all of it must be invisible in the outputs;
* **zero loss** — every admitted snapshot's output is released; the
  only events missing are the dead-lettered ones, and they are in the
  queue, not gone;
* **structured incidents** — every recovery action appears as an
  :class:`~repro.resilience.supervisor.Incident` naming its shard.

Transient storage faults exercise the accelerator path after serving:
:class:`~repro.accel.tagnn.TaGNNSimulator` reads through a
:class:`~repro.resilience.faults.FlakyHBM` under
:func:`~repro.resilience.ingest.with_retry`, one retry per planned fault.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from ..accel.config import TaGNNConfig
from ..accel.tagnn import TaGNNSimulator
from ..engine.metrics import ExecutionMetrics
from ..graphs.dynamic import DynamicGraph
from ..graphs.updates import event_stream
from ..resilience.faults import ENGINE_FAULTS, FaultKind, FaultPlan, FlakyHBM
from ..resilience.ingest import RetryPolicy, with_retry
from ..resilience.supervisor import ResilientStreamingInference
from .cluster import ShardCluster

__all__ = ["ChaosReport", "run_chaos_campaign"]

#: staleness bound (virtual ticks) before the supervisor restarts a shard
_HEARTBEAT_TIMEOUT = 2


@dataclass
class ChaosReport:
    """Everything one chaos campaign observed and verified."""

    tenants: list = field(default_factory=list)
    outputs: dict = field(default_factory=dict)  # tenant -> [ndarray, ...]
    admitted: dict = field(default_factory=dict)  # tenant -> count
    identical: bool = False
    lost: int = 0  # admitted outputs never released (must be 0)
    restarts: int = 0
    restarted_shards: list = field(default_factory=list)
    incidents: list = field(default_factory=list)
    dead_letters: list = field(default_factory=list)
    metrics: ExecutionMetrics = field(default_factory=ExecutionMetrics)
    plan_counts: dict = field(default_factory=dict)
    shard_summaries: list = field(default_factory=list)
    retry_delays: list = field(default_factory=list)  # storage backoffs

    def __post_init__(self) -> None:
        if self.lost < 0:
            raise ValueError(f"lost must be >= 0, got {self.lost}")
        if self.restarts < 0:
            raise ValueError(f"restarts must be >= 0, got {self.restarts}")

    # ------------------------------------------------------------------
    def summary(self) -> str:
        """Operator-readable report (the ``repro chaos`` output)."""
        m = self.metrics
        lines = [
            "cluster chaos campaign report",
            f"  tenants             : {len(self.tenants)}"
            f" ({', '.join(self.tenants)})",
            f"  planned faults      : {sum(self.plan_counts.values())}",
        ]
        for kind in sorted(self.plan_counts):
            lines.append(f"    {kind:<20}: {self.plan_counts[kind]}")
        lines += [
            f"  shard restarts      : {self.restarts}"
            f" (shards {self.restarted_shards})",
            f"  incidents absorbed  : {m.incidents}",
            f"  dead-lettered       : {m.dead_letter_events}"
            f" (queue depth {len(self.dead_letters)})",
            f"  degraded windows    : {m.fallback_windows}",
            f"  storage retries     : {m.retries}",
            f"  checkpoint restores : {m.restores}",
            f"  boundary words      : {m.boundary_words}",
            f"  outputs released    : "
            + ", ".join(
                f"{name}={len(self.outputs[name])}/{self.admitted[name]}"
                for name in self.tenants
            ),
            f"  lost (non-DLQ)      : {self.lost}",
            f"  bit-identical       : {'yes' if self.identical else 'NO'}",
        ]
        if self.incidents:
            lines.append("  incident log:")
            for inc in self.incidents:
                where = f" shard {inc.shard}" if inc.shard >= 0 else ""
                who = f" [{inc.tenant}]" if inc.tenant else ""
                lines.append(
                    f"    step {inc.step:>4}{where}{who}:"
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

    def to_json(self) -> dict:
        """JSON-serialisable artefact for the CI campaign report."""
        return {
            "tenants": list(self.tenants),
            "plan_counts": dict(self.plan_counts),
            "admitted": dict(self.admitted),
            "released": {
                name: len(self.outputs[name]) for name in self.tenants
            },
            "identical": bool(self.identical),
            "lost": int(self.lost),
            "restarts": int(self.restarts),
            "restarted_shards": list(self.restarted_shards),
            "incidents": [
                {
                    "step": inc.step,
                    "kind": inc.kind,
                    "action": inc.action,
                    "shard": inc.shard,
                    "tenant": inc.tenant,
                    "detail": inc.detail,
                }
                for inc in self.incidents
            ],
            "dead_letters": len(self.dead_letters),
            "retry_delays": list(self.retry_delays),
            "metrics": {
                "incidents": self.metrics.incidents,
                "dead_letter_events": self.metrics.dead_letter_events,
                "fallback_windows": self.metrics.fallback_windows,
                "retries": self.metrics.retries,
                "retry_attempts": self.metrics.retry_attempts,
                "restores": self.metrics.restores,
                "shard_restarts": self.metrics.shard_restarts,
                "shed_events": self.metrics.shed_events,
                "stale_serves": self.metrics.stale_serves,
                "boundary_words": self.metrics.boundary_words,
            },
            "shards": list(self.shard_summaries),
        }


def _inject_shard_fault(cluster: ShardCluster, spec) -> None:
    """Apply one scheduled shard-level fault to its target worker."""
    worker = cluster.workers[spec.shard % len(cluster.workers)]
    if spec.kind is FaultKind.WORKER_CRASH:
        worker.crash()
    elif spec.kind is FaultKind.WORKER_STALL:
        worker.stall()
    elif spec.kind is FaultKind.SLOW_SHARD:
        worker.slow(3)
    elif spec.kind is FaultKind.TORN_CHECKPOINT:
        # tear the newest checkpoint, then kill the worker so the next
        # recovery is forced through (and past) the torn file
        worker.tear_checkpoints()
        worker.crash()
    else:  # pragma: no cover - exhaustive over SHARD_FAULTS
        raise ValueError(f"not a shard-level fault: {spec.kind}")


def _unsharded(model_factory, history, plan, faults, window_size) -> list:
    """The oracle: one unsharded stream over the admitted ``history``,
    raising each engine fault in ``faults`` where the campaign did —
    before admitted snapshot ``spec.step`` (history index = step), or
    at the final flush for a step past the tenant's last snapshot."""
    stream = ResilientStreamingInference(
        model_factory(), window_size=window_size
    )
    outputs: list[np.ndarray] = []
    for t, snap in enumerate(history):
        for spec in faults:
            if spec.step == t:
                stream.inject_fault(plan.violation(spec))
        result = stream.push(snap.copy())
        if result is not None:
            outputs.extend(result.outputs)
    for spec in faults:
        if spec.step >= len(history):
            stream.inject_fault(plan.violation(spec))
    result = stream.flush()
    if result is not None:
        outputs.extend(result.outputs)
    return outputs


def run_chaos_campaign(
    model_factory,
    graphs,
    plan: FaultPlan,
    *,
    num_shards: int = 4,
    window_size: int = 4,
    seed: int = 0,
) -> ChaosReport:
    """Serve ``graphs`` through a shard cluster under ``plan``'s faults.

    ``graphs`` is one :class:`DynamicGraph` (a single tenant) or a
    mapping ``{tenant_name: DynamicGraph}``; all graphs must share
    vertex count and feature width (the shard map is cluster-wide).
    Tenants' feeds interleave round-robin, one snapshot per tenant per
    step, delivered as event batches through the cluster's guarded
    ingest.  Per step ``t``, on the first tenant's feed:

    * shard faults fire on the worker the plan names;
    * engine faults are queued on every shard's stream and fire while
      the enclosing window processes, degrading it to the reference
      engine — a sanitizer trip is a property of the window's data, and
      every shard computes the window;
    * snapshot faults deliver a torn copy first — the cluster
      dead-letters it — and then the clean snapshot, as a replaying
      feed would;
    * event faults ride in step ``t``'s batch and are quarantined by
      guarded ingest.

    The campaign never sheds (admission is unbounded here) so the
    zero-loss and bit-identity reconciliation is exact; bounded-queue
    behaviour is the demo's and the unit tests' job.
    """
    if isinstance(graphs, DynamicGraph):
        graphs = {"tenant-0": graphs}
    if not graphs:
        raise ValueError("need at least one tenant graph")
    engine_faults = [s for s in plan.specs if s.kind in ENGINE_FAULTS]
    if engine_faults and plan.shards_touched():
        raise ValueError(
            "a plan carries engine faults or shard faults, not both:"
            " a crash or a lagging backlog drops or moves a queued"
            " engine fault"
        )
    names = sorted(graphs)
    cluster = ShardCluster(
        model_factory,
        num_shards=num_shards,
        window_size=window_size,
        max_backlog=None,  # campaigns must not shed: zero-loss is checked
        heartbeat_timeout=_HEARTBEAT_TIMEOUT,
        seed=seed,
    )
    for name in names:
        cluster.register_tenant(name)
    feeds = {name: event_stream(graphs[name]) for name in names}
    first = names[0]
    max_steps = max(g.num_snapshots for g in graphs.values())
    for t in range(max_steps):
        for spec in plan.shard_specs(t):
            _inject_shard_fault(cluster, spec)
        for spec in plan.engine_specs(t):
            for worker in cluster.workers:
                worker.streams[first].inject_fault(plan.violation(spec))
        for name in names:
            graph = graphs[name]
            if t >= graph.num_snapshots:
                continue
            if name == first:
                for spec in plan.snapshot_specs(t):
                    torn = plan.corrupt_snapshot(spec, graph[t])
                    cluster.push(name, torn)  # dead-lettered at admission
            if t == 0:
                cluster.push(name, graph[0].copy())
                continue
            batch = list(feeds[name][t - 1])
            if name == first:
                batch += [
                    plan.poison_event(spec, graph[t])
                    for spec in plan.event_specs(t)
                ]
            cluster.ingest(name, batch, step=t)
    for name in names:
        cluster.flush(name)

    report = ChaosReport(
        tenants=names,
        plan_counts=plan.counts(),
        restarts=cluster.supervisor.restarts,
    )
    report.outputs = {name: cluster.released(name) for name in names}
    report.admitted = {name: len(cluster.history(name)) for name in names}
    report.lost = sum(
        report.admitted[name] - len(report.outputs[name]) for name in names
    )
    report.restarted_shards = sorted(
        {inc.shard for inc in cluster.incidents if inc.action == "restarted"}
    )
    # cluster-level incidents, then each shard stream's degraded windows
    report.incidents = list(cluster.incidents) + [
        replace(inc, shard=worker.index, tenant=name)
        for worker in cluster.workers
        for name in sorted(worker.streams)
        for inc in worker.streams[name].incidents
    ]
    report.dead_letters = list(cluster.dlq.letters)
    report.metrics = cluster.metrics
    report.shard_summaries = [
        {
            "shard": worker.index,
            "owned_vertices": int(cluster.shard_map.rows(worker.index).size)
            if cluster.shard_map is not None
            else 0,
            "windows_processed": m.windows_processed,
            "snapshots_processed": m.snapshots_processed,
            "fallback_windows": m.fallback_windows,
            "restores": m.restores,
        }
        for worker, m in zip(cluster.workers, cluster.shard_metrics())
    ]

    failures = plan.storage_failures()
    if failures:
        sim = TaGNNSimulator(TaGNNConfig(window_size=window_size))
        flaky = FlakyHBM(sim.config.hbm(), failures=failures)
        model = model_factory()
        _, report.retry_delays = with_retry(
            lambda: sim.simulate(model, graphs[first], "chaos", hbm=flaky),
            policy=RetryPolicy(max_attempts=failures + 1, seed=plan.seed),
            metrics=report.metrics,
        )

    identical = report.lost == 0
    for name in names:
        expected = _unsharded(
            model_factory,
            cluster.history(name),
            plan,
            engine_faults if name == first else [],
            window_size,
        )
        got = report.outputs[name]
        if len(got) != len(expected) or not all(
            np.array_equal(a, b) for a, b in zip(got, expected)
        ):
            identical = False
    report.identical = identical
    return report
