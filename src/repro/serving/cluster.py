"""The supervised shard cluster: routing, aggregation, recovery.

:class:`ShardCluster` is the serving front door.  Per admitted push it:

1. ticks the :class:`~repro.serving.clock.VirtualClock` (one tick per
   request — the only notion of time anywhere in the layer);
2. admits one read-only copy of the snapshot
   (:meth:`~repro.graphs.snapshot.CSRSnapshot.frozen_copy`) and
   validates it at the boundary
   (:func:`~repro.resilience.ingest.snapshot_violation`; poison is
   dead-lettered once, cluster-wide, and the verdict is cached on the
   copy, so each shard's own check of it costs O(1));
3. runs per-tenant admission control
   (:class:`~repro.serving.tenants.TenantGate`): a full backlog sheds
   the push with a structured
   :class:`~repro.resilience.supervisor.Incident` and the snapshot goes
   to the :class:`~repro.resilience.ingest.DeadLetterQueue` — explicit
   backpressure, never silent loss;
4. appends that one copy to the tenant's **history** (the replay log
   recovery depends on) and every shard's backlog — shards are isolated
   by the copy's immutability, not by copies of their own, so its
   degrees, checked kernel operands and window classification are
   computed once per push;
5. lets the :class:`ShardSupervisor` health-check the workers —
   restarting any shard whose heartbeat went stale from its newest
   loadable checkpoint plus bit-identical catch-up replay — then drains
   whatever each healthy worker has capacity for;
6. stitches per-shard owned rows
   (:class:`~repro.serving.sharding.ShardMap`) into full output
   matrices, releasing a timestamp only once **every** active shard has
   contributed its rows for it.

Degradation modes: :meth:`ShardCluster.query` serves the latest known
rows per shard, counting ``stale_serves`` for shards lagging the
newest contribution (serve-stale-embeddings); engine faults inside a
shard degrade that window to the reference engine via ``adopt_window``
(the shard streams are
:class:`~repro.resilience.supervisor.ResilientStreamingInference`), so
every degradation stays bit-identical to the unsharded run.

Reads are replicated, compute is partitioned: every worker is fed every
snapshot, and ``_pin`` hands worker *i* ``ShardMap.rows(i)`` — the rows
its streams compute and the only ones ``_collect`` keeps.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..accel.partition import PartitionStrategy
from ..engine.metrics import ExecutionMetrics
from ..engine.streaming import StreamResult
from ..graphs.dynamic import DynamicGraph
from ..graphs.snapshot import CSRSnapshot
from ..resilience.ingest import (
    DeadLetterQueue,
    GuardedIngest,
    RetryPolicy,
    snapshot_violation,
)
from ..resilience.supervisor import Incident
from .clock import VirtualClock
from .sharding import ShardMap
from .tenants import TenantGate
from .worker import ShardWorker

__all__ = ["PushReceipt", "ShardCluster", "ShardSupervisor"]


@dataclass
class PushReceipt:
    """Outcome of one cluster push: admission decision + releases."""

    tenant: str
    step: int  # virtual tick at which the decision was made
    accepted: bool
    shed_reason: str = ""  # "" | "poison-snapshot" | "backlog-full" | ...
    released: list = field(default_factory=list)  # (timestamp, ndarray)
    incident: Incident | None = None

    def __post_init__(self) -> None:
        if self.step < 0:
            raise ValueError(f"step must be >= 0, got {self.step}")


class ShardSupervisor:
    """Virtual-time health checking and per-shard restart."""

    def __init__(
        self,
        workers: list[ShardWorker],
        *,
        heartbeat_timeout: int = 4,
        retry_policy: RetryPolicy | None = None,
    ):
        if not workers:
            raise ValueError("supervisor needs at least one worker")
        if heartbeat_timeout < 1:
            raise ValueError(
                f"heartbeat_timeout must be >= 1, got {heartbeat_timeout}"
            )
        self.workers = list(workers)
        self.heartbeat_timeout = heartbeat_timeout
        self.retry_policy = (
            retry_policy if retry_policy is not None else RetryPolicy()
        )
        self.restarts = 0

    # ------------------------------------------------------------------
    def monitor(
        self,
        now: int,
        history: dict[str, list],
        metrics: ExecutionMetrics,
    ) -> tuple[dict[str, list], list[Incident]]:
        """One health-check pass: collect heartbeats, restart the dead.

        A worker whose heartbeat is older than ``heartbeat_timeout``
        ticks — because it crashed or stalled — is restarted via
        :meth:`ShardWorker.recover`.  Returns the window results the
        restarted shards produced during catch-up replay (keyed by
        tenant, as ``(shard, result)`` pairs) and one structured
        :class:`Incident` per recovery action.
        """
        results: dict[str, list] = {}
        incidents: list[Incident] = []
        for worker in self.workers:
            worker.heartbeat(now)
            if (
                worker.alive
                and not worker.stalled
                and worker.slow_factor > 1
                and not worker.slow_reported
            ):
                worker.slow_reported = True
                incidents.append(
                    Incident(
                        window_index=0,
                        step=now,
                        kind="slow-shard",
                        action="degraded",
                        detail=(
                            f"service time x{worker.slow_factor};"
                            " queries serve stale rows until it catches up"
                        ),
                        component=f"serving.shard{worker.index}",
                        shard=worker.index,
                    )
                )
            stale = now - worker.last_heartbeat
            if worker.alive and stale <= self.heartbeat_timeout:
                continue
            kind = "worker-crash" if not worker.alive else "worker-stall"
            recovered, notes = worker.recover(
                now, history, policy=self.retry_policy, metrics=metrics
            )
            self.restarts += 1
            metrics.shard_restarts += 1
            for note in notes:
                if note["outcome"] != "cold-start":
                    metrics.restores += 1
                if note["torn"]:
                    incidents.append(
                        Incident(
                            window_index=0,
                            step=now,
                            kind="torn-checkpoint",
                            action=(
                                "cold-start"
                                if note["outcome"] == "cold-start"
                                else "rolled-back"
                            ),
                            detail=(
                                f"{note['torn']} torn checkpoint(s) skipped;"
                                f" resumed from {note['outcome']}"
                            ),
                            component=f"serving.shard{worker.index}",
                            shard=worker.index,
                            tenant=note["tenant"],
                        )
                    )
                incidents.append(
                    Incident(
                        window_index=0,
                        step=now,
                        kind=kind,
                        action="restarted",
                        detail=(
                            f"heartbeat stale by {stale} ticks; resumed"
                            f" from {note['outcome']}, replayed"
                            f" {note['replayed']} snapshot(s)"
                        ),
                        component=f"serving.shard{worker.index}",
                        shard=worker.index,
                        tenant=note["tenant"],
                    )
                )
            for name in sorted(recovered):
                results.setdefault(name, []).extend(
                    (worker.index, result) for result in recovered[name]
                )
        return results, incidents


class ShardCluster:
    """Fault-tolerant sharded multi-tenant serving layer.

    Parameters
    ----------
    model_factory:
        Zero-argument callable returning a fresh (deterministically
        seeded) model — each shard×tenant stream gets its own instance
        so weight-evolution state never aliases across shards.
    num_shards, window_size, enable_skipping, strategy:
        Cluster shape; ``strategy`` picks the
        :class:`~repro.serving.sharding.ShardMap` partitioning.
    max_backlog, breaker_threshold:
        Per-tenant admission control (see
        :class:`~repro.serving.tenants.TenantGate`).
    heartbeat_timeout, keep_last, seed:
        Supervision: staleness bound (virtual ticks), checkpoint
        retention depth, and the seed of the recovery
        :class:`~repro.resilience.ingest.RetryPolicy` jitter.
    """

    def __init__(
        self,
        model_factory,
        *,
        num_shards: int = 4,
        window_size: int = 4,
        enable_skipping: bool = True,
        strategy: PartitionStrategy = PartitionStrategy.LOCALITY,
        max_backlog: int | None = None,
        breaker_threshold: int = 8,
        heartbeat_timeout: int = 4,
        keep_last: int = 3,
        seed: int = 0,
        dlq: DeadLetterQueue | None = None,
    ):
        if num_shards < 1:
            raise ValueError(f"num_shards must be >= 1, got {num_shards}")
        self.model_factory = model_factory
        self.num_shards = num_shards
        self.window_size = window_size
        self.strategy = strategy
        self.clock = VirtualClock()
        self.workers = [
            ShardWorker(
                i,
                model_factory,
                window_size=window_size,
                enable_skipping=enable_skipping,
                keep_last=keep_last,
            )
            for i in range(num_shards)
        ]
        self.supervisor = ShardSupervisor(
            self.workers,
            heartbeat_timeout=heartbeat_timeout,
            retry_policy=RetryPolicy(max_attempts=4, seed=seed),
        )
        self.gate = TenantGate(
            max_backlog=max_backlog, breaker_threshold=breaker_threshold
        )
        self.dlq = dlq if dlq is not None else DeadLetterQueue()
        self.guard = GuardedIngest(dlq=self.dlq)
        self.shard_map: ShardMap | None = None
        self.incidents: list[Incident] = []
        self._own = ExecutionMetrics()
        self._history: dict[str, list] = {}
        self._parts: dict[str, dict] = {}  # tenant -> ts -> shard -> rows
        self._latest: dict[str, dict] = {}  # tenant -> shard -> (ts, rows)
        self._next_release: dict[str, int] = {}
        self._released: dict[str, list] = {}  # tenant -> stitched, ts order
        self._num_vertices: int | None = None
        self._dim: int | None = None

    # ------------------------------------------------------------------
    # tenant lifecycle
    # ------------------------------------------------------------------
    def register_tenant(self, tenant: str) -> None:
        self.gate.register(tenant)
        for worker in self.workers:
            worker.register(tenant)
        # the front door checks the width every shard stream checks, so a
        # mis-sized snapshot is dead-lettered here and never admitted
        self._dim = self.workers[0].streams[tenant].model.in_dim
        self._history[tenant] = []
        self._parts[tenant] = {}
        self._latest[tenant] = {}
        self._next_release[tenant] = 0
        self._released[tenant] = []

    def tenants(self) -> list[str]:
        return self.gate.tenants()

    def history(self, tenant: str) -> list:
        """Admitted snapshots, in order — the replay log."""
        return list(self._history[tenant])

    def released(self, tenant: str) -> list:
        """Stitched output matrices released so far, in timestamp order."""
        return list(self._released[tenant])

    # ------------------------------------------------------------------
    # serving
    # ------------------------------------------------------------------
    def push(self, tenant: str, snapshot) -> PushReceipt:
        """Route one snapshot; returns admission outcome + any releases."""
        now = self.clock.tick()
        if not self.gate.known(tenant):
            raise ValueError(f"tenant {tenant!r} is not registered")
        # one read-only copy is admitted: the history and every shard
        # share it, its validation and its cached degrees and kernel
        # operands; the caller's object is neither frozen nor kept
        admitted = (
            snapshot.frozen_copy()
            if isinstance(snapshot, CSRSnapshot)
            else snapshot
        )
        reason = snapshot_violation(
            admitted, num_vertices=self._num_vertices, dim=self._dim
        )
        if reason is not None:
            return self._reject(tenant, now, "poison-snapshot", reason,
                                snapshot)
        depth = max(w.depth(tenant) for w in self.workers)
        shed = self.gate.admit(tenant, depth)
        if shed:
            self._own.shed_events += 1
            receipt = self._reject(
                tenant, now, shed,
                f"backlog depth {depth} at max_backlog"
                f" {self.gate.max_backlog}", snapshot,
            )
            # the world still turns on a shed request: stalled shards
            # get health-checked and healthy ones keep draining
            receipt.released = self._advance(now).get(tenant, [])
            return receipt
        log = self._history[tenant]
        # the stream position every shard will stamp on it, stamped now
        admitted.timestamp = len(log)
        if self.shard_map is None:
            self._pin(admitted)
        log.append(admitted)
        for worker in self.workers:
            worker.enqueue(tenant, admitted)
        released = self._advance(now)
        return PushReceipt(
            tenant, now, accepted=True, released=released.get(tenant, [])
        )

    def ingest(self, tenant: str, batch, *, step: int | None = None):
        """Evolve the tenant's latest snapshot by an event batch (an
        :class:`~repro.graphs.updates.EventBatch`, or a list of events),
        then push the result.  Poison rows are quarantined by
        :class:`~repro.resilience.ingest.GuardedIngest` (shared DLQ) and
        the snapshot is rebuilt from the clean remainder."""
        log = self._history[tenant]
        if not log:
            raise ValueError(
                f"tenant {tenant!r} has no admitted snapshot to evolve;"
                " push an initial snapshot first"
            )
        at = len(log) if step is None else step
        snapshot = self.guard.apply(log[-1], batch, step=at)
        return self.push(tenant, snapshot)

    def query(self, tenant: str) -> tuple[np.ndarray, int]:
        """Current embeddings for ``tenant``, stitched from each shard's
        latest contribution.

        Shards lagging the newest contribution serve their last known
        (stale) rows — the serve-stale degradation mode — counted in
        ``stale_serves``.  Returns ``(matrix, num_stale_shards)``.
        """
        latest = self._latest[tenant]
        if self.shard_map is None or not latest:
            raise ValueError(f"tenant {tenant!r} has no released rows yet")
        active = self.shard_map.active_shards()
        absent = [s for s in active if s not in latest]
        if absent:
            raise ValueError(
                f"shards {absent} have not produced rows for"
                f" {tenant!r} yet"
            )
        newest = max(latest[s][0] for s in active)
        lagging = [s for s in active if latest[s][0] < newest]
        self._own.stale_serves += len(lagging)
        return (
            self.shard_map.stitch({s: latest[s][1] for s in active}),
            len(lagging),
        )

    def flush(self, tenant: str) -> list:
        """End of stream: drain every backlog, process the trailing
        partial window on every shard, release what completes."""
        self.drain_backlogs()
        for worker in self.workers:
            result = worker.flush(tenant)
            if result is not None:
                self._collect(tenant, worker.index, result)
        return self._release(tenant)

    def drain_backlogs(self, *, max_ticks: int = 100_000) -> dict:
        """Advance virtual time until every shard is healthy and every
        backlog is empty (stalled/crashed shards recover via the
        supervisor on the way).  Returns releases by tenant."""
        collected: dict[str, list] = {}
        for _ in range(max_ticks):
            healthy = all(
                w.alive and not w.stalled for w in self.workers
            )
            backlog = sum(w.total_depth() for w in self.workers)
            if healthy and backlog == 0:
                return collected
            got = self._advance(self.clock.tick())
            for name in sorted(got):
                collected.setdefault(name, []).extend(got[name])
        raise RuntimeError(
            f"cluster failed to drain within {max_ticks} ticks"
        )

    def reset_tenant(self, tenant: str) -> None:
        """Operator action: close the tenant's circuit breaker."""
        self.gate.reset(tenant)

    # ------------------------------------------------------------------
    # metrics
    # ------------------------------------------------------------------
    @property
    def metrics(self) -> ExecutionMetrics:
        """Cluster-wide aggregate: the cluster's own counters (shed /
        stale / restarts / boundary words) merged with every shard's
        engine counters and the ingest guard's quarantine counters.

        What a shard does for the rows it owns is **additive by
        ownership** — summed over the shards it equals the unsharded
        stream's: the cell counters (``cells_full`` / ``cells_delta`` /
        ``cells_skipped``, ``cell_macs``, ``cell_macs_saved``,
        ``delta_nnz``), ``output_words`` and the GNN MACs of a model
        whose one GCN layer aggregates before it combines (a deeper
        stack, or a combine-first layer, repeats the lower work on each
        shard's read closure, and the sum says so).  What every shard
        does over the whole replicated snapshot stays **per shard**, so
        the sum is N×: ``snapshots_processed``, ``windows_processed``,
        classification's ``overhead_ops`` and ``structure_words``.  A model whose cell
        reads its neighbours' state (GC-LSTM) runs every row on every
        shard: all of its counters are N×."""
        out = ExecutionMetrics(**self._own.as_dict())
        out = out.merge(self.guard.metrics)
        for worker in self.workers:
            out = out.merge(worker.metrics)
        return out

    def shard_metrics(self) -> list[ExecutionMetrics]:
        """Per-shard counters, by shard index."""
        return [worker.metrics for worker in self.workers]

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _pin(self, snapshot) -> None:
        self._num_vertices = snapshot.num_vertices
        self.shard_map = ShardMap.build(
            DynamicGraph([snapshot], name="shard-map-seed"),
            self.num_shards,
            strategy=self.strategy,
        )
        for worker in self.workers:
            worker.own(self.shard_map.rows(worker.index))

    def _reject(
        self, tenant: str, now: int, kind: str, detail: str, snapshot
    ) -> PushReceipt:
        incident = Incident(
            window_index=0,
            step=now,
            kind="backpressure" if kind not in ("poison-snapshot",) else kind,
            action="shed" if kind != "poison-snapshot" else "dead-lettered",
            detail=f"{kind}: {detail}" if kind != "poison-snapshot" else detail,
            component="serving.cluster",
            tenant=tenant,
        )
        self.dlq.record(now, f"{kind}: {detail}", payload=snapshot)
        self._own.dead_letter_events += 1
        self._own.incidents += 1
        self.incidents.append(incident)
        return PushReceipt(
            tenant, now, accepted=False, shed_reason=kind, incident=incident
        )

    def _advance(self, now: int) -> dict[str, list]:
        recovered, incidents = self.supervisor.monitor(
            now, self._history, self._own
        )
        self.incidents.extend(incidents)
        self._own.incidents += len(incidents)
        for name in sorted(recovered):
            for shard, result in recovered[name]:
                self._collect(name, shard, result)
        for worker in self.workers:
            drained = worker.drain(now)
            for name in sorted(drained):
                for result in drained[name]:
                    self._collect(name, worker.index, result)
        out: dict[str, list] = {}
        for name in self.gate.tenants():
            got = self._release(name)
            if got:
                out[name] = got
        return out

    def _collect(self, tenant: str, shard: int, result: StreamResult) -> None:
        """File one shard's window results into the stitch buffers."""
        owned = self.shard_map.rows(shard)
        if not owned.size:
            return
        newest = self._latest[tenant].get(shard)
        for ts, full in zip(result.timestamps, result.outputs):
            block = full[owned]  # fancy indexing: already a fresh array
            if newest is None or ts > newest[0]:
                newest = (ts, block)
            if ts >= self._next_release[tenant]:
                self._parts[tenant].setdefault(ts, {})[shard] = block
        self._latest[tenant][shard] = newest

    def _release(self, tenant: str) -> list:
        """Release every timestamp all active shards have contributed."""
        if self.shard_map is None:
            return []
        active = self.shard_map.active_shards()
        out = []
        nxt = self._next_release[tenant]
        while True:
            got = self._parts[tenant].get(nxt)
            if got is None or any(s not in got for s in active):
                break
            stitched = self.shard_map.stitch(got)
            self._own.boundary_words += self.shard_map.boundary_words(
                stitched.shape[1]
            )
            self._released[tenant].append(stitched)
            out.append((nxt, stitched))
            del self._parts[tenant][nxt]
            nxt += 1
        self._next_release[tenant] = nxt
        return out
