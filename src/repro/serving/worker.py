"""One shard of the serving cluster.

A :class:`ShardWorker` runs the deterministic engine for every
registered tenant over the whole replicated snapshots, computing the
rows it owns (:meth:`ShardWorker.own` — see
:mod:`repro.serving.sharding`), wrapped in
:class:`~repro.resilience.supervisor.ResilientStreamingInference` so
engine faults inside a shard degrade bit-identically to the reference
path.  On top of the streams it keeps the machinery the supervisor's
recovery protocol needs:

* a per-tenant :class:`~repro.resilience.checkpoint.CheckpointStore`
  (keep-last-K rotation) written after every completed window;
* a per-tenant **backlog** of admitted-but-unprocessed snapshots, the
  cluster-side feed buffer that makes catch-up replay possible;
* virtual-time health state: ``busy_until`` models per-item service
  time (``slow_factor`` ticks per snapshot), ``last_heartbeat`` is what
  the :class:`~repro.serving.cluster.ShardSupervisor` watches.

Fault seams mirror the shard-level
:class:`~repro.resilience.faults.FaultKind` members: :meth:`crash`
loses all in-memory stream state, :meth:`stall` stops processing *and*
heartbeating, :meth:`slow` stretches per-item service time, and
:meth:`tear_checkpoints` / :meth:`flake_storage` sabotage the recovery
path itself.  :meth:`recover` is the other half: restore each tenant
from the newest loadable checkpoint (riding
:func:`~repro.resilience.ingest.with_retry`, falling back across torn
checkpoints, cold-starting when nothing survives) and replay the
admitted history — which reproduces the lost windows bit-identically.
"""

from __future__ import annotations

from ..engine.metrics import ExecutionMetrics
from ..engine.streaming import StreamResult
from ..resilience.checkpoint import CheckpointStore, CorruptCheckpointError
from ..resilience.ingest import RetryExhaustedError, RetryPolicy, with_retry
from ..resilience.supervisor import ResilientStreamingInference

__all__ = ["ShardWorker"]


class ShardWorker:
    """One supervised shard: per-tenant streams, checkpoints, backlog."""

    def __init__(
        self,
        index: int,
        model_factory,
        *,
        window_size: int = 4,
        enable_skipping: bool = True,
        keep_last: int = 3,
    ):
        if index < 0:
            raise ValueError(f"index must be >= 0, got {index}")
        if not callable(model_factory):
            raise ValueError("model_factory must be callable")
        self.index = index
        self.model_factory = model_factory
        self.window_size = window_size
        self.enable_skipping = enable_skipping
        self.keep_last = keep_last
        self.rows = None  # owned vertex ids; every row until own()
        self.streams: dict[str, ResilientStreamingInference] = {}
        self.stores: dict[str, CheckpointStore] = {}
        self._backlog: dict[str, list] = {}
        # virtual-time health state
        self.alive = True
        self.stalled = False
        self.slow_factor = 1
        self.slow_reported = False  # supervisor's one-shot slow incident
        self.busy_until = 0
        self.last_heartbeat = 0

    # ------------------------------------------------------------------
    def _fresh_stream(self) -> ResilientStreamingInference:
        return ResilientStreamingInference(
            self.model_factory(),
            window_size=self.window_size,
            enable_skipping=self.enable_skipping,
            rows=self.rows,
        )

    def own(self, rows) -> None:
        """Take ownership of ``rows`` (vertex ids): every stream of this
        worker, fresh or recovered, computes those rows only.  The
        cluster calls it once, when it pins its
        :class:`~repro.serving.sharding.ShardMap` on the first admitted
        snapshot — before any stream has been fed."""
        if any(
            sup.stream.timestamp or sup.stream.pending
            for sup in self.streams.values()
        ):
            raise ValueError("cannot change the ownership of a fed shard")
        self.rows = rows
        for name in self.streams:
            self.streams[name] = self._fresh_stream()

    def register(self, tenant: str) -> None:
        if tenant in self.stores:
            raise ValueError(f"tenant {tenant!r} already registered")
        self.streams[tenant] = self._fresh_stream()
        self.stores[tenant] = CheckpointStore(keep_last=self.keep_last)
        self._backlog[tenant] = []

    # ------------------------------------------------------------------
    # feed and drain (virtual time)
    # ------------------------------------------------------------------
    def enqueue(self, tenant: str, snapshot) -> None:
        """Queue an admitted snapshot: the cluster's read-only copy,
        shared with the history and every other shard."""
        self._backlog[tenant].append(snapshot)

    def depth(self, tenant: str) -> int:
        """Admitted-but-unprocessed snapshots queued for ``tenant``."""
        return len(self._backlog[tenant])

    def total_depth(self) -> int:
        return sum(len(q) for q in self._backlog.values())

    def heartbeat(self, now: int) -> None:
        """Record liveness — crashed and stalled workers stay silent."""
        if self.alive and not self.stalled:
            self.last_heartbeat = now

    def drain(self, now: int) -> dict[str, list[StreamResult]]:
        """Process backlog items the worker has capacity for by ``now``.

        Each item costs ``slow_factor`` ticks of service time; a healthy
        worker keeps pace with one arrival per tick, a slowed worker
        falls behind and its backlog (and the cluster's backpressure)
        grows.  Completed windows are checkpointed to the tenant's
        rotating store before the results leave the worker.
        """
        out: dict[str, list[StreamResult]] = {}
        if not self.alive or self.stalled:
            return out
        for name in sorted(self._backlog):
            queue = self._backlog[name]
            while queue and self.busy_until <= now:
                snap = queue.pop(0)
                result = self.streams[name].push(snap)
                self.busy_until += self.slow_factor
                if result is not None:
                    out.setdefault(name, []).append(result)
                    self.stores[name].save(self.streams[name].stream)
        return out

    def flush(self, tenant: str) -> StreamResult | None:
        """End-of-stream: process the trailing partial window."""
        result = self.streams[tenant].flush()
        if result is not None:
            self.stores[tenant].save(self.streams[tenant].stream)
        return result

    # ------------------------------------------------------------------
    # fault seams (repro.resilience.faults.SHARD_FAULTS)
    # ------------------------------------------------------------------
    def crash(self) -> None:
        """Kill the worker: every in-memory stream state is lost.

        Checkpoints and the cluster-side backlog survive — exactly the
        state a process crash leaves behind."""
        self.alive = False
        self.stalled = False
        self.streams = {}

    def stall(self) -> None:
        """Wedge the worker: it stops processing and heartbeating but
        keeps its memory (a deadlock, not a death)."""
        self.stalled = True

    def slow(self, factor: int) -> None:
        """Stretch per-item service time to ``factor`` ticks."""
        if factor < 1:
            raise ValueError(f"factor must be >= 1, got {factor}")
        self.slow_factor = factor
        self.slow_reported = False

    def tear_checkpoints(self) -> None:
        """Truncate the newest checkpoint of every tenant store."""
        for name in sorted(self.stores):
            self.stores[name].corrupt_latest()

    def flake_storage(self, count: int = 1) -> None:
        """Make the next ``count`` checkpoint loads per tenant fail
        transiently (retryable under ``with_retry``)."""
        for name in sorted(self.stores):
            self.stores[name].fail_next_loads(count)

    # ------------------------------------------------------------------
    # recovery
    # ------------------------------------------------------------------
    def recover(
        self,
        now: int,
        history: dict[str, list],
        *,
        policy: RetryPolicy,
        metrics: ExecutionMetrics,
    ) -> tuple[dict[str, list[StreamResult]], list[dict]]:
        """Restart the worker and re-establish every tenant's stream.

        For each tenant, walk the checkpoint store newest-first: load
        under ``with_retry`` (transient storage flakes are retried with
        seeded backoff into ``metrics``), skip torn checkpoints and
        ones whose state does not cover this shard's rows
        (:class:`CorruptCheckpointError`) and exhausted keys, restore
        the first usable carry, then replay the admitted ``history``
        from its ``timestamp``: a checkpoint holds no snapshot, so the
        replay starts at the last window boundary before the save.
        When no checkpoint is usable the stream cold-starts and the full
        history replays.  Either way the recovered stream is
        bit-identical to one that never failed.

        Returns the window results produced during replay plus one
        recovery note per tenant (outcome, torn count, replay length,
        retry delays) for the supervisor's incident log.
        """
        self.alive = True
        self.stalled = False
        self.slow_factor = 1
        self.slow_reported = False
        self.busy_until = now
        self.last_heartbeat = now
        results: dict[str, list[StreamResult]] = {}
        notes: list[dict] = []
        for name in sorted(self.stores):
            sup = self._fresh_stream()
            self.streams[name] = sup
            store = self.stores[name]
            start = 0
            torn = 0
            exhausted = 0
            outcome = "cold-start"
            delays: list[float] = []
            stored = store.keys()
            for key in reversed(stored):
                try:
                    carry, delays = with_retry(
                        lambda k=key: store.restore(sup.stream, k),
                        policy=policy,
                        metrics=metrics,
                    )
                except CorruptCheckpointError:
                    torn += 1
                    continue
                except RetryExhaustedError:
                    exhausted += 1
                    continue
                start = carry.timestamp
                outcome = key
                break
            replayed = history.get(name, [])[start:]
            completed = False
            for snap in replayed:
                result = sup.push(snap)
                if result is not None:
                    results.setdefault(name, []).append(result)
                    completed = True
            if completed:  # else the restored checkpoint is still current
                store.save(sup.stream)
            self._backlog[name] = []
            notes.append(
                {
                    "tenant": name,
                    "outcome": outcome,
                    "torn": torn,
                    "exhausted": exhausted,
                    "replayed": len(replayed),
                    "retry_delays": delays,
                }
            )
        return results, notes

    # ------------------------------------------------------------------
    @property
    def metrics(self) -> ExecutionMetrics:
        """This shard's counters merged across its tenant streams."""
        out = ExecutionMetrics()
        for name in sorted(self.streams):
            out = out.merge(self.streams[name].metrics)
        return out
