"""Deterministic fault injection for the streaming serving path.

A real dynamic-graph feed is hostile: events arrive corrupted, duplicated
or out of order, feature rows carry NaN/Inf, snapshots are torn mid-write,
and the storage backend fails transiently.  This module turns each of
those failure modes into a *seeded, reproducible* fault so every recovery
path in :mod:`repro.resilience` is exercised by construction — no
wall-clock time and no unseeded entropy (rule R001 stays green), so a
chaos campaign replays bit-identically for a fixed plan.

A :class:`FaultPlan` is a schedule of :class:`FaultSpec` records pinned to
*steps* (snapshot/timestamp indices of the stream).  For each spec the
plan manufactures exactly one concrete fault artefact:

===========================  ==============================================
fault kind                   artefact
===========================  ==============================================
``CORRUPT_EVENT``            event with an out-of-range vertex id
``DUPLICATE_EVENT``          insert of an edge that already exists
``OUT_OF_ORDER_EVENT``       delete of an edge that does not exist yet
``UNKNOWN_KIND_EVENT``       event whose kind is not an :class:`UpdateKind`
``NAN_FEATURE``              feature payload containing NaN
``INF_FEATURE``              feature payload containing Inf
``TRUNCATED_SNAPSHOT``       CSR arrays cut short (torn write)
``TRANSIENT_STORAGE``        retryable :class:`TransientStorageError`
``SANITIZER_VIOLATION``      synthetic :class:`SanitizerViolation` raised
                             while a window is being processed
``WORKER_CRASH``             shard worker dies and loses in-memory state
``WORKER_STALL``             shard worker stops heartbeating indefinitely
``SLOW_SHARD``               shard worker keeps running at a fraction of
                             its normal rate (hot/straggler shard)
``TORN_CHECKPOINT``          shard's newest checkpoint is truncated
===========================  ==============================================

The shard-level kinds (``SHARD_FAULTS``) target one member of a
:class:`repro.serving.ShardCluster` — their :class:`FaultSpec` carries a
``shard`` index — and are scheduled with :meth:`FaultPlan.generate_cluster`
so every shard is killed and stalled at least once per campaign.  The
original single-stream kinds are grouped as ``STREAM_FAULTS``.

Poison artefacts are built so that validation *must* reject them — each
event fault produces exactly one invalid event, which makes dead-letter
and incident counts exactly predictable from the plan.
"""

from __future__ import annotations

import copy
import enum
from dataclasses import dataclass

import numpy as np

from ..check.sanitizer import SanitizerViolation
from ..graphs.snapshot import CSRSnapshot
from ..graphs.updates import EventBatch, UpdateEvent, UpdateKind

__all__ = [
    "ENGINE_FAULTS",
    "EVENT_FAULTS",
    "FaultKind",
    "FaultPlan",
    "FaultSpec",
    "FlakyHBM",
    "SHARD_FAULTS",
    "SNAPSHOT_FAULTS",
    "STORAGE_FAULTS",
    "STREAM_FAULTS",
    "TransientStorageError",
]


class TransientStorageError(RuntimeError):
    """A storage request failed in a retryable way (injected)."""


class FaultKind(enum.Enum):
    """Every failure mode the resilience layer must survive."""

    CORRUPT_EVENT = "corrupt_event"
    DUPLICATE_EVENT = "duplicate_event"
    OUT_OF_ORDER_EVENT = "out_of_order_event"
    UNKNOWN_KIND_EVENT = "unknown_kind_event"
    NAN_FEATURE = "nan_feature"
    INF_FEATURE = "inf_feature"
    TRUNCATED_SNAPSHOT = "truncated_snapshot"
    TRANSIENT_STORAGE = "transient_storage"
    SANITIZER_VIOLATION = "sanitizer_violation"
    WORKER_CRASH = "worker_crash"
    WORKER_STALL = "worker_stall"
    SLOW_SHARD = "slow_shard"
    TORN_CHECKPOINT = "torn_checkpoint"


#: faults delivered as poison rows of the ingest stream's event batches
EVENT_FAULTS = frozenset(
    {
        FaultKind.CORRUPT_EVENT,
        FaultKind.DUPLICATE_EVENT,
        FaultKind.OUT_OF_ORDER_EVENT,
        FaultKind.UNKNOWN_KIND_EVENT,
        FaultKind.NAN_FEATURE,
        FaultKind.INF_FEATURE,
    }
)
#: faults delivered as malformed snapshots pushed at the stream
SNAPSHOT_FAULTS = frozenset({FaultKind.TRUNCATED_SNAPSHOT})
#: faults raised from inside window processing
ENGINE_FAULTS = frozenset({FaultKind.SANITIZER_VIOLATION})
#: faults raised from the O-CSR/HBM storage path
STORAGE_FAULTS = frozenset({FaultKind.TRANSIENT_STORAGE})
#: faults targeting one shard worker of a serving cluster
SHARD_FAULTS = frozenset(
    {
        FaultKind.WORKER_CRASH,
        FaultKind.WORKER_STALL,
        FaultKind.SLOW_SHARD,
        FaultKind.TORN_CHECKPOINT,
    }
)
#: the original single-stream kinds (everything that is not shard-level)
STREAM_FAULTS = EVENT_FAULTS | SNAPSHOT_FAULTS | ENGINE_FAULTS | STORAGE_FAULTS


@dataclass(frozen=True)
class FaultSpec:
    """One scheduled fault: *what* goes wrong at *which* step.

    Shard-level kinds additionally name *which* shard (``shard >= 0``);
    stream-level kinds leave ``shard`` at the sentinel ``-1``.
    """

    kind: FaultKind
    step: int
    shard: int = -1

    def __post_init__(self) -> None:
        if not isinstance(self.kind, FaultKind):
            raise ValueError(f"kind must be a FaultKind, got {self.kind!r}")
        if self.step < 0:
            raise ValueError(f"fault step must be >= 0, got {self.step}")
        if self.shard < -1:
            raise ValueError(f"shard must be >= -1, got {self.shard}")
        if self.kind in SHARD_FAULTS and self.shard < 0:
            raise ValueError(
                f"shard-level fault {self.kind.value} needs a shard index"
            )


class FaultPlan:
    """A seeded, immutable schedule of faults plus their factories."""

    def __init__(self, specs, *, seed: int = 0):
        self.seed = int(seed)
        self.specs: list[FaultSpec] = sorted(
            specs, key=lambda s: (s.step, s.kind.value)
        )

    # ------------------------------------------------------------------
    @classmethod
    def generate(
        cls,
        *,
        seed: int,
        num_steps: int,
        kinds=None,
        per_kind: int = 1,
    ) -> "FaultPlan":
        """Deterministically place ``per_kind`` faults of each kind on
        steps ``1 .. num_steps - 1`` (step 0 delivers the initial
        snapshot and carries no events).  Defaults to the single-stream
        kinds (``STREAM_FAULTS``); shard-level kinds need a target shard
        and are scheduled by :meth:`generate_cluster` instead."""
        if num_steps < 2:
            raise ValueError("need at least 2 steps to schedule faults")
        if per_kind < 1:
            raise ValueError("per_kind must be >= 1")
        chosen = sorted(kinds or STREAM_FAULTS, key=lambda k: k.value)
        if any(k in SHARD_FAULTS for k in chosen):
            raise ValueError(
                "shard-level kinds need a target shard;"
                " use FaultPlan.generate_cluster"
            )
        specs: list[FaultSpec] = []
        for ki, kind in enumerate(chosen):
            rng = np.random.default_rng([seed, ki])
            for step in rng.integers(1, num_steps, size=per_kind):
                specs.append(FaultSpec(kind, int(step)))
        return cls(specs, seed=seed)

    @classmethod
    def generate_cluster(
        cls,
        *,
        seed: int,
        num_steps: int,
        num_shards: int,
        kinds=None,
        per_shard: int = 1,
    ) -> "FaultPlan":
        """Deterministically schedule shard-level faults so every shard
        receives ``per_shard`` faults of each chosen kind (default: all
        of ``SHARD_FAULTS``, so each shard is crashed, stalled, slowed
        and torn-checkpointed at least once — the chaos-proof campaign
        shape the acceptance criteria ask for)."""
        if num_steps < 2:
            raise ValueError("need at least 2 steps to schedule faults")
        if num_shards < 1:
            raise ValueError(f"num_shards must be >= 1, got {num_shards}")
        if per_shard < 1:
            raise ValueError("per_shard must be >= 1")
        chosen = sorted(kinds or SHARD_FAULTS, key=lambda k: k.value)
        if any(k not in SHARD_FAULTS for k in chosen):
            raise ValueError(
                "generate_cluster schedules shard-level kinds only"
            )
        specs: list[FaultSpec] = []
        for shard in range(num_shards):
            for ki, kind in enumerate(chosen):
                rng = np.random.default_rng([seed, shard, ki])
                for step in rng.integers(1, num_steps, size=per_shard):
                    specs.append(FaultSpec(kind, int(step), shard))
        return cls(specs, seed=seed)

    # ------------------------------------------------------------------
    def at(self, step: int, kinds=None) -> list[FaultSpec]:
        """Specs scheduled for ``step``, optionally filtered by kind."""
        return [
            s
            for s in self.specs
            if s.step == step and (kinds is None or s.kind in kinds)
        ]

    def event_specs(self, step: int) -> list[FaultSpec]:
        return self.at(step, EVENT_FAULTS)

    def snapshot_specs(self, step: int) -> list[FaultSpec]:
        return self.at(step, SNAPSHOT_FAULTS)

    def engine_specs(self, step: int) -> list[FaultSpec]:
        return self.at(step, ENGINE_FAULTS)

    def shard_specs(self, step: int) -> list[FaultSpec]:
        return self.at(step, SHARD_FAULTS)

    def shards_touched(self) -> frozenset:
        """Shard indices named by at least one shard-level spec."""
        return frozenset(
            s.shard for s in self.specs if s.kind in SHARD_FAULTS
        )

    def storage_failures(self) -> int:
        """Total scheduled transient-storage failures."""
        return sum(1 for s in self.specs if s.kind in STORAGE_FAULTS)

    def counts(self) -> dict[str, int]:
        """Fault tally by kind name (the plan side of the incident
        reconciliation)."""
        out: dict[str, int] = {}
        for s in self.specs:
            out[s.kind.value] = out.get(s.kind.value, 0) + 1
        return out

    def __len__(self) -> int:
        return len(self.specs)

    # ------------------------------------------------------------------
    # fault factories — each returns one concrete poison artefact
    # ------------------------------------------------------------------
    def poison_event(self, spec: FaultSpec, snap: CSRSnapshot) -> EventBatch:
        """A one-row batch guaranteed to be rejected when validated
        against the state described by ``snap`` (the snapshot the event
        stream has fully evolved to by the time this row is seen): an
        unknown kind, an id >= n, a NaN or Inf feature row, a duplicate
        insert, or a delete of an absent edge."""
        return EventBatch.from_events([self._poison(spec, snap)])

    def _poison(self, spec: FaultSpec, snap: CSRSnapshot) -> UpdateEvent:
        n = snap.num_vertices
        dim = snap.dim
        kind = spec.kind
        if kind is FaultKind.CORRUPT_EVENT:
            return UpdateEvent(
                UpdateKind.FEATURE_UPDATE,
                n + spec.step,
                np.zeros(dim, dtype=np.float32),
            )
        if kind is FaultKind.UNKNOWN_KIND_EVENT:
            return UpdateEvent("__not_a_kind__", 0)  # type: ignore[arg-type]
        if kind is FaultKind.NAN_FEATURE:
            x = np.zeros(dim, dtype=np.float32)
            x[0] = np.nan
            return UpdateEvent(UpdateKind.FEATURE_UPDATE, 0, x)
        if kind is FaultKind.INF_FEATURE:
            x = np.zeros(dim, dtype=np.float32)
            x[-1] = np.inf
            return UpdateEvent(UpdateKind.FEATURE_UPDATE, 0, x)
        if kind is FaultKind.DUPLICATE_EVENT:
            edges = snap.edge_array()
            if edges.shape[0]:
                s, d = int(edges[0, 0]), int(edges[0, 1])
                return UpdateEvent(UpdateKind.EDGE_INSERT, s, (s, d))
            # edgeless graph: fall back to an out-of-range endpoint,
            # which is rejected unconditionally
            return UpdateEvent(UpdateKind.EDGE_INSERT, 0, (0, n))
        if kind is FaultKind.OUT_OF_ORDER_EVENT:
            missing = self._absent_edge(snap)
            if missing is not None:
                s, d = missing
                return UpdateEvent(UpdateKind.EDGE_DELETE, s, (s, d))
            return UpdateEvent(UpdateKind.EDGE_DELETE, 0, (0, n))
        raise ValueError(f"{kind} is not an event-level fault")

    @staticmethod
    def _absent_edge(snap: CSRSnapshot) -> tuple[int, int] | None:
        """First (src, dst) pair not present in ``snap`` — deleting it
        models an out-of-order delete-before-insert delivery."""
        n = snap.num_vertices
        for s in range(n):
            row = set(snap.neighbors(s).tolist())
            for d in range(n):
                if d not in row:
                    return s, d
        return None

    def corrupt_snapshot(
        self, spec: FaultSpec, snap: CSRSnapshot
    ) -> CSRSnapshot:
        """A torn-write copy of ``snap`` whose CSR arrays are truncated.

        ``copy.copy`` sidesteps ``__post_init__`` — exactly how a torn
        write reaches a consumer without being caught at construction
        time; :func:`repro.resilience.ingest.snapshot_violation` must
        catch it at the ingest boundary instead.
        """
        if spec.kind not in SNAPSHOT_FAULTS:
            raise ValueError(f"{spec.kind} is not a snapshot-level fault")
        bad = copy.copy(snap)
        if snap.num_edges:
            bad.indices = snap.indices[: snap.num_edges // 2].copy()
        else:
            bad.indptr = snap.indptr[:-1].copy()
        return bad

    def violation(self, spec: FaultSpec) -> SanitizerViolation:
        """A synthetic invariant violation, as if the sanitizer tripped
        mid-window."""
        if spec.kind not in ENGINE_FAULTS:
            raise ValueError(f"{spec.kind} is not an engine-level fault")
        return SanitizerViolation(
            "synthetic-fault",
            "injected_faults",
            1,
            "== 0",
            where=f"resilience.faults.step{spec.step}",
        )


class FlakyHBM:
    """Duck-typed HBM front that fails its first ``failures`` requests.

    Wraps a :class:`repro.hardware.memory.HBMModel` (anything with a
    ``cycles(words=..., randoms=...)`` method) and raises
    :class:`TransientStorageError` deterministically, modelling a flaky
    storage backend behind the O-CSR loader.  Pass it to
    :meth:`repro.accel.tagnn.TaGNNSimulator.simulate` via ``hbm=`` and
    wrap the call in :func:`repro.resilience.ingest.with_retry`.
    """

    def __init__(self, inner, *, failures: int = 1):
        if failures < 0:
            raise ValueError(f"failures must be >= 0, got {failures}")
        self.inner = inner
        self.failures = failures
        self.calls = 0

    def cycles(self, *, words: float = 0.0, randoms: float = 0.0) -> float:
        self.calls += 1
        if self.calls <= self.failures:
            raise TransientStorageError(
                f"injected HBM failure on request {self.calls}"
                f" (of {self.failures} scheduled)"
            )
        return self.inner.cycles(words=words, randoms=randoms)
