"""Guarded ingestion: validation, dead-lettering, deterministic retry.

This is the first line of defence between a hostile update feed and the
streaming engine.  Three mechanisms, composable and individually
testable:

* :func:`snapshot_violation` / :func:`repro.graphs.updates.event_violation`
  decide *whether* an artefact may enter the system;
* :class:`GuardedIngest` applies an event batch with
  :func:`~repro.graphs.updates.apply_events`, whose per-event replay
  hands each poison event to a :class:`DeadLetterQueue` instead of
  raising — one replay per batch, and the replay rules stay in
  :mod:`repro.graphs.updates`;
* :func:`with_retry` wraps transiently-failing callables (storage
  requests) in bounded retry with deterministic exponential backoff plus
  seeded jitter.  Delays are **virtual** — recorded, never slept — so the
  schedule documents what a deployment would do while tests stay instant
  and rule R001 (no wall-clock) stays green.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np

from ..engine.metrics import ExecutionMetrics
from ..graphs.snapshot import CSRSnapshot, absent_row_violation
from ..graphs.updates import UpdateEvent, UpdateKind, apply_events
from .faults import TransientStorageError

__all__ = [
    "DeadLetter",
    "DeadLetterQueue",
    "GuardedIngest",
    "RetryExhaustedError",
    "RetryPolicy",
    "redrain_dead_letters",
    "snapshot_violation",
    "with_retry",
]


class RetryExhaustedError(RuntimeError):
    """A transient fault persisted past the retry budget."""


@dataclass(frozen=True)
class DeadLetter:
    """One quarantined artefact: when it arrived, why it was refused,
    and, for an event, its ``row`` in the batch it came in."""

    step: int
    reason: str
    payload: object = None
    row: int | None = None

    def __post_init__(self) -> None:
        if self.step < 0:
            raise ValueError(f"dead-letter step must be >= 0, got {self.step}")


class DeadLetterQueue:
    """Ordered quarantine for poison events and snapshots.

    Nothing is ever dropped silently: every artefact validation refuses
    lands here with its rejection reason, so an operator can replay or
    audit the stream after the fact.
    """

    def __init__(self) -> None:
        self.letters: list[DeadLetter] = []

    def record(
        self, step: int, reason: str, payload=None, row: int | None = None
    ) -> DeadLetter:
        letter = DeadLetter(step=step, reason=reason, payload=payload, row=row)
        self.letters.append(letter)
        return letter

    def __len__(self) -> int:
        return len(self.letters)

    def by_reason(self) -> dict[str, int]:
        """Tally of quarantined artefacts by rejection reason."""
        out: dict[str, int] = {}
        for letter in self.letters:
            out[letter.reason] = out.get(letter.reason, 0) + 1
        return out

    # ------------------------------------------------------------------
    # capture persistence (the ``repro dlq`` seam)
    # ------------------------------------------------------------------
    def save(self, path) -> None:
        """Write the queue as a pickle-free ``.npz`` capture.

        Event payloads are flattened field-by-field (kind / vertex / edge
        pair / feature vector), beside the letter's batch row; snapshot
        and exotic payloads are recorded as a descriptive marker only —
        they are not replayable artefacts, and loading a capture never
        executes code.
        """
        arrays: dict = {"meta/count": np.int64(len(self.letters))}
        for i, letter in enumerate(self.letters):
            p = f"letters/{i}"
            arrays[f"{p}/step"] = np.int64(letter.step)
            arrays[f"{p}/reason"] = np.str_(letter.reason)
            if letter.row is not None:
                arrays[f"{p}/row"] = np.int64(letter.row)
            payload = letter.payload
            if isinstance(payload, UpdateEvent) and self._encodable(payload):
                kind = payload.kind
                arrays[f"{p}/ptype"] = np.str_("event")
                arrays[f"{p}/kind"] = np.str_(
                    kind.value if isinstance(kind, UpdateKind) else str(kind)
                )
                arrays[f"{p}/kind_known"] = np.bool_(
                    isinstance(kind, UpdateKind)
                )
                arrays[f"{p}/vertex"] = np.int64(int(payload.vertex))
                if isinstance(payload.payload, tuple):
                    arrays[f"{p}/edge"] = np.asarray(
                        [int(payload.payload[0]), int(payload.payload[1])],
                        dtype=np.int64,
                    )
                elif isinstance(payload.payload, np.ndarray):
                    arrays[f"{p}/feature"] = np.asarray(payload.payload)
            elif payload is None:
                arrays[f"{p}/ptype"] = np.str_("none")
            else:
                arrays[f"{p}/ptype"] = np.str_("opaque")
                arrays[f"{p}/desc"] = np.str_(type(payload).__name__)
        np.savez_compressed(path, **arrays)

    @staticmethod
    def _encodable(ev: UpdateEvent) -> bool:
        """Whether an event survives the flat-array round trip."""
        if not isinstance(ev.vertex, (int, np.integer)):
            return False
        payload = ev.payload
        if payload is None or isinstance(payload, np.ndarray):
            return True
        return (
            isinstance(payload, tuple)
            and len(payload) == 2
            and all(isinstance(x, (int, np.integer)) for x in payload)
        )

    @classmethod
    def load(cls, path) -> "DeadLetterQueue":
        """Rebuild a queue from a capture written by :meth:`save`."""
        queue = cls()
        with np.load(path, allow_pickle=False) as data:
            keys = set(data.files)
            for i in range(int(data["meta/count"])):
                p = f"letters/{i}"
                step = int(data[f"{p}/step"])
                reason = str(np.asarray(data[f"{p}/reason"]).item())
                ptype = str(np.asarray(data[f"{p}/ptype"]).item())
                payload: object = None
                if ptype == "event":
                    kind_raw = str(np.asarray(data[f"{p}/kind"]).item())
                    kind: object = (
                        UpdateKind(kind_raw)
                        if bool(data[f"{p}/kind_known"])
                        else kind_raw
                    )
                    body: object = None
                    if f"{p}/edge" in keys:
                        pair = np.asarray(data[f"{p}/edge"])
                        body = (int(pair[0]), int(pair[1]))
                    elif f"{p}/feature" in keys:
                        body = np.asarray(data[f"{p}/feature"])
                    payload = UpdateEvent(
                        kind,  # type: ignore[arg-type]
                        int(data[f"{p}/vertex"]),
                        body,  # type: ignore[arg-type]
                    )
                elif ptype == "opaque":
                    payload = str(np.asarray(data[f"{p}/desc"]).item())
                row = int(data[f"{p}/row"]) if f"{p}/row" in keys else None
                queue.record(step, reason, payload=payload, row=row)
        return queue


# ----------------------------------------------------------------------
# snapshot validation
# ----------------------------------------------------------------------
def snapshot_violation(
    snap,
    *,
    num_vertices: int | None = None,
    dim: int | None = None,
) -> str | None:
    """Explain why ``snap`` must not enter the stream, or ``None``.

    Catches artefacts that bypassed :class:`CSRSnapshot.__post_init__`
    (torn writes deserialised straight into object fields), neighbour
    lists that are not strictly ascending (unsorted or duplicated), an
    absent vertex that holds edges (the canonical form gives it an empty
    row), non-finite feature values, and — when ``num_vertices``/``dim``
    are given — shape drift against the stream's pinned geometry.

    The structural checks (CSR shape, id ranges, row order, empty absent
    rows, finite features) cost O(n·d + E).  On a read-only snapshot
    (:attr:`CSRSnapshot.read_only`, which the serving cluster shares
    between its shards) their verdict is cached with the arrays it
    judged, so every later call costs O(1); a writable snapshot could
    change in place, so it is checked in full on every call.
    ``num_vertices`` and ``dim`` are checked on every call either way.
    """
    if not isinstance(snap, CSRSnapshot):
        return f"not a CSRSnapshot: {type(snap).__name__}"
    arrays = (snap.indptr, snap.indices, snap.features, snap.present)
    cached = snap._verdict
    if cached is not None and all(map(operator.is_, cached[0], arrays)):
        reason = cached[1]
    else:
        reason = _structure_violation(snap)
        if snap.read_only:
            snap._verdict = (arrays, reason)
    if reason is not None:
        return reason
    n = snap.indptr.size - 1
    if num_vertices is not None and n != num_vertices:
        return f"vertex count {n} != expected {num_vertices}"
    if dim is not None and snap.features.shape[1] != dim:
        return (
            f"feature dimension {snap.features.shape[1]} != expected {dim}"
        )
    return None


def _structure_violation(snap: CSRSnapshot) -> str | None:
    """The checks of :func:`snapshot_violation` that read the arrays'
    contents: what a read-only snapshot caches."""
    indptr, indices = snap.indptr, snap.indices
    if indptr.ndim != 1 or indptr.size < 1:
        return "indptr is not a 1-d row-pointer array"
    n = indptr.size - 1
    if int(indptr[0]) != 0 or int(indptr[-1]) != indices.size:
        return (
            f"truncated CSR: indptr spans [{int(indptr[0])},"
            f" {int(indptr[-1])}] but indices holds {indices.size} entries"
        )
    if bool(np.any(np.diff(indptr) < 0)):
        return "indptr is not non-decreasing"
    if indices.size and (int(indices.min()) < 0 or int(indices.max()) >= n):
        return f"neighbour id out of range [0, {n})"
    # each row strictly ascending (sorted, no duplicate): the neighbour-
    # list merge is exact list equality only on such rows, and
    # aggregation sums in CSR order.  A step may fall only where a row
    # begins.
    ascending = indices[1:] > indices[:-1]
    starts = indptr[1:-1]
    ascending[starts[(starts > 0) & (starts < indices.size)] - 1] = True
    if not bool(ascending.all()):
        return "neighbour list not strictly ascending"
    if snap.present.shape != (n,):
        return f"present mask shape {snap.present.shape} != ({n},)"
    reason = absent_row_violation(indptr, snap.present)
    if reason is not None:
        return reason
    if snap.features.ndim != 2 or snap.features.shape[0] != n:
        return (
            f"features shape {snap.features.shape} does not cover"
            f" {n} vertices"
        )
    if not bool(np.isfinite(snap.features).all()):
        return "non-finite feature values"
    return None


# ----------------------------------------------------------------------
# guarded event application
# ----------------------------------------------------------------------
class GuardedIngest:
    """Apply hostile event batches without raising.

    :meth:`apply` runs the strict :func:`apply_events` with a ``reject``
    callback, so an event is quarantined if and only if the strict
    replay would raise on it, and the successor is the replay of the
    events that survive.
    """

    def __init__(self, *, dlq: DeadLetterQueue | None = None):
        self.dlq = dlq if dlq is not None else DeadLetterQueue()
        self.metrics = ExecutionMetrics()

    def apply(
        self, snap: CSRSnapshot, events, *, step: int = 0
    ) -> CSRSnapshot:
        """Apply ``events`` (an :class:`~repro.graphs.updates.EventBatch`
        or a list of events) to ``snap``, dead-lettering poison events.

        A clean batch is validated once, on its arrays, inside
        ``apply_events``.  Otherwise the batch is replayed once, event by
        event: each poison event is recorded at ``step`` with its reason
        and batch row, in arrival order, and the rest apply.
        """

        def reject(row: int, ev, reason: str) -> None:
            self.dlq.record(step, reason, payload=ev, row=row)
            self.metrics.dead_letter_events += 1
            self.metrics.incidents += 1

        return apply_events(snap, events, reject=reject)


# ----------------------------------------------------------------------
# deterministic re-drain
# ----------------------------------------------------------------------
def redrain_dead_letters(
    queue: DeadLetterQueue, graph
) -> tuple[list[DeadLetter], list[DeadLetter]]:
    """Re-validate a capture against ``graph``'s authoritative snapshots.

    Each event-payload letter is pushed back through
    :meth:`GuardedIngest.apply` at its recorded step (clamped to the
    graph's last snapshot); letters whose payload is not a replayable
    event — torn snapshots, opaque artefacts — stay quarantined by
    definition.  Returns ``(readmitted, still_poison)``; the split is
    deterministic, so running a re-drain twice yields the same verdicts.
    """
    readmitted: list[DeadLetter] = []
    still_poison: list[DeadLetter] = []
    last = graph.num_snapshots - 1
    for letter in queue.letters:
        payload = letter.payload
        if not isinstance(payload, UpdateEvent):
            still_poison.append(letter)
            continue
        guard = GuardedIngest()
        guard.apply(graph[min(letter.step, last)], [payload], step=letter.step)
        (still_poison if guard.dlq.letters else readmitted).append(letter)
    return readmitted, still_poison


# ----------------------------------------------------------------------
# bounded deterministic retry
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class RetryPolicy:
    """Exponential backoff with seeded jitter; all delays virtual."""

    max_attempts: int = 3
    base_delay_s: float = 0.001
    factor: float = 2.0
    jitter: float = 0.1
    seed: int = 0

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError(
                f"max_attempts must be >= 1, got {self.max_attempts}"
            )
        if self.base_delay_s < 0.0:
            raise ValueError(
                f"base_delay_s must be >= 0, got {self.base_delay_s}"
            )
        if self.factor < 1.0:
            raise ValueError(f"factor must be >= 1, got {self.factor}")
        if not 0.0 <= self.jitter <= 1.0:
            raise ValueError(f"jitter must be in [0, 1], got {self.jitter}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")

    def delay_s(self, attempt: int) -> float:
        """Backoff before retry ``attempt`` (1-based) — deterministic for
        a fixed (seed, attempt)."""
        if attempt < 1:
            raise ValueError(f"attempt must be >= 1, got {attempt}")
        u = float(np.random.default_rng([self.seed, attempt]).random())
        return (
            self.base_delay_s
            * self.factor ** (attempt - 1)
            * (1.0 + self.jitter * u)
        )


def with_retry(
    fn,
    *,
    policy: RetryPolicy | None = None,
    retryable: tuple = (TransientStorageError,),
    metrics: ExecutionMetrics | None = None,
):
    """Call ``fn`` under bounded retry; returns ``(result, delays)``.

    ``delays`` is the list of virtual backoff delays (seconds) the policy
    scheduled between attempts — recorded, never slept.  Non-retryable
    exceptions propagate untouched; exhausting the budget raises
    :class:`RetryExhaustedError` chained to the last failure.  When
    ``metrics`` is given, every call attempt bumps
    ``metrics.retry_attempts``, each failed attempt bumps
    ``metrics.retries``, and every virtual backoff delay accumulates into
    ``metrics.retry_backoff_ns`` — so retry pressure shows up in the same
    report as throughput instead of being invisible.
    """
    policy = policy if policy is not None else RetryPolicy()
    delays: list[float] = []
    last: Exception | None = None
    for attempt in range(1, policy.max_attempts + 1):
        if metrics is not None:
            metrics.retry_attempts += 1
        try:
            return fn(), delays
        except retryable as exc:
            last = exc
            if metrics is not None:
                metrics.retries += 1
            if attempt < policy.max_attempts:
                delay = policy.delay_s(attempt)
                delays.append(delay)
                if metrics is not None:
                    metrics.retry_backoff_ns += int(round(delay * 1e9))
    raise RetryExhaustedError(
        f"gave up after {policy.max_attempts} attempts: {last}"
    ) from last
