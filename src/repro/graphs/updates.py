"""Update streams: the event-level view of a dynamic graph.

Real systems receive dynamic graphs as a stream of update events rather
than materialised snapshots.  This module converts between the two views:
:func:`event_stream` turns each :class:`~repro.graphs.dynamic.SnapshotDelta`
of a graph into an :class:`EventBatch`, and :func:`apply_events` replays a
batch onto a snapshot to reconstruct its successor.  The round trip is
exercised by property tests and by the O-CSR dynamic-maintenance benches
(the paper notes O-CSR "efficiently accommodates dynamic changes, such as
inserting, updating, and deleting edges and vertices").

A batch travels as arrays (a kind code, vertex id and ``(src, dst)`` pair
per row, plus the stacked feature rows); a list of :class:`UpdateEvent`
converts at the edge through :meth:`EventBatch.from_events`.
:func:`apply_events` checks the rows and the strict-replay rules with
vectorised alternation and presence checks, then assembles the successor's
CSR directly.  On any violation it falls back to
:func:`apply_events_reference`, the one per-event replay, which raises the
exact first-violation error or, given a ``reject`` callback, hands it each
violating row and skips it: the resilience ingest dead-letters that way, so
the strict-replay rules live in this module alone.  The batched path is
bit-identical to the reference on valid streams and indistinguishable from
it on hostile ones.
"""

from __future__ import annotations

import enum
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from ..check.shapes import contract
from .dynamic import SnapshotDelta, _edge_keys, snapshot_delta
from .snapshot import CSRSnapshot

__all__ = [
    "UpdateKind",
    "UpdateEvent",
    "EventBatch",
    "delta_to_events",
    "apply_events",
    "apply_events_reference",
    "event_stream",
    "event_violation",
]


class UpdateKind(enum.Enum):
    """The five event types a dynamic graph stream can carry."""

    EDGE_INSERT = "edge_insert"
    EDGE_DELETE = "edge_delete"
    FEATURE_UPDATE = "feature_update"
    VERTEX_ARRIVE = "vertex_arrive"
    VERTEX_DEPART = "vertex_depart"


@dataclass(frozen=True)
class UpdateEvent:
    """One atomic change.

    ``payload`` is ``(src, dst)`` for edge events, the new feature vector
    for feature updates, and ``None`` for vertex arrival/departure (the
    arrival feature travels in a separate FEATURE_UPDATE event).
    """

    kind: UpdateKind
    vertex: int
    payload: tuple[int, int] | np.ndarray | None = None


# a row's kind code is its kind's position in UpdateKind, or _UNKNOWN
_KINDS = tuple(UpdateKind)
_CODE = {kind: code for code, kind in enumerate(_KINDS)}
_INS, _DEL, _FEAT, _ARR, _DEP = range(5)
_UNKNOWN = -1


def _is_id(x) -> bool:
    """Whether ``x`` is an id the replay accepts and an int64 column holds."""
    return isinstance(x, (int, np.integer)) and 0 <= x < 2**63


_NO_FEATURES = np.empty((0, 0), dtype=np.float32)
_NO_FEATURES.flags.writeable = False


@dataclass(frozen=True, eq=False)
class EventBatch:
    """One batch of update events as arrays, one row per event.

    ``edge`` is ``-1`` on non-edge rows, and ``features[j]`` is the
    payload of feature-update row ``feature_rows[j]``.  ``source`` is
    the caller's list when the batch was converted from one: the
    per-event replay then sees those very objects.
    """

    kind: np.ndarray  # (E,) int64 codes: position in UpdateKind, or -1
    vertex: np.ndarray  # (E,) int64
    edge: np.ndarray  # (E, 2) int64
    feature_rows: np.ndarray  # (F,) int64, ascending
    features: np.ndarray  # (F, dim)
    source: list | None = field(default=None, repr=False)

    def __post_init__(self) -> None:
        E = len(self.kind)
        rows = len(self.kind if self.source is None else self.source)
        if (
            (self.kind.shape, self.vertex.shape, self.edge.shape, rows)
            != ((E,), (E,), (E, 2), E)
            or self.features.ndim != 2
            or self.feature_rows.shape != self.features.shape[:1]
        ):
            raise ValueError("EventBatch columns do not describe one batch")

    def __len__(self) -> int:
        return len(self.kind)

    @classmethod
    def from_delta(
        cls, delta: SnapshotDelta, new_features: np.ndarray | None = None
    ) -> EventBatch:
        """The batch that replays ``delta``: departures, edge deletions,
        arrivals, edge insertions, then (with ``new_features``) a feature
        row per arrived or changed vertex — an order that never touches a
        not-yet-arrived vertex."""
        touched = np.empty(0, dtype=np.int64)
        if new_features is not None:
            touched = np.union1d(delta.feature_changed, delta.arrived)
        blocks = (
            (_DEP, delta.departed, None),
            (_DEL, delta.removed_edges[:, 0], delta.removed_edges),
            (_ARR, delta.arrived, None),
            (_INS, delta.added_edges[:, 0], delta.added_edges),
            (_FEAT, touched, None),
        )
        E = sum(ids.size for _, ids, _ in blocks)
        return cls(
            kind=np.concatenate([np.full(i.size, c) for c, i, _ in blocks]),
            vertex=np.concatenate([i for _, i, _ in blocks]).astype(np.int64),
            edge=np.concatenate([
                np.full((ids.size, 2), -1) if pairs is None else pairs
                for _, ids, pairs in blocks
            ]).astype(np.int64),
            feature_rows=np.arange(E - touched.size, E),
            features=(
                _NO_FEATURES if new_features is None else new_features[touched]
            ),
        )

    @classmethod
    def from_events(cls, events) -> EventBatch:
        """Convert an iterable of events at the edge.  An item the
        columns cannot hold exactly (a malformed event, or a feature
        vector unlike the batch's first) becomes an unknown-code row,
        which sends the batch to the per-event replay of the kept list.
        """
        source = events if isinstance(events, list) else list(events)
        rows, feature_rows, features = [], [], []
        for row, ev in enumerate(source):  # repro: noqa R006 — converts a caller's list at the edge, not a hot path
            code, pair = _UNKNOWN, (-1, -1)
            if (
                isinstance(ev, UpdateEvent)
                and isinstance(ev.kind, UpdateKind)
                and _is_id(ev.vertex)
            ):
                code, x = _CODE[ev.kind], ev.payload
            if code in (_INS, _DEL):
                if isinstance(x, tuple) and len(x) == 2 and all(
                    map(_is_id, x)
                ):
                    pair = (int(x[0]), int(x[1]))
                else:
                    code = _UNKNOWN
            elif code == _FEAT:
                like = features[0] if features else x
                if (
                    isinstance(x, np.ndarray)
                    and x.ndim == 1
                    and x.dtype.kind in "fiu"
                    and (x.shape, x.dtype) == (like.shape, like.dtype)
                ):
                    feature_rows.append(row)
                    features.append(x)
                else:
                    code = _UNKNOWN
            vid = -1 if code == _UNKNOWN else int(ev.vertex)
            rows.append((code, vid, *pair))
        cols = np.array(rows, dtype=np.int64).reshape(-1, 4)
        return cls(
            kind=cols[:, 0],
            vertex=cols[:, 1],
            edge=cols[:, 2:],
            feature_rows=np.array(feature_rows, dtype=np.int64),
            features=np.stack(features) if features else _NO_FEATURES,
            source=source,
        )

    @classmethod
    def concat(cls, batches) -> EventBatch:
        """The rows of one or more ``batches``, in order, as one batch.
        It keeps a source list when any part has one."""
        batches = list(batches)
        offsets = np.cumsum([0] + [len(b) for b in batches])
        fed = [b.features for b in batches if b.feature_rows.size]
        source = None
        if any(b.source is not None for b in batches):
            source = [ev for b in batches for ev in b.events()]
        return cls(
            *(
                np.concatenate([getattr(b, name) for b in batches])
                for name in ("kind", "vertex", "edge")
            ),
            feature_rows=np.concatenate(
                [b.feature_rows + o for b, o in zip(batches, offsets)]
            ),
            features=np.concatenate(fed) if fed else _NO_FEATURES,
            source=source,
        )

    def events(self) -> list:
        """The batch as one event per row, for the per-event replay: the
        caller's own list when the batch was converted from one."""
        if self.source is not None:
            return self.source
        payload_at = dict(zip(self.feature_rows.tolist(), self.features))
        out = []
        rows = zip(*(a.tolist() for a in (self.kind, self.vertex, self.edge)))
        for row, (code, v, pair) in enumerate(rows):  # repro: noqa R006 — materialises rows only for the per-event replay
            kind = _KINDS[code] if 0 <= code < len(_KINDS) else code
            x = tuple(pair) if code in (_INS, _DEL) else payload_at.get(row)
            out.append(UpdateEvent(kind, v, x))
        return out


@contract("_, ?(n,f) f -> _")
def delta_to_events(
    delta: SnapshotDelta, new_features: np.ndarray | None = None
) -> list[UpdateEvent]:
    """Flatten a delta into an ordered event list: the rows of
    :meth:`EventBatch.from_delta`, one :class:`UpdateEvent` each."""
    return EventBatch.from_delta(delta, new_features).events()


@contract("_, int, int, (n,) b, _ -> _")
def event_violation(
    ev,
    *,
    num_vertices: int,
    dim: int,
    present: np.ndarray,
    edge_keys: set[int],
) -> str | None:
    """Explain why ``ev`` cannot be applied, or ``None`` when it can.

    ``present``/``edge_keys`` carry the replay state at the point the
    event would apply (vertex presence mask and the set of live
    ``src * num_vertices + dst`` edge keys).  This is the single
    validation authority of the strict replay, which
    :func:`apply_events_reference` runs for both raising and rejecting
    callers.
    """
    n = num_vertices
    if not isinstance(ev, UpdateEvent):
        return f"not an UpdateEvent: {type(ev).__name__}"
    if not isinstance(ev.kind, UpdateKind):
        return f"unknown event kind {ev.kind!r}"
    if not isinstance(ev.vertex, (int, np.integer)):
        return f"vertex id {ev.vertex!r} is not an integer"
    v = int(ev.vertex)
    if not 0 <= v < n:
        return f"vertex id {v} out of range [0, {n})"
    if ev.kind is UpdateKind.VERTEX_DEPART:
        if not present[v]:
            return f"departure of absent vertex {v}"
    elif ev.kind is UpdateKind.VERTEX_ARRIVE:
        if present[v]:
            return f"arrival of already-present vertex {v}"
    elif ev.kind in (UpdateKind.EDGE_INSERT, UpdateKind.EDGE_DELETE):
        payload = ev.payload
        if (
            not isinstance(payload, tuple)
            or len(payload) != 2
            or not all(isinstance(x, (int, np.integer)) for x in payload)
        ):
            return f"edge payload {payload!r} is not a (src, dst) pair"
        s, d = int(payload[0]), int(payload[1])
        if not (0 <= s < n and 0 <= d < n):
            return f"edge endpoint out of range [0, {n}): ({s}, {d})"
        key = s * n + d
        if ev.kind is UpdateKind.EDGE_DELETE:
            if key not in edge_keys:
                return f"deletion of absent edge ({s}, {d})"
        else:
            if key in edge_keys:
                return f"duplicate insertion of edge ({s}, {d})"
            if not (present[s] and present[d]):
                return f"insertion of edge ({s}, {d}) with absent endpoint"
    else:  # FEATURE_UPDATE
        x = ev.payload
        if not isinstance(x, np.ndarray) or x.shape != (dim,):
            return f"feature payload {x!r} does not have shape ({dim},)"
        if not bool(np.isfinite(x).all()):
            return f"non-finite feature payload for vertex {v}"
        if not present[v]:
            return f"feature update for absent vertex {v}"
    return None


# ----------------------------------------------------------------------
# batched replay
# ----------------------------------------------------------------------
def _row_violation(batch: EventBatch, n: int, dim: int) -> bool:
    """Whether any row is malformed on its own: an unknown code, an id
    out of ``[0, n)``, feature rows that are not exactly the
    feature-update rows, or a feature row of the wrong width or not
    finite."""
    kind, ids, pairs = batch.kind, batch.vertex, batch.edge[batch.kind <= _DEL]
    feature_rows = np.flatnonzero(kind == _FEAT)
    return bool(kind.size) and bool(
        int(kind.min()) < 0 or int(kind.max()) > _DEP
        or int(ids.min()) < 0 or int(ids.max()) >= n
        or (pairs.size and (int(pairs.min()) < 0 or int(pairs.max()) >= n))
        or not np.array_equal(batch.feature_rows, feature_rows)
        or batch.feature_rows.size and (
            batch.features.shape[1] != dim
            or not np.isfinite(batch.features).all()
        )
    )


def _group_positions(sorted_groups: np.ndarray) -> np.ndarray:
    """Rank of each element within its run of equal values (the input
    must already be sorted by group)."""
    m = sorted_groups.size
    if m == 0:
        return np.empty(0, dtype=np.int64)
    newgrp = np.empty(m, dtype=bool)
    newgrp[0] = True
    np.not_equal(sorted_groups[1:], sorted_groups[:-1], out=newgrp[1:])
    idx = np.arange(m, dtype=np.int64)
    starts = np.maximum.accumulate(np.where(newgrp, idx, 0))
    return idx - starts


def _member(sorted_keys: np.ndarray, q: np.ndarray):
    """Where each of ``q`` goes in the sorted ``sorted_keys``, and
    whether it is there."""
    at = np.searchsorted(sorted_keys, q)
    if not sorted_keys.size:
        return at, np.zeros(q.size, dtype=bool)
    return at, (at < sorted_keys.size) & (
        sorted_keys[np.minimum(at, sorted_keys.size - 1)] == q
    )


def _state_violation(
    snap: CSRSnapshot, batch: EventBatch, ekey: np.ndarray, key0: np.ndarray
) -> bool:
    """Whether *any* row of a well-formed batch violates the
    strict-replay state rules (``ekey``: the ``src * n + dst`` key of
    each edge row, in row order).

    The sequential rules are order-local, which makes them vectorisable:

    * arrivals/departures of a vertex must strictly alternate, starting
      opposite the vertex's initial presence;
    * inserts/deletes of an edge key must strictly alternate, starting
      opposite the key's initial liveness;
    * an edge insert needs both endpoints present *at its position*, and
      a feature update needs its vertex present — both answered by a
      toggle-parity count over the composite (vertex, index) key space.

    Sound and complete: the batch is clean iff the per-event reference
    replay would accept every event.
    """
    E = len(batch)
    p0 = snap.present
    kind, vertex = batch.kind, batch.vertex

    # --- presence toggles must alternate --------------------------------
    tidx = np.flatnonzero(kind >= _ARR)
    tidx = tidx[np.argsort(vertex[tidx], kind="stable")]  # by vertex, row
    sv, sarr = vertex[tidx], kind[tidx] == _ARR
    pos = _group_positions(sv)
    if sv.size and bool(np.any(sarr != ((pos % 2 == 0) ^ p0[sv]))):
        return True
    # composite key for point-in-time presence queries (idx < E < E + 1)
    toggle_keys = sv * np.int64(E + 1) + tidx

    def present_at(vq: np.ndarray, iq: np.ndarray) -> np.ndarray:
        base = np.searchsorted(toggle_keys, vq * np.int64(E + 1))
        cnt = np.searchsorted(toggle_keys, vq * np.int64(E + 1) + iq) - base
        return p0[vq] ^ (cnt % 2 == 1)

    # --- edge toggles must alternate ------------------------------------
    if ekey.size:
        eorder = np.argsort(ekey, kind="stable")
        sk, sins = ekey[eorder], kind[kind <= _DEL][eorder] == _INS
        pos = _group_positions(sk)
        live0 = _member(key0, sk)[1]
        if bool(np.any(sins != ((pos % 2 == 0) ^ live0))):
            return True

    # --- point-in-time presence requirements ----------------------------
    # both ends of each insert, the vertex of each feature update
    ins, fidx = np.flatnonzero(kind == _INS), batch.feature_rows
    need = np.concatenate([batch.edge[ins].ravel(), vertex[fidx]])
    at = np.concatenate([np.repeat(ins, 2), fidx])
    return not bool(present_at(need, at).all())


def _apply_batch(
    snap: CSRSnapshot, batch: EventBatch, ekey: np.ndarray, key0: np.ndarray
) -> CSRSnapshot:
    """Materialise the successor of a *validated* batch: toggle
    parities give the final presence/edge sets and the last feature
    update per vertex wins."""
    n = snap.num_vertices
    flips = np.bincount(batch.vertex[batch.kind >= _ARR], minlength=n) % 2
    features = snap.features.copy()
    if batch.feature_rows.size:
        # a vertex's first row in reverse order is its last update
        fv, first = np.unique(
            batch.vertex[batch.feature_rows][::-1], return_index=True
        )
        features[fv] = batch.features[batch.feature_rows.size - 1 - first]
    uk, cnt = np.unique(ekey, return_counts=True)
    toggled = uk[cnt % 2 == 1]  # odd toggle count = membership flips
    # Sorted-merge symmetric difference: key0 and toggled are both
    # sorted and unique, so a searchsorted membership split plus one
    # positional np.insert reproduces np.setxor1d bit for bit at a
    # fraction of the cost.
    at, live0 = _member(key0, toggled)
    kept = np.delete(key0, at[live0])
    ins = toggled[~live0]
    keys = np.insert(kept, np.searchsorted(kept, ins), ins)
    return _successor(snap, snap.present ^ (flips == 1), features, keys)


def _successor(snap: CSRSnapshot, present, features, keys) -> CSRSnapshot:
    """The snapshot after ``snap`` with the final presence mask, the
    (owned) feature rows and the sorted unique ``src * n + dst`` keys of
    its live edges."""
    n = snap.num_vertices
    # Departed vertices take their incident edges with them.
    keys = keys[present[keys // n] & present[keys % n]]
    # sorted composite keys are exactly the order build_csr
    # canonicalises into, so the CSR assembles directly
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(keys // n, minlength=n), out=indptr[1:])
    features[~present] = 0.0  # canonical form: absent rows are zero
    return CSRSnapshot(
        indptr=indptr,
        indices=(keys % n).astype(np.int32),
        features=features,
        present=present,
        timestamp=snap.timestamp + 1,
    )


def apply_events(
    snap: CSRSnapshot,
    batch: EventBatch | list[UpdateEvent],
    *,
    reject: Callable[[int, object, str], None] | None = None,
) -> CSRSnapshot:
    """Replay a batch (or a list of events, converted with
    :meth:`EventBatch.from_events`) onto a snapshot, returning its
    successor: rows checked, replay rules validated with vectorised
    alternation/parity checks, and one splice of the sorted edge keys.

    Replay is *strict*: an event that cannot apply to the evolving state
    (duplicate edge insert, delete of an absent edge, out-of-range id,
    unknown kind, malformed payload, …) raises :class:`ValueError`.
    Errors come from :func:`apply_events_reference` over
    :meth:`EventBatch.events`, so messages and first-violation order are
    the per-event replay's; with ``reject`` given, it calls
    ``reject(row, event, reason)`` for each violating row and skips it
    (:mod:`repro.resilience.ingest` dead-letters this way).
    """
    if not isinstance(batch, EventBatch):
        batch = EventBatch.from_events(batch)
    n = snap.num_vertices
    if not _row_violation(batch, n, snap.dim):
        edges = batch.edge[batch.kind <= _DEL]
        ekey = edges[:, 0] * n + edges[:, 1]
        key0 = _edge_keys(snap)
        if not _state_violation(snap, batch, ekey, key0):
            return _apply_batch(snap, batch, ekey, key0)
    return apply_events_reference(snap, batch.events(), reject=reject)


def apply_events_reference(
    snap: CSRSnapshot,
    events: list[UpdateEvent],
    *,
    reject: Callable[[int, object, str], None] | None = None,
) -> CSRSnapshot:
    """Per-event replay: the fallback of :func:`apply_events` for any
    batch the batched validator refuses, and the oracle its property
    tests compare against.

    Each event is checked by :func:`event_violation` against the state
    the events before it left.  With ``reject=None`` the first violation
    raises :class:`ValueError`; otherwise ``reject(row, event, reason)``
    is called and the event skipped.
    """
    n = snap.num_vertices
    present = snap.present.copy()
    features = snap.features.copy()
    keys = set(_edge_keys(snap).tolist())

    for row, ev in enumerate(events):  # repro: noqa R006 — the one per-event replay: exact errors and dead-letter order
        reason = event_violation(
            ev,
            num_vertices=n,
            dim=features.shape[1],
            present=present,
            edge_keys=keys,
        )
        if reason is not None:
            if reject is None:
                raise ValueError(f"invalid update event: {reason}")
            reject(row, ev, reason)
            continue
        # Ids are cast with int(): a NumPy integer would compute the edge
        # key in its own width (an int32 ``s * n`` overflows once
        # n > 46 341), and a bool would index as a mask.
        v = int(ev.vertex)
        if ev.kind is UpdateKind.VERTEX_DEPART:
            present[v] = False
        elif ev.kind is UpdateKind.VERTEX_ARRIVE:
            present[v] = True
        elif ev.kind is UpdateKind.EDGE_DELETE:
            s, d = ev.payload  # type: ignore[misc]
            keys.discard(int(s) * n + int(d))
        elif ev.kind is UpdateKind.EDGE_INSERT:
            s, d = ev.payload  # type: ignore[misc]
            keys.add(int(s) * n + int(d))
        else:  # FEATURE_UPDATE
            features[v] = ev.payload  # type: ignore[assignment]

    keys = np.sort(np.fromiter(keys, dtype=np.int64, count=len(keys)))
    return _successor(snap, present, features, keys)


def event_stream(graph) -> list[EventBatch]:
    """Per-step event batches for a whole :class:`DynamicGraph`.

    ``result[t]`` transforms snapshot ``t`` into snapshot ``t + 1``.
    """
    return [
        EventBatch.from_delta(
            snapshot_delta(graph[t], graph[t + 1]), graph[t + 1].features
        )
        for t in range(len(graph) - 1)
    ]
