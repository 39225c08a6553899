"""Update streams: the event-level view of a dynamic graph.

Real systems receive dynamic graphs as a stream of update events rather
than materialised snapshots.  This module converts between the two views:
:func:`delta_to_events` flattens a :class:`~repro.graphs.dynamic.SnapshotDelta`
into ordered :class:`UpdateEvent` records, and :func:`apply_events`
replays events onto a snapshot to reconstruct its successor.  The round
trip is exercised by property tests and by the O-CSR dynamic-maintenance
benches (the paper notes O-CSR "efficiently accommodates dynamic changes,
such as inserting, updating, and deleting edges and vertices").

Replay is batched: :func:`apply_events` decodes the whole event list into
flat arrays once, validates every event with vectorised alternation and
point-in-time presence checks, and materialises the successor with a
single canonical CSR rebuild.  The moment anything is off — an
undecodable payload or any strict-replay violation — it falls back to
:func:`apply_events_reference`, the one per-event replay, which raises
the exact first-violation error.  Given a ``reject`` callback instead,
that same replay hands each violating event and its reason to the
callback and skips it: the resilience ingest dead-letters through it, so
the strict-replay rules (:func:`event_violation` plus the state updates
here) live in this module alone.  The batched path is bit-identical to
the reference on valid streams and indistinguishable from it on hostile
ones.
"""

from __future__ import annotations

import enum
import itertools
import operator
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from ..check.shapes import contract
from .dynamic import SnapshotDelta, _edge_keys, snapshot_delta
from .snapshot import CSRSnapshot, build_csr

__all__ = [
    "UpdateKind",
    "UpdateEvent",
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


@contract("_, ?(n,f) f -> _")
def delta_to_events(
    delta: SnapshotDelta, new_features: np.ndarray | None = None
) -> list[UpdateEvent]:
    """Flatten a delta into an ordered event list.

    Ordering is: departures, edge deletions, arrivals, edge insertions,
    feature updates — the order in which :func:`apply_events` can replay
    them without referencing not-yet-arrived vertices.
    """
    events: list[UpdateEvent] = [
        UpdateEvent(UpdateKind.VERTEX_DEPART, v) for v in delta.departed.tolist()
    ]
    events += [
        UpdateEvent(UpdateKind.EDGE_DELETE, s, (s, d))
        for s, d in delta.removed_edges.tolist()
    ]
    events += [
        UpdateEvent(UpdateKind.VERTEX_ARRIVE, v) for v in delta.arrived.tolist()
    ]
    events += [
        UpdateEvent(UpdateKind.EDGE_INSERT, s, (s, d))
        for s, d in delta.added_edges.tolist()
    ]
    if new_features is not None:
        touched = np.union1d(delta.feature_changed, delta.arrived)
        events += [
            UpdateEvent(UpdateKind.FEATURE_UPDATE, v, new_features[v].copy())
            for v in touched.tolist()
        ]
    return events


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
            return (
                f"feature payload {x!r} does not have shape ({dim},)"
            )
        if not bool(np.isfinite(x).all()):
            return f"non-finite feature payload for vertex {v}"
        if not present[v]:
            return f"feature update for absent vertex {v}"
    return None


# ----------------------------------------------------------------------
# batched replay
# ----------------------------------------------------------------------
# integer codes for the decode arrays (order is arbitrary but fixed),
# keyed by the members' string values: a str hashes in C, an Enum member
# through a Python-level ``__hash__`` (one call per event)
_INS, _DEL, _FEAT, _ARR, _DEP = range(5)
_KIND_CODE = {
    UpdateKind.EDGE_INSERT.value: _INS,
    UpdateKind.EDGE_DELETE.value: _DEL,
    UpdateKind.FEATURE_UPDATE.value: _FEAT,
    UpdateKind.VERTEX_ARRIVE.value: _ARR,
    UpdateKind.VERTEX_DEPART.value: _DEP,
}


@dataclass
class _DecodedEvents:
    """Flat-array view of an event list (one decode pass, then all
    validation and application is vectorised)."""

    kind: np.ndarray  # (E,) int64 codes
    vertex: np.ndarray  # (E,) int64
    ekey: np.ndarray  # (E,) int64: src*n+dst for edge events, -1 otherwise
    fidx: np.ndarray  # (F,) int64 event indices of feature updates
    feats: np.ndarray  # (F, dim) stacked feature payloads


_GET_KIND = operator.attrgetter("kind")
_GET_VALUE = operator.attrgetter("_value_")
_GET_VERTEX = operator.attrgetter("vertex")
_GET_PAYLOAD = operator.attrgetter("payload")


def _all_plain_ints(types: set) -> bool:
    """Whether every *type* in the set is ``int`` or a NumPy integer.

    Called on ``set(map(type, values))`` — a handful of distinct types —
    so value-count-independent.  ``bool`` is deliberately excluded even
    though it subclasses ``int``: boolean ids are legal but exotic, and
    sending them down the reference path keeps this predicate trivially
    sound.
    """
    return all(
        t is int or (t is not bool and issubclass(t, np.integer))
        for t in types
    )


def _decode_events(events, num_vertices: int, dim: int) -> _DecodedEvents | None:
    """Decode events into flat arrays; None when anything is malformed
    (unknown kind, bad payload shape, out-of-range id, non-finite
    feature) — the caller then falls back to the per-event reference.

    Checks here are deliberately *stricter* than the reference's
    ``isinstance`` checks (exact ``type`` sets, no bool ids): an exotic
    but valid event merely drops to the reference path, which is slower
    but never wrong.  All passes are C-level ``map``/``set`` sweeps; no
    per-event Python bytecode.
    """
    n = num_vertices
    E = len(events)
    if set(map(type, events)) - {UpdateEvent}:
        return None
    kinds = list(map(_GET_KIND, events))
    # exactly UpdateKind: a foreign kind with an equal value is refused
    if set(map(type, kinds)) - {UpdateKind}:
        return None
    try:
        kind = np.fromiter(
            map(_KIND_CODE.__getitem__, map(_GET_VALUE, kinds)),
            dtype=np.int64,
            count=E,
        )
        verts = list(map(_GET_VERTEX, events))
        if not _all_plain_ints(set(map(type, verts))):
            return None
        vertex = np.asarray(verts, dtype=np.int64)
        if E and (int(vertex.min()) < 0 or int(vertex.max()) >= n):
            return None
        ekey = np.full(E, -1, dtype=np.int64)
        eidx = np.flatnonzero((kind == _INS) | (kind == _DEL))
        if eidx.size:
            pays = list(
                map(_GET_PAYLOAD, map(events.__getitem__, eidx.tolist()))
            )
            if set(map(type, pays)) - {tuple}:
                return None
            if not _all_plain_ints(
                set(map(type, itertools.chain.from_iterable(pays)))
            ):
                return None
            sd = np.asarray(pays, dtype=np.int64)
            if sd.shape != (eidx.size, 2):
                return None
            if int(sd.min()) < 0 or int(sd.max()) >= n:
                return None
            ekey[eidx] = sd[:, 0] * n + sd[:, 1]
        fidx = np.flatnonzero(kind == _FEAT).astype(np.int64)
        if fidx.size:
            fpay = list(
                map(_GET_PAYLOAD, map(events.__getitem__, fidx.tolist()))
            )
            if set(map(type, fpay)) - {np.ndarray}:
                return None
            feats = np.stack(fpay)
            if feats.shape != (fidx.size, dim):
                return None
        else:
            feats = np.empty((0, dim), dtype=np.float32)
    except (AttributeError, KeyError, TypeError, ValueError, OverflowError):
        return None
    if not bool(np.isfinite(feats).all()):
        return None
    return _DecodedEvents(
        kind=kind, vertex=vertex, ekey=ekey, fidx=fidx, feats=feats
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


def _decoded_violation(
    snap: CSRSnapshot, dec: _DecodedEvents, key0: np.ndarray
) -> bool:
    """Whether *any* event violates the strict-replay state rules.

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
    n = snap.num_vertices
    E = dec.kind.size
    p0 = snap.present
    kind, vertex, ekey = dec.kind, dec.vertex, dec.ekey

    # --- presence toggles must alternate --------------------------------
    tmask = (kind == _ARR) | (kind == _DEP)
    tv = vertex[tmask]
    tidx = np.flatnonzero(tmask).astype(np.int64)
    t_is_arr = kind[tmask] == _ARR
    order = np.argsort(tv, kind="stable")
    sv, sarr = tv[order], t_is_arr[order]
    pos = _group_positions(sv)
    if sv.size and bool(np.any(sarr != ((pos % 2 == 0) ^ p0[sv]))):
        return True
    # composite key for point-in-time presence queries (idx < E < E + 1)
    toggle_keys = sv * np.int64(E + 1) + tidx[order]

    def present_at(vq: np.ndarray, iq: np.ndarray) -> np.ndarray:
        base = np.searchsorted(toggle_keys, vq * np.int64(E + 1))
        cnt = np.searchsorted(toggle_keys, vq * np.int64(E + 1) + iq) - base
        return p0[vq] ^ (cnt % 2 == 1)

    # --- edge toggles must alternate ------------------------------------
    emask = (kind == _INS) | (kind == _DEL)
    ek = ekey[emask]
    e_is_ins = kind[emask] == _INS
    if ek.size:
        eorder = np.argsort(ek, kind="stable")
        sk, sins = ek[eorder], e_is_ins[eorder]
        pos = _group_positions(sk)
        if key0.size:
            at = np.searchsorted(key0, sk)
            at_c = np.minimum(at, key0.size - 1)
            live0 = (at < key0.size) & (key0[at_c] == sk)
        else:
            live0 = np.zeros(sk.size, dtype=bool)
        if bool(np.any(sins != ((pos % 2 == 0) ^ live0))):
            return True

    # --- point-in-time presence requirements ----------------------------
    ins = kind == _INS
    if bool(ins.any()):
        iidx = np.flatnonzero(ins).astype(np.int64)
        isrc, idst = ekey[ins] // n, ekey[ins] % n
        if not bool(present_at(isrc, iidx).all()):
            return True
        if not bool(present_at(idst, iidx).all()):
            return True
    if dec.fidx.size and not bool(
        present_at(vertex[dec.fidx], dec.fidx).all()
    ):
        return True
    return False


def _decoded_apply(
    snap: CSRSnapshot, dec: _DecodedEvents, key0: np.ndarray
) -> CSRSnapshot:
    """Materialise the successor of a *validated* decoded batch: toggle
    parities give the final presence/edge sets, the last feature update
    per vertex wins, and one canonical :func:`build_csr` pass closes."""
    n = snap.num_vertices
    kind, vertex, ekey = dec.kind, dec.vertex, dec.ekey

    tmask = (kind == _ARR) | (kind == _DEP)
    flips = np.bincount(vertex[tmask], minlength=n) % 2 == 1
    present = snap.present ^ flips

    features = snap.features.copy()
    if dec.fidx.size:
        fv = vertex[dec.fidx]
        forder = np.argsort(fv, kind="stable")
        sorted_fv = fv[forder]
        last = np.empty(sorted_fv.size, dtype=bool)
        last[-1] = True
        np.not_equal(sorted_fv[1:], sorted_fv[:-1], out=last[:-1])
        rows = forder[last]
        features[fv[rows]] = dec.feats[rows]

    emask = (kind == _INS) | (kind == _DEL)
    ek = ekey[emask]
    if ek.size:
        uk, cnt = np.unique(ek, return_counts=True)
        toggled = uk[cnt % 2 == 1]  # odd toggle count = membership flips
        # Sorted-merge symmetric difference: key0 and toggled are both
        # sorted and unique, so a searchsorted membership split plus one
        # positional np.insert reproduces np.setxor1d bit for bit at a
        # fraction of the cost.
        at = np.searchsorted(key0, toggled)
        at_c = np.minimum(at, max(key0.size - 1, 0))
        live0 = (
            (at < key0.size) & (key0[at_c] == toggled)
            if key0.size
            else np.zeros(toggled.size, dtype=bool)
        )
        keep = np.ones(key0.size, dtype=bool)
        keep[at[live0]] = False
        kept = key0[keep]
        ins = toggled[~live0]
        arr = np.insert(kept, np.searchsorted(kept, ins), ins)
    else:
        arr = key0
    # Departed vertices take their incident edges with them.
    if arr.size:
        srcs = arr // n
        arr = arr[present[srcs] & present[arr % n]]
        srcs = arr // n
    else:
        srcs = arr
    # ``arr`` is sorted unique composite keys — exactly the order
    # build_csr canonicalises into — so the CSR assembles directly.
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(srcs, minlength=n), out=indptr[1:])
    indices = (arr % n).astype(np.int32)
    features[~present] = 0.0  # canonical form: absent rows are zero
    return CSRSnapshot(
        indptr=indptr,
        indices=indices,
        features=features,
        present=present,
        timestamp=snap.timestamp + 1,
    )


def apply_events(
    snap: CSRSnapshot,
    events: list[UpdateEvent],
    *,
    reject: Callable[[object, str], None] | None = None,
) -> CSRSnapshot:
    """Replay events onto a snapshot, returning the successor snapshot.

    The batch is decoded into flat arrays, validated with vectorised
    alternation/parity checks, and applied as one splice plus a single
    O(m log m) :func:`build_csr` pass — the vectorised idiom the HPC
    guide recommends over per-event Python mutation.

    Replay is *strict*: an event that cannot apply to the evolving state
    (duplicate edge insert, delete of an absent edge, out-of-range vertex
    id, unknown kind, malformed payload, …) raises :class:`ValueError`
    rather than silently corrupting the successor snapshot.  Error
    reporting is delegated to :func:`apply_events_reference`, so messages
    and first-violation ordering match the per-event replay exactly.
    With ``reject`` given, that replay calls ``reject(event, reason)``
    for each violating event and skips it instead of raising;
    :mod:`repro.resilience.ingest` dead-letters poison events this way.
    """
    dec = _decode_events(events, snap.num_vertices, snap.features.shape[1])
    if dec is not None:
        key0 = _edge_keys(snap)
        if not _decoded_violation(snap, dec, key0):
            return _decoded_apply(snap, dec, key0)
    return apply_events_reference(snap, events, reject=reject)


def apply_events_reference(
    snap: CSRSnapshot,
    events: list[UpdateEvent],
    *,
    reject: Callable[[object, str], None] | None = None,
) -> CSRSnapshot:
    """Per-event replay: the fallback of :func:`apply_events` for any
    batch the batched validator refuses, and the oracle its property
    tests compare against.

    Each event is checked by :func:`event_violation` against the state
    the events before it left.  With ``reject=None`` the first violation
    raises :class:`ValueError`; otherwise ``reject(event, reason)`` is
    called and the event is skipped, so the successor is the replay of
    the events that apply, in arrival order.
    """
    n = snap.num_vertices
    present = snap.present.copy()
    features = snap.features.copy()
    keys = set(_edge_keys(snap).tolist())

    for ev in events:  # repro: noqa R006 — the one per-event replay: exact errors and dead-letter order
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
            reject(ev, reason)
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

    # Departed vertices take their incident edges with them.
    arr = np.fromiter(keys, dtype=np.int64, count=len(keys))
    if arr.size:
        s, d = arr // n, arr % n
        arr = arr[present[s] & present[d]]
        s, d = arr // n, arr % n
    else:
        s = d = np.empty(0, dtype=np.int64)
    indptr, indices = build_csr(n, s, d)
    features[~present] = 0.0  # canonical form: absent rows are zero
    return CSRSnapshot(
        indptr=indptr,
        indices=indices,
        features=features,
        present=present,
        timestamp=snap.timestamp + 1,
    )


def event_stream(graph) -> list[list[UpdateEvent]]:
    """Per-step event lists for a whole :class:`DynamicGraph`.

    ``result[t]`` transforms snapshot ``t`` into snapshot ``t + 1``.
    """
    out: list[list[UpdateEvent]] = []
    for t in range(len(graph) - 1):
        delta = snapshot_delta(graph[t], graph[t + 1])
        out.append(delta_to_events(delta, new_features=graph[t + 1].features))
    return out
