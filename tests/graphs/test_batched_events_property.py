"""Property tests: batched event application == per-event replay.

``apply_events`` now runs a vectorised fast path with an optimistic
batched validator; the per-event reference replay is retained as the
fallback and as the semantic oracle.  Over random streams mixing valid
and hostile events these tests assert the two are indistinguishable:

* same accept/reject decision,
* the *same* first-violation error message when rejecting,
* bit-identical resulting snapshots (arrays, dtypes, timestamp) when
  accepting,
* identical dead-letter traffic (reasons, order, payloads), successor
  and guard metrics through :class:`~repro.resilience.ingest.GuardedIngest`
  against :func:`frozen_guard`, the guarded ingest as it was before it
  replayed inside ``apply_events``.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.graphs.updates as updates_mod
from repro.engine.metrics import ExecutionMetrics
from repro.graphs import CSRSnapshot
from repro.graphs.updates import (
    UpdateEvent,
    UpdateKind,
    apply_events,
    apply_events_reference,
    event_violation,
)
from repro.resilience.ingest import DeadLetterQueue, GuardedIngest

N = 24
DIM = 3


def base_snapshot(seed: int) -> CSRSnapshot:
    rng = np.random.default_rng(seed)
    edges = rng.integers(0, N, size=(40, 2))
    edges = edges[edges[:, 0] != edges[:, 1]]
    feats = rng.standard_normal((N, DIM)).astype(np.float32)
    snap = CSRSnapshot.from_edges(N, edges, feats, undirected=False)
    absent = rng.choice(N, size=3, replace=False)
    present = snap.present.copy()
    present[absent] = False
    feats = snap.features.copy()
    feats[absent] = 0.0
    return CSRSnapshot(snap.indptr, snap.indices, feats, present=present)


def random_events(snap: CSRSnapshot, rng, n_events: int, hostility: float):
    """A stream biased towards valid events with hostile ones mixed in."""
    events = []
    present = snap.present.copy()
    keys = set()
    src = np.repeat(np.arange(N), snap.degrees)
    for s, d in zip(src.tolist(), snap.indices.tolist()):
        keys.add((s, d))
    for _ in range(n_events):
        if rng.random() < hostility:
            events.append(hostile_event(rng))
            continue
        kind = rng.integers(0, 5)
        if kind == 0 and keys:  # valid-ish delete
            s, d = list(keys)[rng.integers(len(keys))]
            keys.discard((s, d))
            events.append(UpdateEvent(UpdateKind.EDGE_DELETE, s, (s, d)))
        elif kind == 1:  # insert (may collide -> violation, also useful)
            s, d = int(rng.integers(N)), int(rng.integers(N))
            keys.add((s, d))
            events.append(UpdateEvent(UpdateKind.EDGE_INSERT, s, (s, d)))
        elif kind == 2:  # feature update
            v = int(rng.integers(N))
            events.append(
                UpdateEvent(
                    UpdateKind.FEATURE_UPDATE, v,
                    rng.standard_normal(DIM).astype(np.float32),
                )
            )
        elif kind == 3:  # departure of a (maybe) present vertex
            v = int(rng.integers(N))
            present[v] = False
            events.append(UpdateEvent(UpdateKind.VERTEX_DEPART, v))
        else:  # arrival of a (maybe) absent vertex
            v = int(rng.integers(N))
            present[v] = True
            events.append(UpdateEvent(UpdateKind.VERTEX_ARRIVE, v))
    return events


def hostile_event(rng):
    k = rng.integers(0, 8)
    if k == 0:
        return "not an event"
    if k == 1:
        return UpdateEvent(UpdateKind.VERTEX_ARRIVE, N + 5)
    if k == 2:
        return UpdateEvent(UpdateKind.VERTEX_DEPART, -1)
    if k == 3:
        return UpdateEvent(UpdateKind.EDGE_INSERT, 0, (0, N + 3))
    if k == 4:
        return UpdateEvent(UpdateKind.EDGE_INSERT, 0, "not a pair")
    if k == 5:
        return UpdateEvent(
            UpdateKind.FEATURE_UPDATE, 0, np.zeros(DIM + 1, dtype=np.float32)
        )
    if k == 6:
        bad = np.full(DIM, np.nan, dtype=np.float32)
        return UpdateEvent(UpdateKind.FEATURE_UPDATE, 1, bad)
    return UpdateEvent(UpdateKind.VERTEX_ARRIVE, np.bool_(True))


def assert_snapshots_identical(a: CSRSnapshot, b: CSRSnapshot):
    for name in ("indptr", "indices", "features", "present"):
        x, y = getattr(a, name), getattr(b, name)
        assert x.dtype == y.dtype, name
        assert x.shape == y.shape, name
        assert x.tobytes() == y.tobytes(), name
    assert a.timestamp == b.timestamp


def frozen_guard(snap: CSRSnapshot, events, step: int):
    """The guarded ingest before it replayed inside ``apply_events``,
    frozen as the oracle: walk the batch against the evolving replay
    state, dead-lettering each event the strict replay would raise on,
    then apply the survivors with ``apply_events``.

    Returns ``(successor, dlq, metrics)``.
    """
    dlq, metrics = DeadLetterQueue(), ExecutionMetrics()
    n = snap.num_vertices
    present = snap.present.copy()
    src = np.repeat(np.arange(n, dtype=np.int64), snap.degrees)
    keys = set((src * n + snap.indices.astype(np.int64)).tolist())
    clean = []
    for ev in events:
        reason = event_violation(
            ev, num_vertices=n, dim=snap.dim, present=present, edge_keys=keys
        )
        if reason is not None:
            dlq.record(step, reason, payload=ev)
            metrics.dead_letter_events += 1
            metrics.incidents += 1
            continue
        clean.append(ev)
        if ev.kind is UpdateKind.VERTEX_DEPART:
            present[ev.vertex] = False
        elif ev.kind is UpdateKind.VERTEX_ARRIVE:
            present[ev.vertex] = True
        elif ev.kind is UpdateKind.EDGE_DELETE:
            s, d = ev.payload
            keys.discard(int(s) * n + int(d))
        elif ev.kind is UpdateKind.EDGE_INSERT:
            s, d = ev.payload
            keys.add(int(s) * n + int(d))
    return apply_events(snap, clean), dlq, metrics


def assert_guard_matches_frozen(snap: CSRSnapshot, events, *, blind: bool):
    """``GuardedIngest.apply`` against :func:`frozen_guard`: the same
    successor bytes, the same letters in the same order (step, reason,
    payload identity) and the same guard metrics.  ``blind`` hides the
    batched decoder, so every batch, clean ones too, takes the per-event
    replay."""
    want, want_dlq, want_metrics = frozen_guard(snap, events, step=7)
    guard = GuardedIngest(dlq=DeadLetterQueue())
    # context-manager monkeypatch: hypothesis reruns the test body
    with pytest.MonkeyPatch.context() as mp:
        if blind:
            mp.setattr(updates_mod, "_decode_events", lambda *a, **k: None)
        got = guard.apply(snap, events, step=7)
    assert_snapshots_identical(got, want)
    assert [(x.step, x.reason) for x in guard.dlq.letters] == [
        (x.step, x.reason) for x in want_dlq.letters
    ]
    assert all(
        a.payload is b.payload
        for a, b in zip(guard.dlq.letters, want_dlq.letters)
    )
    assert guard.metrics.as_dict() == want_metrics.as_dict()


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=5000),
    n_events=st.integers(min_value=0, max_value=60),
    hostility=st.sampled_from([0.0, 0.1, 0.5]),
)
def test_batched_apply_matches_reference(seed, n_events, hostility):
    snap = base_snapshot(seed)
    events = random_events(snap, np.random.default_rng(seed + 1), n_events,
                           hostility)
    try:
        expected = apply_events_reference(snap, events)
    except ValueError as exc:
        with pytest.raises(ValueError) as got:
            apply_events(snap, events)
        assert str(got.value) == str(exc)
        return
    assert_snapshots_identical(apply_events(snap, events), expected)


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=5000),
    n_events=st.integers(min_value=0, max_value=50),
    hostility=st.sampled_from([0.0, 0.2, 0.6]),
)
def test_guarded_ingest_dlq_matches_sequential_walk(seed, n_events, hostility):
    """With the batched decoder blinded, every batch is replayed event by
    event inside ``apply_events``, and the letters, successor and metrics
    are the frozen walk's."""
    snap = base_snapshot(seed)
    events = random_events(snap, np.random.default_rng(seed + 2), n_events,
                           hostility)
    assert_guard_matches_frozen(snap, events, blind=True)


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=5000),
    n_events=st.integers(min_value=0, max_value=50),
    hostility=st.sampled_from([0.0, 0.2, 0.6]),
)
def test_guarded_apply_matches_filter_then_apply(seed, n_events, hostility):
    """With the batched decoder live, a clean batch takes the batched
    path and a hostile one the per-event replay; both match the frozen
    walk-then-apply composition."""
    snap = base_snapshot(seed)
    events = random_events(snap, np.random.default_rng(seed + 3), n_events,
                           hostility)
    assert_guard_matches_frozen(snap, events, blind=False)
