"""Property tests: batched event application == per-event replay.

``apply_events`` now runs a vectorised fast path with an optimistic
batched validator; the per-event reference replay is retained as the
fallback and as the semantic oracle.  Over random streams mixing valid
and hostile events these tests assert the two are indistinguishable:

* same accept/reject decision,
* the *same* first-violation error message when rejecting,
* bit-identical resulting snapshots (arrays, dtypes, timestamp) when
  accepting,
* identical dead-letter traffic (reasons, order, payloads) through
  :class:`~repro.resilience.ingest.GuardedIngest`.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graphs import CSRSnapshot
from repro.graphs.updates import (
    UpdateEvent,
    UpdateKind,
    apply_events,
    apply_events_reference,
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
    assert a.indptr.dtype == b.indptr.dtype
    assert a.indices.dtype == b.indices.dtype
    assert a.features.dtype == b.features.dtype
    np.testing.assert_array_equal(a.indptr, b.indptr)
    np.testing.assert_array_equal(a.indices, b.indices)
    np.testing.assert_array_equal(a.present, b.present)
    np.testing.assert_array_equal(a.features, b.features)
    assert a.timestamp == b.timestamp


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
    snap = base_snapshot(seed)
    events = random_events(snap, np.random.default_rng(seed + 2), n_events,
                           hostility)

    fast = GuardedIngest(dlq=DeadLetterQueue())
    clean_fast, rej_fast = fast.filter_events(snap, events, step=7)

    # force the exact sequential walk by blinding the batched validator
    # (context-manager monkeypatch: hypothesis reruns the test body)
    import repro.resilience.ingest as ingest_mod

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ingest_mod, "_decode_events", lambda *a, **k: None)
        slow = GuardedIngest(dlq=DeadLetterQueue())
        clean_slow, rej_slow = slow.filter_events(snap, events, step=7)

    # compare by identity: both paths must keep the same event *objects*
    # (dataclass == would choke on ndarray payloads)
    assert len(clean_fast) == len(clean_slow)
    assert all(a is b for a, b in zip(clean_fast, clean_slow))
    assert len(rej_fast) == len(rej_slow)
    assert all(a is b for a, b in zip(rej_fast, rej_slow))
    assert len(fast.dlq) == len(slow.dlq)
    assert fast.dlq.by_reason() == slow.dlq.by_reason()
    for a, b in zip(fast.dlq.letters, slow.dlq.letters):
        assert (a.step, a.reason) == (b.step, b.reason)
        assert a.payload is b.payload
    # and the surviving events apply identically on both paths
    assert_snapshots_identical(
        apply_events(snap, clean_fast),
        apply_events_reference(snap, clean_slow),
    )


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=5000),
    n_events=st.integers(min_value=0, max_value=50),
    hostility=st.sampled_from([0.0, 0.2, 0.6]),
)
def test_guarded_apply_matches_filter_then_apply(seed, n_events, hostility):
    """``GuardedIngest.apply`` tries the strict replay first and walks
    the batch only when it raises; the composition it replaced —
    ``filter_events`` then ``apply_events`` — is the oracle."""
    snap = base_snapshot(seed)
    events = random_events(snap, np.random.default_rng(seed + 3), n_events,
                           hostility)

    oracle = GuardedIngest(dlq=DeadLetterQueue())
    clean, _ = oracle.filter_events(snap, events, step=7)
    expected = apply_events(snap, clean)

    guard = GuardedIngest(dlq=DeadLetterQueue())
    got = guard.apply(snap, events, step=7)

    assert_snapshots_identical(got, expected)
    assert len(guard.dlq) == len(oracle.dlq)
    for a, b in zip(guard.dlq.letters, oracle.dlq.letters):
        assert (a.step, a.reason) == (b.step, b.reason)
        assert a.payload is b.payload
    assert guard.metrics.as_dict() == oracle.metrics.as_dict()
