"""Tests for the update-stream (event) view of a dynamic graph."""

from collections import namedtuple

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graphs import (
    CSRSnapshot,
    DynamicGraphSpec,
    UpdateEvent,
    UpdateKind,
    apply_events,
    delta_to_events,
    event_stream,
    generate_dynamic_graph,
    load_dataset,
    snapshot_delta,
)
from repro.graphs.updates import apply_events_reference


class TestEventRoundTrip:
    def test_replay_reconstructs_next_snapshot(self):
        g = load_dataset("GT", num_snapshots=4)
        for t in range(3):
            delta = snapshot_delta(g[t], g[t + 1])
            events = delta_to_events(delta, new_features=g[t + 1].features)
            rebuilt = apply_events(g[t], events)
            assert np.array_equal(rebuilt.indptr, g[t + 1].indptr)
            assert np.array_equal(rebuilt.indices, g[t + 1].indices)
            assert np.array_equal(rebuilt.present, g[t + 1].present)
            np.testing.assert_array_equal(rebuilt.features, g[t + 1].features)

    def test_timestamp_advances(self):
        g = load_dataset("GT", num_snapshots=2)
        events = delta_to_events(g.delta(0), new_features=g[1].features)
        rebuilt = apply_events(g[0], events)
        assert rebuilt.timestamp == g[0].timestamp + 1

    def test_empty_event_list_is_identity(self):
        g = load_dataset("GT", num_snapshots=2)
        rebuilt = apply_events(g[0], [])
        assert np.array_equal(rebuilt.indices, g[0].indices)
        assert np.array_equal(rebuilt.present, g[0].present)


class TestExoticIds:
    """Valid events the batched decoder refuses (tuple subclasses, bool
    ids) take the per-event replay, which must build the successor the
    same events with plain ``int`` ids build."""

    @staticmethod
    def assert_same_successor(snap, exotic, plain):
        want = apply_events(snap, plain)
        for replay in (apply_events, apply_events_reference):
            got = replay(snap, exotic)
            for name in ("indptr", "indices", "features", "present"):
                a, b = getattr(got, name), getattr(want, name)
                assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name

    def test_int32_edge_key_does_not_overflow(self):
        """``49 999 * 50 000`` does not fit in int32."""
        n = 50_000
        snap = CSRSnapshot.from_edges(
            n, np.array([[0, 1]]), np.zeros((n, 1), np.float32),
            undirected=False,
        )
        Pair = namedtuple("Pair", "src dst")
        s, d = np.int32(49_999), np.int32(3)
        exotic = [UpdateEvent(UpdateKind.EDGE_INSERT, s, Pair(s, d))]
        plain = [UpdateEvent(UpdateKind.EDGE_INSERT, 49_999, (49_999, 3))]
        self.assert_same_successor(snap, exotic, plain)
        assert apply_events(snap, exotic).indices.tolist() == [1, 3]

    def test_bool_vertex_id_is_one_vertex(self):
        snap = CSRSnapshot.from_edges(
            4, np.array([[0, 1], [2, 3]]), np.ones((4, 2), np.float32),
            undirected=False,
        )
        self.assert_same_successor(
            snap,
            [UpdateEvent(UpdateKind.VERTEX_DEPART, True)],
            [UpdateEvent(UpdateKind.VERTEX_DEPART, 1)],
        )


class TestEventStream:
    def test_stream_length(self):
        g = load_dataset("GT", num_snapshots=5)
        streams = event_stream(g)
        assert len(streams) == 4

    def test_event_kinds_present(self):
        g = load_dataset("GT", num_snapshots=5)
        kinds = {ev.kind for evs in event_stream(g) for ev in evs}
        assert UpdateKind.EDGE_INSERT in kinds
        assert UpdateKind.EDGE_DELETE in kinds
        assert UpdateKind.FEATURE_UPDATE in kinds

    def test_event_ordering_departures_before_arrivals(self):
        g = load_dataset("GT", num_snapshots=5)
        for evs in event_stream(g):
            order = {k: i for i, k in enumerate(
                [UpdateKind.VERTEX_DEPART, UpdateKind.EDGE_DELETE,
                 UpdateKind.VERTEX_ARRIVE, UpdateKind.EDGE_INSERT,
                 UpdateKind.FEATURE_UPDATE])}
            ranks = [order[ev.kind] for ev in evs]
            assert ranks == sorted(ranks)


class TestEventStreamProperty:
    @given(seed=st.integers(min_value=0, max_value=5000))
    @settings(max_examples=15, deadline=None)
    def test_replay_roundtrip_random_graphs(self, seed):
        g = generate_dynamic_graph(
            DynamicGraphSpec(
                name="prop", num_vertices=120, num_edges=400, dim=3,
                num_snapshots=3, seed=seed,
            )
        )
        for t in range(2):
            events = delta_to_events(g.delta(t), new_features=g[t + 1].features)
            rebuilt = apply_events(g[t], events)
            assert np.array_equal(rebuilt.indices, g[t + 1].indices)
            np.testing.assert_array_equal(rebuilt.features, g[t + 1].features)
