"""Tests for the shard map, virtual clock, and tenant gate."""

import numpy as np
import pytest

from repro.accel.partition import PartitionStrategy
from repro.graphs import load_dataset
from repro.serving import ShardMap, TenantGate, VirtualClock

SEED = 3


@pytest.fixture(scope="module")
def graph():
    return load_dataset("GT", scale=0.05, num_snapshots=4, seed=SEED)


class TestVirtualClock:
    def test_starts_and_ticks(self):
        clock = VirtualClock()
        assert clock.now == 0
        clock.tick()
        clock.tick(3)
        assert clock.now == 4

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            VirtualClock(start=-1)
        with pytest.raises(ValueError):
            VirtualClock().tick(0)


class TestShardMap:
    def test_build_partitions_every_vertex(self, graph):
        window = graph.window(0, 1)
        smap = ShardMap.build(window, 4)
        assert smap.num_shards == 4
        assert smap.num_vertices == graph.num_vertices
        assert smap.owner.shape == (graph.num_vertices,)
        assert set(np.unique(smap.owner)) <= set(range(4))
        total = sum(smap.rows(s).size for s in range(4))
        assert total == graph.num_vertices

    def test_rows_are_disjoint(self, graph):
        smap = ShardMap.build(graph.window(0, 1), 4)
        seen = np.zeros(graph.num_vertices, dtype=bool)
        for s in smap.active_shards():
            owned = smap.rows(s)
            assert not seen[owned].any()
            seen[owned] = True
        assert seen.all()

    def test_rows_and_quorum_are_computed_once(self):
        """``rows`` / ``active_shards`` sit on the serving path (per
        result, per shard per timestamp, per tick): one shared read-only
        array per shard, equal to the scan they replaced."""
        owner = np.array([2, 0, 2, 2, 0, 3])  # shard 1 owns nothing
        smap = ShardMap(num_shards=4, num_vertices=6, owner=owner, cut_edges=0)
        for shard in range(4):
            rows = smap.rows(shard)
            assert rows.tolist() == np.flatnonzero(owner == shard).tolist()
            assert rows is smap.rows(shard)
            with pytest.raises(ValueError, match="read-only"):
                rows[:1] = 0
        assert smap.active_shards() == np.unique(owner).tolist() == [0, 2, 3]
        smap.active_shards().append(9)  # a caller's copy, not the map's
        assert smap.active_shards() == [0, 2, 3]
        with pytest.raises(ValueError):
            smap.rows(4)

    def test_build_is_deterministic(self, graph):
        a = ShardMap.build(graph.window(0, 1), 4)
        b = ShardMap.build(graph.window(0, 1), 4)
        assert np.array_equal(a.owner, b.owner)
        assert a.cut_edges == b.cut_edges

    def test_stitch_reassembles_full_matrix(self, graph):
        smap = ShardMap.build(graph.window(0, 1), 3)
        full = np.random.default_rng(0).normal(
            size=(graph.num_vertices, 5)
        )
        parts = {
            s: full[smap.rows(s)].copy() for s in smap.active_shards()
        }
        assert np.array_equal(smap.stitch(parts), full)

    def test_stitch_requires_every_active_shard(self, graph):
        smap = ShardMap.build(graph.window(0, 1), 3)
        full = np.ones((graph.num_vertices, 2))
        parts = {
            s: full[smap.rows(s)] for s in smap.active_shards()[:-1]
        }
        with pytest.raises(ValueError):
            smap.stitch(parts)

    def test_boundary_words_scale_with_dim(self, graph):
        smap = ShardMap.build(graph.window(0, 1), 4)
        assert smap.boundary_words(8) == smap.cut_edges * 8

    def test_num_shards_bounds(self, graph):
        window = graph.window(0, 1)
        with pytest.raises(ValueError):
            ShardMap.build(window, 0)
        with pytest.raises(ValueError):
            ShardMap.build(window, graph.num_vertices + 1)

    def test_strategy_is_threaded_through(self, graph):
        window = graph.window(0, 1)
        smap = ShardMap.build(
            window, 4, strategy=PartitionStrategy.RANGE
        )
        assert smap.num_shards == 4


class TestTenantGate:
    def test_unbounded_always_admits(self):
        gate = TenantGate(max_backlog=None)
        gate.register("a")
        for _ in range(100):
            assert gate.admit("a", 99) == ""

    def test_backlog_full_sheds(self):
        gate = TenantGate(max_backlog=2)
        gate.register("a")
        assert gate.admit("a", 0) == ""
        assert gate.admit("a", 2) == "backlog-full"

    def test_breaker_opens_after_consecutive_sheds(self):
        gate = TenantGate(max_backlog=1, breaker_threshold=3)
        gate.register("a")
        for _ in range(3):
            assert gate.admit("a", 5) == "backlog-full"
        assert gate.breaker_open("a")
        assert gate.admit("a", 5) == "circuit-open"

    def test_breaker_half_closes_on_headroom(self):
        gate = TenantGate(max_backlog=1, breaker_threshold=2)
        gate.register("a")
        gate.admit("a", 5)
        gate.admit("a", 5)
        assert gate.breaker_open("a")
        # headroom returned: the breaker lets the tenant back in
        assert gate.admit("a", 0) == ""
        assert not gate.breaker_open("a")

    def test_tenants_are_isolated(self):
        gate = TenantGate(max_backlog=1, breaker_threshold=1)
        gate.register("a")
        gate.register("b")
        gate.admit("a", 5)
        assert gate.breaker_open("a")
        assert gate.admit("b", 0) == ""
        assert not gate.breaker_open("b")

    def test_unknown_tenant_rejected(self):
        gate = TenantGate()
        with pytest.raises(ValueError):
            gate.admit("ghost", 0)
