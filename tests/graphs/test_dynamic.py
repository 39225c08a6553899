"""Tests for DynamicGraph and SnapshotDelta."""

import numpy as np
import pytest

from repro.graphs import (
    CSRSnapshot,
    DynamicGraph,
    load_dataset,
    snapshot_delta,
)
from repro.graphs.snapshot import FEAT_DTYPE


def two_snapshots():
    n = 6
    feats = np.zeros((n, 3), dtype=FEAT_DTYPE)
    s0 = CSRSnapshot.from_edges(n, np.array([[0, 1], [1, 2], [3, 4]]), feats.copy())
    feats1 = feats.copy()
    feats1[2] = 1.0  # feature change on vertex 2
    present1 = np.ones(n, dtype=bool)
    present1[4] = False  # vertex 4 departs (takes edge 3-4 with it)
    s1 = CSRSnapshot.from_edges(
        n, np.array([[0, 1], [1, 2], [2, 5]]), feats1, present=present1
    )
    return s0, s1


class TestSnapshotDelta:
    def test_edge_changes(self):
        s0, s1 = two_snapshots()
        d = snapshot_delta(s0, s1)
        added = set(map(tuple, d.added_edges.tolist()))
        removed = set(map(tuple, d.removed_edges.tolist()))
        assert (2, 5) in added and (5, 2) in added
        assert (3, 4) in removed and (4, 3) in removed

    def test_feature_changes_only_on_co_present(self):
        s0, s1 = two_snapshots()
        d = snapshot_delta(s0, s1)
        assert d.feature_changed.tolist() == [2]

    def test_departures(self):
        s0, s1 = two_snapshots()
        d = snapshot_delta(s0, s1)
        assert d.departed.tolist() == [4]
        assert d.arrived.tolist() == []

    def test_touched_vertices_superset(self):
        s0, s1 = two_snapshots()
        d = snapshot_delta(s0, s1)
        touched = set(d.touched_vertices().tolist())
        assert {2, 3, 4, 5}.issubset(touched)
        assert 0 not in touched

    def test_identical_snapshots_empty_delta(self):
        s0, _ = two_snapshots()
        d = snapshot_delta(s0, s0)
        assert d.num_structural_changes == 0
        assert d.feature_changed.size == 0

    def test_atol_tolerance(self):
        s0, _ = two_snapshots()
        feats = s0.features.copy()
        feats[0] += 1e-6
        s1 = CSRSnapshot.from_edges(6, s0.edge_array(), feats, undirected=False)
        assert snapshot_delta(s0, s1).feature_changed.tolist() == [0]

    def test_mismatched_id_space_raises(self):
        s0, _ = two_snapshots()
        small = CSRSnapshot.from_edges(3, np.array([[0, 1]]), dim=3)
        with pytest.raises(ValueError, match="global id space"):
            snapshot_delta(s0, small)


class TestDynamicGraph:
    def test_construction_and_indexing(self):
        g = load_dataset("GT", num_snapshots=5)
        assert len(g) == 5
        assert g[0].timestamp == 0
        assert g[4].timestamp == 4
        assert g.num_snapshots == 5

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            DynamicGraph([])

    def test_dim_mismatch_rejected(self):
        s0 = CSRSnapshot.from_edges(4, np.array([[0, 1]]), dim=2)
        s1 = CSRSnapshot.from_edges(4, np.array([[0, 1]]), dim=3)
        with pytest.raises(ValueError, match="dimension"):
            DynamicGraph([s0, s1])

    def test_vertex_count_mismatch_rejected(self):
        s0 = CSRSnapshot.from_edges(4, np.array([[0, 1]]), dim=2)
        s1 = CSRSnapshot.from_edges(5, np.array([[0, 1]]), dim=2)
        with pytest.raises(ValueError, match="vertex count"):
            DynamicGraph([s0, s1])

    def test_window_preserves_timestamps(self):
        g = load_dataset("GT", num_snapshots=8)
        w = g.window(3, 4)
        assert len(w) == 4
        assert [s.timestamp for s in w] == [3, 4, 5, 6]
        # window shares the snapshot objects (views, not copies)
        assert w[0] is g[3]

    def test_window_bounds(self):
        g = load_dataset("GT", num_snapshots=5)
        with pytest.raises(IndexError):
            g.window(3, 4)
        with pytest.raises(ValueError):
            g.window(0, 0)

    def test_windows_iteration_default_stride(self):
        g = load_dataset("GT", num_snapshots=8)
        ws = list(g.windows(4))
        assert len(ws) == 2
        assert ws[0][0].timestamp == 0
        assert ws[1][0].timestamp == 4

    def test_windows_custom_stride(self):
        g = load_dataset("GT", num_snapshots=8)
        ws = list(g.windows(4, stride=2))
        assert [w[0].timestamp for w in ws] == [0, 2, 4]

    def test_delta_caching(self):
        g = load_dataset("GT", num_snapshots=4)
        d1 = g.delta(0)
        d2 = g.delta(0)
        assert d1 is d2

    def test_delta_out_of_range(self):
        g = load_dataset("GT", num_snapshots=3)
        with pytest.raises(IndexError):
            g.delta(2)

    def test_deltas_cover_all_steps(self):
        g = load_dataset("GT", num_snapshots=5)
        assert len(g.deltas()) == 4

    def test_stats_keys(self):
        g = load_dataset("GT", num_snapshots=3)
        st = g.stats()
        assert st["num_snapshots"] == 3
        assert st["total_edges"] == sum(s.num_edges for s in g)
        assert st["max_edges"] >= st["mean_edges"]

    def test_memory_bytes_sums_snapshots(self):
        g = load_dataset("GT", num_snapshots=3)
        assert g.memory_bytes() == sum(s.memory_bytes() for s in g)


class TestGeneratedDynamics:
    """The generator must actually produce dynamics — every consecutive
    pair of snapshots should differ structurally and in features."""

    def test_every_step_changes(self):
        g = load_dataset("GT", num_snapshots=6)
        for d in g.deltas():
            assert d.num_structural_changes > 0
            assert len(d.feature_changed) > 0

    def test_most_vertices_untouched_per_step(self):
        """Churn is localized: the directly-touched set stays a minority
        (the paper's Fig. 3(a) has >= 27% of vertices *unaffected* over a
        3-snapshot window, so per-step touched must stay well below half)."""
        g = load_dataset("HP", num_snapshots=6)
        n = g.num_vertices
        for d in g.deltas():
            assert len(d.touched_vertices()) < 0.45 * n

    def test_determinism(self):
        g1 = load_dataset("GT", num_snapshots=4)
        g2 = load_dataset("GT", num_snapshots=4)
        for a, b in zip(g1, g2):
            assert np.array_equal(a.indices, b.indices)
            assert np.array_equal(a.features, b.features)

    def test_seed_changes_graph(self):
        g1 = load_dataset("GT", num_snapshots=4)
        g2 = load_dataset("GT", num_snapshots=4, seed=999)
        assert not np.array_equal(g1[0].indices, g2[0].indices)
