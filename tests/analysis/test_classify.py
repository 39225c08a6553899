"""Tests for window vertex classification, including a brute-force
reference implementation on small random graphs."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import VertexClass, classify_window
from repro.graphs import (
    CSRSnapshot,
    DynamicGraph,
    DynamicGraphSpec,
    generate_dynamic_graph,
    load_dataset,
)


def build_window(edge_lists, features_list, present_list=None, n=6, d=2):
    snaps = []
    for i, (edges, feats) in enumerate(zip(edge_lists, features_list)):
        present = None if present_list is None else present_list[i]
        snaps.append(
            CSRSnapshot.from_edges(
                n, np.array(edges).reshape(-1, 2), feats, present=present
            )
        )
    return DynamicGraph(snaps)


@pytest.fixture
def base_feats():
    return np.arange(12, dtype=np.float32).reshape(6, 2)


class TestClassifyHandCases:
    def test_identical_window_all_unaffected(self, base_feats):
        w = build_window(
            [[[0, 1], [1, 2]], [[0, 1], [1, 2]]], [base_feats, base_feats.copy()]
        )
        c = classify_window(w)
        assert c.unaffected_ratio() == 1.0

    def test_feature_change_is_affected(self, base_feats):
        f1 = base_feats.copy()
        f1[3] = 99.0
        w = build_window([[[0, 1], [3, 4]], [[0, 1], [3, 4]]], [base_feats, f1])
        c = classify_window(w)
        assert c.labels[3] == VertexClass.AFFECTED
        # 4 is topologically unchanged but its neighbour 3's feature
        # changed -> stable, not unaffected
        assert c.labels[4] == VertexClass.STABLE
        assert c.labels[0] == VertexClass.UNAFFECTED

    def test_edge_change_makes_stable(self, base_feats):
        w = build_window(
            [[[0, 1], [2, 3]], [[0, 1], [2, 4]]],
            [base_feats, base_feats.copy()],
        )
        c = classify_window(w)
        # 2's neighbours changed (3 -> 4), feature unchanged -> stable
        assert c.labels[2] == VertexClass.STABLE
        assert c.labels[3] == VertexClass.STABLE
        assert c.labels[4] == VertexClass.STABLE
        assert c.labels[0] == VertexClass.UNAFFECTED
        assert c.labels[1] == VertexClass.UNAFFECTED

    def test_departure_is_affected(self, base_feats):
        p0 = np.ones(6, dtype=bool)
        p1 = p0.copy()
        p1[5] = False
        f1 = base_feats.copy()
        f1[5] = 0.0  # canonical absent row
        w = build_window(
            [[[0, 1]], [[0, 1]]], [base_feats, f1], present_list=[p0, p1]
        )
        c = classify_window(w)
        assert c.labels[5] == VertexClass.AFFECTED

    def test_always_absent_is_unaffected(self, base_feats):
        p = np.ones(6, dtype=bool)
        p[5] = False
        f = base_feats.copy()
        f[5] = 0.0
        w = build_window([[[0, 1]], [[0, 1]]], [f, f.copy()], present_list=[p, p.copy()])
        c = classify_window(w)
        assert c.labels[5] == VertexClass.UNAFFECTED

    def test_single_snapshot_all_unaffected(self, base_feats):
        w = build_window([[[0, 1]]], [base_feats])
        assert classify_window(w).unaffected_ratio() == 1.0

    def test_paper_figure4_example(self):
        """Figure 4(b): v0..v3 unaffected, v4 stable, v5..v7 affected."""
        n, d = 8, 2
        f = np.arange(16, dtype=np.float32).reshape(8, 2)
        # v4 keeps its feature but its neighbourhood churns between
        # v5/v6; v5, v6, v7 change features.
        f_t1 = f.copy(); f_t1[5] += 1; f_t1[7] += 1
        f_t2 = f_t1.copy(); f_t2[6] += 1; f_t2[7] += 1
        base = [[0, 1], [1, 2], [2, 3], [0, 3]]
        e0 = base + [[4, 5], [4, 6], [5, 7]]
        e1 = base + [[4, 5], [5, 7]]
        e2 = base + [[4, 6], [6, 7]]
        w = build_window([e0, e1, e2], [f, f_t1, f_t2], n=n)
        c = classify_window(w)
        for v in (0, 1, 2, 3):
            assert c.labels[v] == VertexClass.UNAFFECTED, v
        assert c.labels[4] == VertexClass.STABLE
        for v in (5, 6, 7):
            assert c.labels[v] == VertexClass.AFFECTED, v

    def test_atol_tolerance(self, base_feats):
        f1 = base_feats.copy()
        f1[0] += 1e-6
        w = build_window([[[0, 1]], [[0, 1]]], [base_feats, f1])
        assert classify_window(w).labels[0] == VertexClass.AFFECTED


class TestClassificationAPI:
    def test_masks_partition(self):
        g = load_dataset("GT", num_snapshots=4)
        c = classify_window(g.window(0, 4))
        total = c.unaffected_mask.sum() + c.stable_mask.sum() + c.affected_mask.sum()
        assert total == g.num_vertices

    def test_counts_consistent(self):
        g = load_dataset("GT", num_snapshots=3)
        c = classify_window(g.window(0, 3))
        counts = c.counts()
        assert counts["unaffected"] == int(c.unaffected_mask.sum())
        assert sum(counts.values()) == g.num_vertices

    def test_feature_stable_is_union(self):
        g = load_dataset("GT", num_snapshots=3)
        c = classify_window(g.window(0, 3))
        np.testing.assert_array_equal(
            c.feature_stable_mask, c.unaffected_mask | c.stable_mask
        )

    def test_recompute_vertices_sorted(self):
        g = load_dataset("GT", num_snapshots=3)
        c = classify_window(g.window(0, 3))
        rv = c.recompute_vertices()
        assert np.all(np.diff(rv) > 0)

    def test_fig3a_bands(self):
        """The generator + classifier must land in the paper's measured
        bands: 27.3-45.3% unaffected over 3 snapshots, 10.6-24.4% over 4."""
        for name in ("HP", "GT", "ML", "EP", "FK"):
            g = load_dataset(name, num_snapshots=6)
            r3 = classify_window(g.window(0, 3)).unaffected_ratio()
            r4 = classify_window(g.window(0, 4)).unaffected_ratio()
            assert 0.25 <= r3 <= 0.48, (name, r3)
            assert 0.09 <= r4 <= 0.27, (name, r4)

    def test_monotone_in_window_size(self):
        """A longer window can only shrink the unaffected set."""
        g = load_dataset("FK", num_snapshots=6)
        ratios = [
            classify_window(g.window(0, k)).unaffected_ratio() for k in (2, 3, 4, 5)
        ]
        assert all(a >= b for a, b in zip(ratios, ratios[1:]))


def brute_force_classify(window):
    """O(n * K * deg) reference implementation straight from the paper's
    definitions."""
    n = window.num_vertices
    snaps = window.snapshots
    labels = np.empty(n, dtype=np.int64)
    for v in range(n):
        present = [s.present[v] for s in snaps]
        if not any(present):
            labels[v] = VertexClass.UNAFFECTED
            continue
        if not all(present):
            labels[v] = VertexClass.AFFECTED
            continue
        feat_same = all(
            np.array_equal(snaps[0].features[v], s.features[v]) for s in snaps[1:]
        )
        if not feat_same:
            labels[v] = VertexClass.AFFECTED
            continue
        rows_same = all(
            np.array_equal(snaps[0].neighbors(v), s.neighbors(v)) for s in snaps[1:]
        )
        neigh_feat_same = rows_same and all(
            np.array_equal(snaps[0].features[u], s.features[u])
            for u in snaps[0].neighbors(v).tolist()
            for s in snaps[1:]
        )
        labels[v] = (
            VertexClass.UNAFFECTED if rows_same and neigh_feat_same
            else VertexClass.STABLE
        )
    return labels


class TestAgainstBruteForce:
    @given(seed=st.integers(min_value=0, max_value=5000),
           k=st.integers(min_value=2, max_value=4))
    @settings(max_examples=15, deadline=None)
    def test_matches_reference(self, seed, k):
        g = generate_dynamic_graph(
            DynamicGraphSpec(
                name="prop", num_vertices=100, num_edges=300, dim=3,
                num_snapshots=k, seed=seed,
            )
        )
        fast = classify_window(g).labels
        slow = brute_force_classify(g)
        np.testing.assert_array_equal(fast, slow)
