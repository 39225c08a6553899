"""Tests for affected-subgraph extraction and the similarity score."""

import copy

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import (
    VertexClass,
    classify_window,
    cosine_rows,
    extract_affected_subgraph,
    neighbor_stability_weights,
    similarity_scores,
    union_adjacency,
)
from repro.analysis.similarity import common_neighbor_counts
from repro.graphs import (
    CSRSnapshot,
    DynamicGraph,
    DynamicGraphSpec,
    generate_dynamic_graph,
    load_dataset,
)


@pytest.fixture(scope="module")
def window():
    return load_dataset("GT", num_snapshots=6).window(0, 4)


class TestUnionAdjacency:
    def test_union_contains_every_snapshot(self, window):
        indptr, indices = union_adjacency(window)
        for s in window:
            for v in range(0, window.num_vertices, 97):
                row = s.neighbors(v)
                urow = indices[indptr[v] : indptr[v + 1]]
                assert np.isin(row, urow).all()

    def test_union_deduplicates(self, window):
        indptr, indices = union_adjacency(window)
        for v in range(0, window.num_vertices, 131):
            row = indices[indptr[v] : indptr[v + 1]]
            assert len(np.unique(row)) == len(row)


class TestAffectedSubgraph:
    def test_coverage(self, window):
        sg = extract_affected_subgraph(window)
        assert sg.coverage_ok()

    def test_no_unaffected_inside(self, window):
        sg = extract_affected_subgraph(window)
        labels = sg.classification.labels
        assert np.all(labels[sg.vertices] != VertexClass.UNAFFECTED)

    def test_dfs_order_is_permutation_of_vertices(self, window):
        sg = extract_affected_subgraph(window)
        assert np.array_equal(np.sort(sg.dfs_order), sg.vertices)

    def test_roots_are_stable(self, window):
        sg = extract_affected_subgraph(window)
        labels = sg.classification.labels
        assert np.all(labels[sg.roots] == VertexClass.STABLE)

    def test_selection_matches_vertices(self, window):
        sg = extract_affected_subgraph(window)
        sel = sg.selection()
        assert np.array_equal(sel.sources, sg.vertices)

    def test_stats_fraction(self, window):
        sg = extract_affected_subgraph(window)
        st_ = sg.stats()
        assert 0 < st_["subgraph_fraction"] < 1
        assert st_["subgraph_vertices"] == sg.num_vertices

    def test_precomputed_classification_reused(self, window):
        c = classify_window(window)
        sg = extract_affected_subgraph(window, c)
        assert sg.classification is c

    def test_identical_window_empty_subgraph(self):
        n = 5
        f = np.ones((n, 2), dtype=np.float32)
        s0 = CSRSnapshot.from_edges(n, np.array([[0, 1]]), f)
        s1 = CSRSnapshot.from_edges(n, np.array([[0, 1]]), f.copy())
        sg = extract_affected_subgraph(DynamicGraph([s0, s1]))
        assert sg.num_vertices == 0

    @given(seed=st.integers(min_value=0, max_value=3000))
    @settings(max_examples=10, deadline=None)
    def test_coverage_property(self, seed):
        g = generate_dynamic_graph(
            DynamicGraphSpec(
                name="prop", num_vertices=100, num_edges=300, dim=3,
                num_snapshots=3, seed=seed,
            )
        )
        sg = extract_affected_subgraph(g)
        assert sg.coverage_ok()
        labels = sg.classification.labels
        assert np.all(labels[sg.vertices] != VertexClass.UNAFFECTED)


class TestCosineRows:
    def test_identical_rows_score_one(self):
        a = np.random.default_rng(0).standard_normal((5, 4))
        np.testing.assert_allclose(cosine_rows(a, a), 1.0, atol=1e-12)

    def test_opposite_rows_score_minus_one(self):
        a = np.random.default_rng(0).standard_normal((5, 4))
        np.testing.assert_allclose(cosine_rows(a, -a), -1.0, atol=1e-12)

    def test_orthogonal_rows_score_zero(self):
        a = np.array([[1.0, 0.0]])
        b = np.array([[0.0, 1.0]])
        np.testing.assert_allclose(cosine_rows(a, b), 0.0, atol=1e-12)

    def test_zero_norm_scores_zero(self):
        a = np.zeros((2, 3))
        b = np.ones((2, 3))
        np.testing.assert_array_equal(cosine_rows(a, b), [0.0, 0.0])

    def test_range_clipped(self):
        rng = np.random.default_rng(1)
        a = rng.standard_normal((100, 8))
        b = rng.standard_normal((100, 8))
        c = cosine_rows(a, b)
        assert np.all((c >= -1.0) & (c <= 1.0))


def _full_intersection_oracle(snap_t, snap_t1, vertices, feature_stable):
    """``neighbor_stability_weights`` as it was before same-list rows got
    a shortcut: every row gathered from both snapshots and intersected.
    Frozen here as the oracle — do not share code with the function."""

    def gather(snap, deg):
        total = int(deg.sum())
        if total == 0:
            return np.empty(0, dtype=np.int64)
        first = np.repeat(snap.indptr[vertices].astype(np.int64), deg)
        run_start = np.repeat(np.cumsum(deg) - deg, deg)
        idx = first + (np.arange(total, dtype=np.int64) - run_start)
        return snap.indices[idx].astype(np.int64)

    vertices = np.asarray(vertices, dtype=np.int64)
    r = vertices.size
    out = np.zeros(r, dtype=np.float64)
    if r == 0:
        return out
    deg_a = snap_t.degrees[vertices].astype(np.int64)
    deg_b = snap_t1.degrees[vertices].astype(np.int64)
    out[(deg_a == 0) & (deg_b == 0)] = 1.0
    nb_a, nb_b = gather(snap_t, deg_a), gather(snap_t1, deg_b)
    if nb_a.size == 0 or nb_b.size == 0:
        return out
    n = np.int64(snap_t.num_vertices)
    owner_a = np.repeat(np.arange(r, dtype=np.int64), deg_a)
    key_a = owner_a * n + nb_a
    key_b = np.repeat(np.arange(r, dtype=np.int64), deg_b) * n + nb_b
    pos = np.searchsorted(key_b, key_a)
    pos_c = np.minimum(pos, key_b.size - 1)
    hit = (pos < key_b.size) & (key_b[pos_c] == key_a)
    owners = owner_a[hit]
    common = nb_a[hit]
    cnt = np.bincount(owners, minlength=r)
    stable = np.bincount(
        owners, weights=feature_stable[common].astype(np.float64), minlength=r
    )
    has = cnt > 0
    out[has] = stable[has] / cnt[has]
    return out


class TestNeighborStability:
    def _pair(self):
        n = 6
        f = np.zeros((n, 2), dtype=np.float32)
        s0 = CSRSnapshot.from_edges(n, np.array([[0, 1], [0, 2], [0, 3]]), f)
        s1 = CSRSnapshot.from_edges(n, np.array([[0, 1], [0, 2], [0, 4]]), f.copy())
        return s0, s1

    def test_partial_overlap_with_all_stable(self):
        s0, s1 = self._pair()
        stable = np.ones(6, dtype=bool)
        w = neighbor_stability_weights(s0, s1, np.array([0]), stable)
        # common = {1, 2}, both stable -> weight 1
        assert w[0] == 1.0

    def test_unstable_common_neighbors_reduce_weight(self):
        s0, s1 = self._pair()
        stable = np.ones(6, dtype=bool)
        stable[1] = False
        w = neighbor_stability_weights(s0, s1, np.array([0]), stable)
        assert w[0] == 0.5  # one of two common neighbours stable

    def test_isolated_both_sides_weight_one(self):
        s0, s1 = self._pair()
        w = neighbor_stability_weights(s0, s1, np.array([5]), np.ones(6, bool))
        assert w[0] == 1.0

    def test_disjoint_neighborhoods_weight_zero(self):
        n = 4
        f = np.zeros((n, 1), dtype=np.float32)
        s0 = CSRSnapshot.from_edges(n, np.array([[0, 1]]), f)
        s1 = CSRSnapshot.from_edges(n, np.array([[0, 2]]), f.copy())
        w = neighbor_stability_weights(s0, s1, np.array([0]), np.ones(n, bool))
        assert w[0] == 0.0

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 10_000), n=st.integers(1, 30))
    def test_counts_are_the_exact_intersection(self, seed, n):
        """Per row, the common count is the size of the two lists'
        intersection and the stable count that of its stable part, so a
        row kept its list exactly when its count is both degrees."""
        rng = np.random.default_rng(seed)
        edges = rng.integers(0, n, size=(2 * n, 2))
        keep = rng.random(len(edges)) < 0.7
        s0 = CSRSnapshot.from_edges(n, edges, undirected=False)
        s1 = CSRSnapshot.from_edges(
            n,
            np.concatenate([edges[keep], rng.integers(0, n, size=(n // 2, 2))]),
            undirected=False,
        )
        stable = rng.random(n) < 0.5
        common, stable_common = common_neighbor_counts(s0, s1, stable)
        assert common.shape == stable_common.shape == (n,)
        for v in range(n):
            both = np.intersect1d(s0.neighbors(v), s1.neighbors(v))
            assert common[v] == len(both)
            assert stable_common[v] == stable[both].sum()
            same = common[v] == s0.degrees[v] == s1.degrees[v]
            assert same == np.array_equal(s0.neighbors(v), s1.neighbors(v))


    @settings(max_examples=80, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        churn=st.sampled_from([0.0, 0.05, 0.4, 1.0]),
        picks=st.lists(st.integers(0, 29), max_size=45),
    )
    def test_matches_full_intersection(self, seed, churn, picks):
        """Same-list rows take the segmented-sum shortcut; intersecting
        every row — the body this function used to be — is the oracle.
        Covers empty rows, absent vertices, duplicate and unsorted
        ``vertices``, all-same (churn 0) and none-same (churn 1) pairs."""
        n = 30
        rng = np.random.default_rng(seed)
        edges = rng.integers(0, n, size=(rng.integers(0, 120), 2))
        present = rng.random(n) < 0.85
        edges = edges[present[edges[:, 0]] & present[edges[:, 1]]]
        feats = np.zeros((n, 1), dtype=np.float32)
        s0 = CSRSnapshot.from_edges(n, edges, feats, present=present)
        keep = rng.random(len(edges)) >= churn
        fresh = rng.integers(0, n, size=(int((~keep).sum()), 2))
        fresh = fresh[present[fresh[:, 0]] & present[fresh[:, 1]]]
        s1 = CSRSnapshot.from_edges(
            n, np.concatenate([edges[keep], fresh]), feats.copy(),
            present=present,
        )
        stable = rng.random(n) < 0.6
        vertices = np.asarray(picks, dtype=np.int64)
        got = neighbor_stability_weights(s0, s1, vertices, stable)
        want = _full_intersection_oracle(s0, s1, vertices, stable)
        assert got.dtype == want.dtype == np.float64
        assert got.tobytes() == want.tobytes()
        if churn == 0.0:
            assert np.array_equal(s0.indices, s1.indices)

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        n=st.integers(min_value=1, max_value=300),
        churn=st.sampled_from([0.0, 0.3, 1.0]),
        rows=st.sampled_from(["every", "none", "picked"]),
        stability=st.sampled_from(["all", "none", "random"]),
        wide=st.booleans(),
    )
    def test_directed_rows_match_full_intersection(
        self, seed, n, churn, rows, stability, wide
    ):
        """The compiled merge against the same frozen oracle, bit for
        bit, on directed graphs (a row's lists differ from its column's)
        of up to 300 vertices: every row scored, none, or duplicated
        unsorted picks; all, none or some vertices feature-stable;
        absent vertices scored too; and, when ``wide``, a pair whose
        second snapshot holds int64 indices (the kernels want one index
        dtype)."""
        rng = np.random.default_rng(seed)
        present = rng.random(n) < 0.8

        def snapshot(edges):
            edges = edges[present[edges[:, 0]] & present[edges[:, 1]]]
            return CSRSnapshot.from_edges(
                n, edges, present=present, undirected=False
            )

        edges = rng.integers(0, n, size=(rng.integers(0, 6 * n + 1), 2))
        keep = rng.random(len(edges)) >= churn
        fresh = rng.integers(0, n, size=(int((~keep).sum()), 2))
        s0 = snapshot(edges)
        s1 = snapshot(np.concatenate([edges[keep], fresh]))
        if wide:
            s1 = CSRSnapshot(
                s1.indptr, s1.indices.astype(np.int64), s1.features, s1.present
            )
        stable = {
            "all": np.ones(n, dtype=bool),
            "none": np.zeros(n, dtype=bool),
            "random": rng.random(n) < 0.5,
        }[stability]
        vertices = {
            "every": np.arange(n),
            "none": np.empty(0, dtype=np.int64),
            "picked": rng.integers(0, n, size=2 * n),
        }[rows]
        got = neighbor_stability_weights(s0, s1, vertices, stable)
        want = _full_intersection_oracle(s0, s1, vertices, stable)
        assert got.dtype == want.dtype == np.float64
        assert got.tobytes() == want.tobytes()

    def test_a_torn_snapshot_is_refused_not_read(self):
        """A snapshot whose arrays were swapped past ``__post_init__`` —
        an index past the last vertex, or a row pointer that runs
        backwards — raises before the compiled merge reads it."""
        s0, s1 = self._pair()
        past, back = copy.copy(s1), copy.copy(s1)
        past.indices = s1.indices.copy()
        past.indices[-1] = s1.num_vertices
        back.indptr = s1.indptr.copy()
        back.indptr[1] = back.indptr[2] + 1
        for torn in (past, back):
            with pytest.raises(IndexError, match="malformed CSR"):
                neighbor_stability_weights(
                    s0, torn, np.arange(6), np.ones(6, dtype=bool)
                )

    @pytest.mark.parametrize("sizes", [(6, 7), (7, 6)])
    def test_snapshots_of_different_sizes_are_refused(self, sizes):
        edges = np.array([[0, 1], [0, 2], [0, 4]])
        s0, s1 = (CSRSnapshot.from_edges(n, edges) for n in sizes)
        with pytest.raises(ValueError, match="vertices"):
            neighbor_stability_weights(
                s0, s1, np.arange(6), np.ones(sizes[0], dtype=bool)
            )


class TestSimilarityScores:
    def test_identical_everything_scores_one(self, window):
        """Unaffected vertices (all common neighbours stable) with
        identical GNN outputs on an identical snapshot score exactly 1."""
        rng = np.random.default_rng(0)
        z = rng.standard_normal((window.num_vertices, 8))
        c = classify_window(window.window(0, 2))
        verts = np.flatnonzero(c.unaffected_mask & window[0].present)[:50]
        (theta,) = similarity_scores([z, z], [window[0], window[0]], verts)
        np.testing.assert_allclose(theta, 1.0, atol=1e-9)

    def test_range(self, window):
        rng = np.random.default_rng(0)
        z0 = rng.standard_normal((window.num_vertices, 8))
        z1 = rng.standard_normal((window.num_vertices, 8))
        verts = np.arange(0, window.num_vertices, 7)
        (theta,) = similarity_scores([z0, z1], [window[0], window[1]], verts)
        assert np.all((theta >= -1.0) & (theta <= 1.0))

    def test_feature_divergence_lowers_score(self, window):
        rng = np.random.default_rng(0)
        z0 = rng.standard_normal((window.num_vertices, 8))
        z1 = z0 + 0.05 * rng.standard_normal(z0.shape)
        z1_far = -z0
        verts = np.arange(0, window.num_vertices, 13)
        (near,) = similarity_scores([z0, z1], [window[0], window[1]], verts)
        (far,) = similarity_scores([z0, z1_far], [window[0], window[1]], verts)
        assert near.mean() > far.mean()
