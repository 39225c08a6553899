"""Unit and property tests for CSR snapshots."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graphs import CSRSnapshot, build_csr, degrees_from_indptr
from repro.graphs.snapshot import FEAT_DTYPE


def small_snapshot(undirected=True):
    edges = np.array([[0, 1], [1, 2], [2, 3], [0, 2]])
    feats = np.arange(20, dtype=FEAT_DTYPE).reshape(5, 4)
    return CSRSnapshot.from_edges(5, edges, feats, undirected=undirected)


class TestBuildCSR:
    def test_empty_graph(self):
        indptr, indices = build_csr(4, np.array([]), np.array([]))
        assert indptr.tolist() == [0, 0, 0, 0, 0]
        assert indices.size == 0

    def test_sorted_rows(self):
        src = np.array([2, 0, 0, 2, 1])
        dst = np.array([1, 3, 1, 0, 2])
        indptr, indices = build_csr(4, src, dst)
        assert indptr.tolist() == [0, 2, 3, 5, 5]
        assert indices.tolist() == [1, 3, 2, 0, 1]

    def test_dedup(self):
        src = np.array([0, 0, 0])
        dst = np.array([1, 1, 2])
        indptr, indices = build_csr(3, src, dst)
        assert indices.tolist() == [1, 2]

    def test_out_of_range_raises(self):
        with pytest.raises(ValueError, match="out of range"):
            build_csr(3, np.array([0]), np.array([5]))

    def test_length_mismatch_raises(self):
        with pytest.raises(ValueError, match="mismatch"):
            build_csr(3, np.array([0, 1]), np.array([1]))


class TestSnapshotBasics:
    def test_counts(self):
        s = small_snapshot()
        assert s.num_vertices == 5
        assert s.num_edges == 8  # 4 undirected edges, both directions
        assert s.dim == 4
        assert s.num_present == 5

    def test_neighbors_sorted_views(self):
        s = small_snapshot()
        assert s.neighbors(0).tolist() == [1, 2]
        assert s.neighbors(2).tolist() == [0, 1, 3]
        assert s.neighbors(4).tolist() == []
        # zero-copy: the row is a view into indices
        assert s.neighbors(0).base is s.indices

    def test_degrees(self):
        s = small_snapshot()
        assert s.degrees.tolist() == [2, 2, 3, 1, 0]
        assert degrees_from_indptr(s.indptr).tolist() == [2, 2, 3, 1, 0]

    def test_has_edge(self):
        s = small_snapshot()
        assert s.has_edge(0, 1)
        assert s.has_edge(1, 0)
        assert not s.has_edge(0, 3)
        assert not s.has_edge(4, 0)

    def test_directed_mode(self):
        s = small_snapshot(undirected=False)
        assert s.has_edge(0, 1)
        assert not s.has_edge(1, 0)

    def test_feature_shape_validation(self):
        with pytest.raises(ValueError, match="features rows"):
            CSRSnapshot(
                indptr=np.array([0, 0], dtype=np.int64),
                indices=np.array([], dtype=np.int32),
                features=np.zeros((2, 3), dtype=FEAT_DTYPE),
                present=np.ones(1, dtype=bool),
            )

    def test_malformed_indptr_rejected(self):
        with pytest.raises(ValueError, match="indptr"):
            CSRSnapshot(
                indptr=np.array([0, 5], dtype=np.int64),
                indices=np.array([], dtype=np.int32),
                features=np.zeros((1, 1), dtype=FEAT_DTYPE),
                present=np.ones(1, dtype=bool),
            )

    def test_edge_array_roundtrip(self):
        s = small_snapshot()
        ea = s.edge_array()
        rebuilt = CSRSnapshot.from_edges(
            5, ea, s.features, undirected=False
        )
        assert np.array_equal(rebuilt.indptr, s.indptr)
        assert np.array_equal(rebuilt.indices, s.indices)

    def test_memory_bytes_positive(self):
        s = small_snapshot()
        assert s.memory_bytes() > s.features.nbytes


class TestAggregate:
    def test_matches_dense_reference(self):
        """aggregate() must equal D_hat^-1 (A+I) X computed densely."""
        rng = np.random.default_rng(0)
        n, d = 30, 7
        edges = rng.integers(0, n, size=(60, 2))
        edges = edges[edges[:, 0] != edges[:, 1]]
        x = rng.standard_normal((n, d)).astype(np.float32)
        s = CSRSnapshot.from_edges(n, edges, x)

        a = np.zeros((n, n))
        for u, v in s.edge_array():
            a[u, v] = 1.0
        a += np.eye(n)
        dd = a.sum(axis=1)
        ref = (a / dd[:, None]) @ x.astype(np.float64)

        out = s.aggregate(x)
        np.testing.assert_allclose(out, ref, rtol=1e-4, atol=1e-5)

    def test_unaffected_invariance(self):
        """The property the whole paper rests on: a vertex with unchanged
        neighbours, features, and neighbours' features has an identical
        aggregation output even when a *neighbour's degree* changes
        elsewhere (true under mean normalisation, false under symmetric)."""
        x = np.random.default_rng(0).standard_normal((5, 3)).astype(np.float32)
        s1 = CSRSnapshot.from_edges(5, np.array([[0, 1], [1, 2]]), x)
        # add an edge 2-4: vertex 2's degree changes, but vertex 0's
        # neighbourhood (just v1) and v1's feature are untouched
        s2 = CSRSnapshot.from_edges(5, np.array([[0, 1], [1, 2], [2, 4]]), x)
        out1 = s1.aggregate(x)
        out2 = s2.aggregate(x)
        np.testing.assert_allclose(out1[0], out2[0], rtol=1e-6)

    def test_absent_vertices_do_not_contribute(self):
        edges = np.array([[0, 1]])
        x = np.ones((3, 2), dtype=np.float32)
        present = np.array([True, True, False])
        s = CSRSnapshot.from_edges(3, edges, x, present=present)
        out = s.aggregate(x)
        # vertex 2 is absent: its coefficient is zero so its row is zero
        assert np.all(out[2] == 0)
        # and it holds no edge: the canonical form refuses one
        with pytest.raises(ValueError, match="absent vertex 2"):
            CSRSnapshot.from_edges(3, [[0, 1], [1, 2]], x, present=present)

    def test_isolated_vertex_self_loop_only(self):
        x = np.array([[2.0, 4.0]], dtype=np.float32)
        s = CSRSnapshot.from_edges(1, np.empty((0, 2), dtype=int), x)
        out = s.aggregate(x)
        np.testing.assert_allclose(out, x)  # d_hat = 1 -> output = input

    def test_no_self_loops_mode(self):
        edges = np.array([[0, 1]])
        x = np.array([[1.0, 0.0], [0.0, 1.0]], dtype=np.float32)
        s = CSRSnapshot.from_edges(2, edges, x)
        out = s.aggregate(x, add_self_loops=False)
        # pure mean over neighbours: each vertex sees the other
        np.testing.assert_allclose(out, [[0.0, 1.0], [1.0, 0.0]], atol=1e-6)


@st.composite
def random_edge_lists(draw):
    n = draw(st.integers(min_value=2, max_value=40))
    m = draw(st.integers(min_value=0, max_value=120))
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    rng = np.random.default_rng(seed)
    edges = rng.integers(0, n, size=(m, 2))
    edges = edges[edges[:, 0] != edges[:, 1]]
    return n, edges


class TestSnapshotProperties:
    @given(random_edge_lists())
    @settings(max_examples=60, deadline=None)
    def test_csr_rows_sorted_unique(self, case):
        n, edges = case
        s = CSRSnapshot.from_edges(n, edges, dim=2)
        for v in range(n):
            row = s.neighbors(v)
            assert np.all(np.diff(row) > 0)  # strictly increasing

    @given(random_edge_lists())
    @settings(max_examples=60, deadline=None)
    def test_undirected_symmetry(self, case):
        n, edges = case
        s = CSRSnapshot.from_edges(n, edges, dim=2)
        for u, v in s.edge_array():
            assert s.has_edge(v, u)

    @given(random_edge_lists())
    @settings(max_examples=40, deadline=None)
    def test_aggregate_is_max_norm_contraction(self, case):
        """Mean aggregation is row-stochastic: every output entry is a
        convex combination of inputs, so the max-norm never grows."""
        n, edges = case
        rng = np.random.default_rng(0)
        x = rng.standard_normal((n, 3)).astype(np.float32)
        s = CSRSnapshot.from_edges(n, edges, dim=3)
        out = s.aggregate(x)
        assert np.abs(out).max() <= np.abs(x).max() * (1.0 + 1e-5)

    @given(random_edge_lists())
    @settings(max_examples=40, deadline=None)
    def test_csr_stable_under_rebuild(self, case):
        """The CSR is canonical: any order of the same edges builds the
        same arrays, so equal neighbour lists are equal rows."""
        n, edges = case
        s1 = CSRSnapshot.from_edges(n, edges, dim=1)
        perm = np.random.default_rng(1).permutation(len(edges))
        s2 = CSRSnapshot.from_edges(n, edges[perm], dim=1)
        assert s1.indptr.tobytes() == s2.indptr.tobytes()
        assert s1.indices.tobytes() == s2.indices.tobytes()
