"""Tests for window vertex classification, including a brute-force
reference implementation on small random graphs."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.adaptive.planner import RECOMPUTE_SHARE
from repro.analysis import VertexClass, classify_window, neighbor_stability_weights
from repro.engine import ConcurrentEngine, ReferenceEngine
from repro.graphs import (
    CSRSnapshot,
    DynamicGraph,
    DynamicGraphSpec,
    generate_dynamic_graph,
    load_dataset,
)
from repro.models import make_model


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


class TestFeaturePairs:
    """The K − 1 per-pair compares a classification keeps for the
    engine's cell phase."""

    @given(
        seed=st.integers(0, 10_000),
        k=st.integers(1, 5),
        n=st.integers(1, 12),
    )
    @settings(max_examples=80, deadline=None)
    def test_each_pair_is_the_exact_row_compare(self, seed, k, n):
        """Rows are rewritten with a new value, with their own value, or
        with ``-0.0`` over ``0.0`` (equal under ``==``, different bits):
        every mask is ``(cur.features == prev.features).all(axis=1)``."""
        rng = np.random.default_rng(seed)
        feats = rng.standard_normal((n, 2)).astype(np.float32)
        feats[rng.random(n) < 0.3] = 0.0
        snaps = []
        for _ in range(k):
            feats = feats.copy()
            what = rng.integers(0, 4, size=n)
            feats[what == 1] += np.float32(1.0)  # a different value
            feats[what == 2] = feats[what == 2].copy()  # the same value
            zero = (what == 3)[:, None] & (feats == 0.0)
            feats[zero] = np.float32(-0.0) if rng.random() < 0.5 else 0.0
            snaps.append(CSRSnapshot.from_edges(n, np.empty((0, 2)), feats))
        c = classify_window(DynamicGraph(snaps))
        assert len(c.feature_pairs) == k - 1
        for t, same in enumerate(c.feature_pairs):
            prev, cur = snaps[t], snaps[t + 1]
            want = (cur.features == prev.features).all(axis=1)
            assert same.dtype == bool
            np.testing.assert_array_equal(same, want)
        stable = np.ones(n, dtype=bool)
        for same in c.feature_pairs:
            stable &= same
        np.testing.assert_array_equal(c.labels != VertexClass.AFFECTED, stable)

    def test_negative_zero_over_zero_is_unchanged(self, base_feats):
        f0 = base_feats.copy()
        f0[2] = 0.0
        f1 = f0.copy()
        f1[2] = -0.0
        c = classify_window(build_window([[[0, 1]], [[0, 1]]], [f0, f1]))
        assert c.feature_pairs[0].all()
        assert c.labels[2] == VertexClass.UNAFFECTED


class TestSharedWindow:
    """A window of read-only snapshots is classified once."""

    @staticmethod
    def _frozen(graph, k):
        return [s.frozen_copy() for s in list(graph)[:k]]

    def test_the_same_snapshots_reuse_one_classification(self):
        g = load_dataset("GT", scale=0.05, num_snapshots=4, seed=1)
        snaps = self._frozen(g, 4)
        first = classify_window(DynamicGraph(list(snaps)))
        again = classify_window(DynamicGraph(list(snaps)))
        assert again is first
        assert not first.labels.flags.writeable
        assert not any(m.flags.writeable for m in first.feature_pairs)
        fresh = classify_window(DynamicGraph([s.copy() for s in snaps]))
        assert fresh is not first
        np.testing.assert_array_equal(fresh.labels, first.labels)
        for a, b in zip(fresh.feature_pairs, first.feature_pairs):
            np.testing.assert_array_equal(a, b)

    def test_other_snapshots_or_writable_ones_are_classified_afresh(self):
        g = load_dataset("GT", scale=0.05, num_snapshots=4, seed=1)
        snaps = self._frozen(g, 4)
        first = classify_window(DynamicGraph(list(snaps)))
        # an equal but distinct first snapshot, and a shorter window
        other = [snaps[0].frozen_copy()] + snaps[1:]
        assert classify_window(DynamicGraph(other)) is not first
        assert classify_window(DynamicGraph(snaps[1:])) is not first
        writable = [s.copy() for s in snaps]
        a = classify_window(DynamicGraph(writable))
        assert classify_window(DynamicGraph(writable)) is not a
        assert a.labels.flags.writeable


def _min_scatter_labels(snaps, n):
    """The labels as classification computed them with a masked
    min-scatter over snapshot 0's edges, frozen as the oracle of the
    segmented AND that replaced it; neighbour lists compare exactly,
    row by row."""
    if len(snaps) == 1:
        return np.zeros(n, dtype=np.int64)
    present = np.stack([s.present for s in snaps])
    present_all = present.all(axis=0)
    presence_changed = present.any(axis=0) & ~present_all
    feat_stable = present_all.copy()
    for prev, cur in zip(snaps, snaps[1:]):
        feat_stable &= (cur.features == prev.features).all(axis=1)
    topo_stable = np.array([
        all(np.array_equal(prev.neighbors(v), cur.neighbors(v))
            for prev, cur in zip(snaps, snaps[1:]))
        for v in range(n)
    ], dtype=bool)
    s0 = snaps[0]
    neigh_ok = np.ones(n, dtype=np.uint8)
    if s0.num_edges:
        src = np.repeat(np.arange(n, dtype=np.int64), s0.degrees)
        np.minimum.at(neigh_ok, src, feat_stable[s0.indices].astype(np.uint8))
    labels = np.full(n, VertexClass.AFFECTED, dtype=np.int64)
    stable = feat_stable & ~presence_changed
    labels[stable] = VertexClass.STABLE
    labels[stable & topo_stable & neigh_ok.astype(bool)] = VertexClass.UNAFFECTED
    labels[~present.any(axis=0)] = VertexClass.UNAFFECTED
    return labels


#: two disjoint 16-id neighbour lists whose splitmix64-mixed ids sum to
#: the same 64-bit value: a row-hash topology test cannot tell them apart
COLLIDING_A = [53, 343, 617, 817, 1029, 1330, 1543, 1851, 2109, 2393, 2587,
               2921, 3092, 3404, 3669, 3937]
COLLIDING_B = [150, 418, 747, 964, 1154, 1421, 1667, 1992, 2227, 2531, 2698,
               3015, 3264, 3517, 3733, 4037]


def _splitmix_sum(ids):
    """The order-independent sum of splitmix64-mixed ids, modulo 2**64."""
    x = np.asarray(ids, dtype=np.uint64)
    with np.errstate(over="ignore"):
        x = (x + np.uint64(0x9E3779B97F4A7C15)) * np.uint64(0xBF58476D1CE4E5B9)
        x ^= x >> np.uint64(27)
        x *= np.uint64(0x94D049BB133111EB)
        x ^= x >> np.uint64(31)
        return int(np.add.reduce(x, dtype=np.uint64))


class TestExactTopologyTest:
    """A vertex is unaffected only when its neighbour list is identical
    in every snapshot: a changed list whose ids hash alike is still a
    change."""

    @staticmethod
    def _graph():
        ring = 4096
        n = ring + 1
        feats = np.random.default_rng(0).standard_normal((n, 4)).astype(np.float32)
        ring_edges = np.stack(
            [np.arange(ring), (np.arange(ring) + 1) % ring], axis=1
        )
        snaps = [
            CSRSnapshot.from_edges(
                n,
                np.concatenate([ring_edges, [[ring, u] for u in row]]),
                feats.copy(),
                undirected=False,
                timestamp=t,
            )
            for t, row in enumerate((COLLIDING_A, COLLIDING_B))
        ]
        return DynamicGraph(snaps)

    def test_the_pair_still_collides(self):
        assert not set(COLLIDING_A) & set(COLLIDING_B)
        assert len(COLLIDING_A) == len(COLLIDING_B)
        assert _splitmix_sum(COLLIDING_A) == _splitmix_sum(COLLIDING_B)

    def test_a_colliding_row_is_stable_and_matches_the_reference(self):
        g = self._graph()
        cls = classify_window(g)
        assert cls.labels[4096] == VertexClass.STABLE
        assert (cls.labels == VertexClass.UNAFFECTED).sum() == 4096
        # below the planner's recompute share, where a window is counted
        # as the changed-set dataflow these labels pick; the host runs one
        # kernel per window, so with skipping off its outputs read the
        # graph, not the labels, and the label itself is pinned above
        share = float((cls.labels != VertexClass.UNAFFECTED).mean())
        assert 0 < share < RECOMPUTE_SHARE
        model = make_model("T-GCN", 4, 8, seed=0)
        ref = ReferenceEngine(model, window_size=2).run(g).outputs
        got = ConcurrentEngine(
            model, window_size=2, enable_skipping=False
        ).run(g).outputs
        for a, b in zip(got, ref):
            assert a.tobytes() == b.tobytes()


class TestNeighbourFeatureStability:
    @given(
        seed=st.integers(0, 10_000),
        n=st.integers(1, 24),
        k=st.integers(2, 4),
        edgeless=st.booleans(),
    )
    @settings(max_examples=150, deadline=None)
    def test_labels_equal_min_scatter_oracle(self, seed, n, k, edgeless):
        """The segmented AND over snapshot 0's neighbour lists labels
        every vertex as the min-scatter did: empty rows, absent vertices
        and a snapshot 0 with no edges included."""
        rng = np.random.default_rng(seed)
        feats = rng.integers(0, 3, size=(n, 2)).astype(np.float32)
        edges = rng.integers(0, n, size=(int(rng.integers(0, 2 * n + 1)), 2))
        snaps = []
        for t in range(k):
            # most rows keep their neighbour list, so the neighbours'
            # features decide between stable and unaffected
            keep = rng.random(len(edges)) > 0.05
            edges = np.concatenate([edges[keep], rng.integers(0, n, size=(1, 2))])
            feats = feats.copy()
            churn = rng.random(n) < 0.1
            feats[churn] = rng.integers(0, 3, size=(churn.sum(), 2))
            present = rng.random(n) < 0.95
            # canonical: an absent vertex holds no edge
            live = edges[present[edges].all(axis=1)]
            if edgeless and t == 0:
                live = live[:0]
            snaps.append(
                CSRSnapshot.from_edges(n, live, feats, present=present)
            )
        got = classify_window(DynamicGraph(snaps)).labels
        np.testing.assert_array_equal(got, _min_scatter_labels(snaps, n))


class TestWindowFacts:
    """The facts a classification memoises for every reader of its
    window: θ's neighbour weights and the churned feature rows, against
    the formulas the engine evaluated per call before."""

    @given(
        seed=st.integers(0, 10_000),
        n=st.integers(1, 30),
        k=st.integers(1, 4),
    )
    @settings(max_examples=120, deadline=None)
    def test_each_fact_is_the_per_call_formula(self, seed, n, k):
        """Vertex turnover, feature churn (``-0.0`` over ``0.0``
        included), edge churn, isolated rows, and absent vertices, whose
        edges the canonical form drops."""
        rng = np.random.default_rng(seed)
        feats = rng.integers(0, 3, size=(n, 2)).astype(np.float32)
        edges = rng.integers(0, n, size=(2 * n, 2))
        snaps = []
        for _ in range(k):
            feats = feats.copy()
            churn = rng.random(n) < 0.2
            feats[churn] = rng.integers(0, 3, size=(churn.sum(), 2))
            feats[(rng.random(n) < 0.1)[:, None] & (feats == 0.0)] = -0.0
            keep = rng.random(len(edges)) > 0.2
            edges = np.concatenate(
                [edges[keep], rng.integers(0, n, size=(n // 3 + 1, 2))]
            )
            present = rng.random(n) < 0.85
            live = edges[present[edges].all(axis=1)]  # canonical
            snaps.append(
                CSRSnapshot.from_edges(
                    n, live, np.where(present[:, None], feats, 0.0),
                    present=present,
                )
            )
        cls = classify_window(DynamicGraph(snaps))
        every = np.arange(n, dtype=np.int64)
        subset = rng.integers(0, n, size=int(rng.integers(0, 2 * n)))
        for t in range(k - 1):
            prev, cur = snaps[t], snaps[t + 1]
            stable = (
                (cur.features == prev.features).all(axis=1)
                & prev.present & cur.present
            )
            got = cls.neighbor_weights(t)
            assert got.dtype == np.float64 and got.shape == (n,)
            want = neighbor_stability_weights(prev, cur, every, stable)
            assert got.tobytes() == want.tobytes()
            want = neighbor_stability_weights(prev, cur, subset, stable)
            assert got.take(subset).tobytes() == want.tobytes()
            assert cls.neighbor_weights(t) is got  # memoised
        churned = cls.churned_rows()
        assert len(churned) == k - 1
        for rows, snap in zip(churned, snaps[1:]):
            want = np.flatnonzero((snap.features != snaps[0].features).any(axis=1))
            assert rows.dtype == want.dtype
            np.testing.assert_array_equal(rows, want)
        assert cls.churned_rows() is churned

    def test_memoised_arrays_refuse_in_place_writes(self):
        g = load_dataset("GT", scale=0.05, num_snapshots=3, seed=1)
        cls = classify_window(g.window(0, 3))  # writable snapshots too
        facts = [
            cls.neighbor_weights(0),
            cls.neighbor_weights(1),
            *cls.churned_rows(),
            *cls.changed_rows(2),
        ]
        assert cls.changed_rows(2) is cls.changed_rows(2)
        assert cls.changed_rows(1) is not cls.changed_rows(2)
        for array in facts:
            assert not array.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                array[:1] = 0
