"""Property tests: the segment-sum kernel == the ``np.add.at`` scatter.

:func:`repro.graphs.snapshot.segment_sum` replaced a 2-D ``np.add.at``
scatter under a bit-for-bit contract: row ``r`` is
``((0 + x[n0]) + x[n1]) + ...`` in ascending CSR position.  The scatter
survives here as the oracle, and every comparison is on ``tobytes()`` —
``array_equal`` would call ``-0.0`` and ``0.0`` equal, and a sum that
starts from zero must never produce the former.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import WORKSPACE, ConcurrentEngine, ReferenceEngine
from repro.engine.metrics import ExecutionMetrics
from repro.graphs import CSRSnapshot, DynamicGraph
from repro.graphs.snapshot import build_csr, segment_sum
from repro.models import make_model
from repro.models.layers import GCNLayer

SHAPES = ("regular", "power-law", "star")
WIDTHS = (1, 2, 3, 32)
MASKS = ("none", "random", "empty", "all")
VALUES = ("normal", "signed-zero", "denormal", "cancelling")


def scatter_oracle(indptr, indices, x, mask=None):
    """The replaced implementation: one ``np.add.at`` over the edges."""
    src = np.repeat(np.arange(len(indptr) - 1), np.diff(indptr))
    out = np.zeros_like(x)
    if mask is None:
        np.add.at(out, src, x[indices])
        return out
    sel = mask[src]
    np.add.at(out, src[sel], x[indices[sel]])
    return out[mask]


def make_csr(shape: str, n: int, rng) -> tuple[np.ndarray, np.ndarray]:
    """Directed CSR of one of the three degree shapes; a few vertices
    always keep an empty row."""
    live = max(n - 3, 1)  # the last ids stay isolated
    if shape == "regular":
        k = int(rng.integers(1, min(live, 6) + 1))
        src = np.repeat(np.arange(live), k)
        dst = (src + np.tile(np.arange(1, k + 1), live)) % live
    elif shape == "power-law":
        deg = np.minimum(rng.zipf(1.6, size=live), live)
        src = np.repeat(np.arange(live), deg)
        dst = rng.integers(0, live, size=len(src))
    else:  # one hub adjacent to everyone, leaves adjacent to the hub
        leaves = np.arange(1, live)
        src = np.concatenate([np.zeros(len(leaves), dtype=np.int64), leaves])
        dst = np.concatenate([leaves, np.zeros(len(leaves), dtype=np.int64)])
    return build_csr(n, src, dst)


def make_values(kind: str, n: int, width: int, dtype, rng) -> np.ndarray:
    x = rng.standard_normal((n, width)).astype(dtype)
    if kind == "signed-zero":
        x[rng.random((n, width)) < 0.7] = -0.0
        x[rng.random(n) < 0.3] = -0.0  # whole rows: all-(-0.0) sums
    elif kind == "denormal":
        x *= np.finfo(dtype).tiny
        x[rng.random((n, width)) < 0.2] = np.finfo(dtype).smallest_subnormal
    elif kind == "cancelling":
        # +-v only: neighbour sums pass through exact zero mid-row
        x = (rng.choice([-1.0, 1.0], size=(n, width)) * 1.375).astype(dtype)
    return x


def make_mask(kind: str, n: int, rng) -> np.ndarray | None:
    if kind == "none":
        return None
    if kind == "random":
        return rng.random(n) < 0.4
    return np.full(n, kind == "all")


def assert_same_bytes(got: np.ndarray, want: np.ndarray) -> None:
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


class TestSegmentSumMatchesScatter:
    @given(
        seed=st.integers(0, 10_000),
        # small graphs, and hub-heavy ones: star / power-law hubs of
        # degree in the hundreds run through the lane-wise hub finish
        n=st.one_of(st.integers(1, 60), st.integers(150, 500)),
        shape=st.sampled_from(SHAPES),
        width=st.sampled_from(WIDTHS),
        dtype=st.sampled_from([np.float32, np.float64]),
        mask=st.sampled_from(MASKS),
        values=st.sampled_from(VALUES),
    )
    @settings(max_examples=300, deadline=None)
    def test_bit_identical(self, seed, n, shape, width, dtype, mask, values):
        rng = np.random.default_rng(seed)
        indptr, indices = make_csr(shape, n, rng)
        x = make_values(values, n, width, dtype, rng)
        m = make_mask(mask, n, rng)
        rows = None if m is None else np.flatnonzero(m)
        assert_same_bytes(
            segment_sum(indptr, indices, x, rows),
            scatter_oracle(indptr, indices, x, m),
        )

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("width", [2, 3, 4, 8, 32])
    def test_numpy_reduces_axis0_of_a_c_contiguous_gather_row_by_row(
        self, width, dtype
    ):
        """The order the hub finish leans on, pinned here because NumPy
        does not document it: reducing a C-contiguous ``(deg, width)``
        array over axis 0 (``width >= 2``, so never the fast axis) adds
        row 0, 1, 2, ... in turn, as ``accumulate`` does by definition.
        A NumPy that changes this fails *this* test, by name."""
        rng = np.random.default_rng(width)
        degrees = list(range(2, 140)) + [255, 256, 257, 511, 512, 999, 1000]
        for deg in degrees:
            x = rng.standard_normal((deg + 5, width)).astype(dtype)
            g = x.take(rng.integers(0, len(x), size=deg), axis=0)
            assert g.flags.c_contiguous
            assert_same_bytes(
                np.add.reduce(g, axis=0), np.add.accumulate(g, axis=0)[-1]
            )

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("width", [None, 1])
    def test_hubs_of_one_lane_do_not_rely_on_reduce_order(self, width, dtype):
        """1-D ``x`` and width 1 reduce along the fast axis, where NumPy
        sums pairwise: their hubs must keep the sequential finish."""
        rng = np.random.default_rng(5)
        indptr, indices = make_csr("star", 400, rng)
        x = rng.standard_normal(400 if width is None else (400, 1)).astype(dtype)
        assert_same_bytes(
            segment_sum(indptr, indices, x), scatter_oracle(indptr, indices, x)
        )

    @given(seed=st.integers(0, 10_000), shape=st.sampled_from(SHAPES))
    @settings(max_examples=30, deadline=None)
    def test_one_dimensional_integers(self, seed, shape):
        """``x`` may be 1-D, and integer adds wrap like the scatter's."""
        rng = np.random.default_rng(seed)
        indptr, indices = make_csr(shape, 40, rng)
        x = rng.integers(0, 2**64, size=40, dtype=np.uint64)
        assert_same_bytes(
            segment_sum(indptr, indices, x), scatter_oracle(indptr, indices, x)
        )

    def test_negative_zero_never_survives_a_zero_started_sum(self):
        """Both the slot path (degree 2) and the hub path (the star's
        centre) must return +0.0 for a row of -0.0 neighbours."""
        indptr, indices = make_csr("star", 12, np.random.default_rng(0))
        x = np.full((12, 2), -0.0, dtype=np.float32)
        out = segment_sum(indptr, indices, x)
        assert not np.signbit(out).any()
        assert_same_bytes(out, scatter_oracle(indptr, indices, x))

    def test_no_edges(self):
        indptr, indices = build_csr(5, np.array([]), np.array([]))
        x = np.ones((5, 3), dtype=np.float32)
        assert_same_bytes(segment_sum(indptr, indices, x), np.zeros_like(x))
        assert segment_sum(indptr, indices, x, np.arange(0)).shape == (0, 3)


class TestRowFingerprints:
    @given(seed=st.integers(0, 10_000), shape=st.sampled_from(SHAPES))
    @settings(max_examples=30, deadline=None)
    def test_equal_the_per_edge_scatter(self, seed, shape):
        """The prefix-sum form keeps every fingerprint the ``np.add.at``
        form produced (checkpoints and classifications depend on them)."""
        indptr, indices = make_csr(shape, 40, np.random.default_rng(seed))
        snap = CSRSnapshot(
            indptr, indices, np.zeros((40, 1), np.float32), np.ones(40, bool)
        )
        x = indices.astype(np.uint64)
        x = (x + np.uint64(0x9E3779B97F4A7C15)) * np.uint64(0xBF58476D1CE4E5B9)
        x ^= x >> np.uint64(27)
        x *= np.uint64(0x94D049BB133111EB)
        x ^= x >> np.uint64(31)
        want = np.zeros(40, dtype=np.uint64)
        np.add.at(want, np.repeat(np.arange(40), snap.degrees), x)
        want += snap.degrees.astype(np.uint64) * np.uint64(0xDA942042E4DD58B5)
        assert_same_bytes(snap.row_fingerprints(), want)


def hub_snapshot(seed: int, n: int = 48, dim: int = 5) -> CSRSnapshot:
    """Two hubs over a sparse random background, some vertices absent."""
    rng = np.random.default_rng(seed)
    others = np.arange(2, n)
    spokes = np.concatenate(
        [
            np.stack([np.zeros(n - 2, dtype=np.int64), others], axis=1),
            np.stack([np.ones(n // 2, dtype=np.int64), others[: n // 2]], axis=1),
        ]
    )
    background = rng.integers(2, n, size=(n, 2))
    background = background[background[:, 0] != background[:, 1]]
    present = np.ones(n, dtype=bool)
    present[rng.choice(others, size=4, replace=False)] = False
    edges = np.concatenate([spokes, background])
    edges = edges[present[edges].all(axis=1)]
    feats = rng.standard_normal((n, dim)).astype(np.float32)
    feats[~present] = 0.0
    return CSRSnapshot.from_edges(n, edges, feats, present=present)


class TestAggregateKernels:
    @given(
        seed=st.integers(0, 10_000),
        loops=st.booleans(),
        pick=st.sampled_from(["random", "empty", "all", "absent", "repeated"]),
    )
    @settings(max_examples=80, deadline=None)
    def test_row_restricted_equals_rows_of_full(self, seed, loops, pick):
        """``aggregate(x, rows=r)`` is ``aggregate(x)[r]`` to the bit."""
        snap = hub_snapshot(seed)
        rng = np.random.default_rng(seed + 2)
        x = make_values("signed-zero", snap.num_vertices, 4, np.float32, rng)
        if pick == "absent":
            rows = np.flatnonzero(~snap.present)
        elif pick == "repeated":  # any order, any multiplicity
            rows = rng.integers(0, snap.num_vertices, size=snap.num_vertices)
        else:
            rows = np.flatnonzero(make_mask(pick, snap.num_vertices, rng))
            if pick == "random":
                rows = np.union1d(rows, [0, 1])  # always both hubs
        got = snap.aggregate(x, add_self_loops=loops, rows=rows)
        want = snap.aggregate(x, add_self_loops=loops)[rows]
        assert_same_bytes(got, want)

    @given(seed=st.integers(0, 10_000), shrink=st.booleans())
    @settings(max_examples=40, deadline=None)
    def test_layer_rows_equal_rows_of_full_aggregate(self, seed, shrink):
        """The engine's row-restricted layer == the same rows of the
        full one."""
        snap = hub_snapshot(seed)
        rng = np.random.default_rng(seed + 1)
        layer = GCNLayer.create(snap.dim, 3 if shrink else 7, seed=seed)
        mask = rng.random(snap.num_vertices) < 0.5
        mask[0] = True  # always include the big hub
        rows = np.flatnonzero(mask)
        engine = ConcurrentEngine(make_model("T-GCN", snap.dim, 4))
        x = snap.features
        with WORKSPACE.lease() as ws:
            got = engine._layer_rows(
                ExecutionMetrics(), layer, snap, x, rows,
                np.arange(snap.num_vertices), layer.combine(x), ws,
            )
        if shrink:
            want = layer.act(snap.aggregate(layer.combine(x))[rows])
        else:
            want = layer.act(layer.combine(snap.aggregate(x)[rows]))
        assert_same_bytes(got, want)


class TestEngineOnHubHeavyGraph:
    @pytest.mark.parametrize("name", ["T-GCN", "CD-GCN", "GC-LSTM"])
    def test_concurrent_equals_reference(self, name):
        """Changed-set propagation stays an identity when most masked
        rows' neighbour lists run through the sequential hub path."""
        rng = np.random.default_rng(7)
        base = hub_snapshot(7)
        snaps = [base]
        for t in range(1, 6):
            prev = snaps[-1]
            feats = prev.features.copy()
            churned = rng.choice(np.flatnonzero(prev.present), size=5)
            feats[churned] += rng.standard_normal((5, prev.dim)).astype(
                np.float32
            )
            edges = prev.edge_array()
            edges = edges[rng.random(len(edges)) > 0.05]  # drop a few
            snaps.append(
                CSRSnapshot.from_edges(
                    prev.num_vertices, edges, feats,
                    present=prev.present.copy(), timestamp=t,
                    undirected=False,
                )
            )
        graph = DynamicGraph(snaps, name="hubs")
        ref = ReferenceEngine(
            make_model(name, graph.dim, 8, seed=3), window_size=3
        ).run(graph)
        conc = ConcurrentEngine(
            make_model(name, graph.dim, 8, seed=3),
            window_size=3,
            enable_skipping=False,
        ).run(graph)
        for a, b in zip(ref.outputs, conc.outputs):
            assert_same_bytes(a, b)
