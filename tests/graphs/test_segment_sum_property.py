"""Property tests: the segment-sum kernel == the ``np.add.at`` scatter.

:func:`repro.graphs.snapshot.segment_sum` replaced a 2-D ``np.add.at``
scatter under a bit-for-bit contract: row ``r`` is
``((0 + x[n0]) + x[n1]) + ...`` in ascending CSR position.  The scatter
survives here as the oracle, and every comparison is on ``tobytes()`` —
``array_equal`` would call ``-0.0`` and ``0.0`` equal, and a sum that
starts from zero must never produce the former.
"""

import copy

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import ConcurrentEngine, ReferenceEngine
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
        # degree in the hundreds
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
    @pytest.mark.parametrize("width", [None, 1, 2, 32])
    def test_kernel_adds_each_row_in_csr_order(self, width, dtype):
        """The order the compiled kernel is trusted to keep, pinned here
        because SciPy does not document it: a row of degree ``deg`` is
        ``np.add.accumulate`` over its gathered neighbours (strictly
        left to right, by definition) plus a typed ``+ 0`` — at every
        width, 1-D ``x`` included, so no pairwise or lane-reordered sum
        slips in.  A SciPy that changes this fails *this* test, by name."""
        rng = np.random.default_rng(0 if width is None else width)
        zero = dtype(0)
        degrees = list(range(2, 140)) + [255, 256, 257, 511, 512, 999, 1000]
        for deg in degrees:
            shape = deg + 5 if width is None else (deg + 5, width)
            x = rng.standard_normal(shape).astype(dtype)
            # row 0 is the star's centre, every other row is empty
            indptr = np.full(len(x) + 1, deg, dtype=np.int64)
            indptr[0] = 0
            nbrs = rng.integers(0, len(x), size=deg).astype(np.int32)
            got = segment_sum(indptr, nbrs, x)
            want = np.add.accumulate(x.take(nbrs, axis=0), axis=0)[-1] + zero
            assert_same_bytes(got[0], want)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("width", [None, 1])
    def test_hubs_of_one_lane_do_not_rely_on_reduce_order(self, width, dtype):
        """1-D ``x`` and width 1, where a NumPy ``reduce`` would sum
        pairwise: a star's centre must still be summed in CSR order."""
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
        """A short row (a leaf, degree 1) and a long one (the star's
        centre) must both return +0.0 for a row of -0.0 neighbours."""
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

    @pytest.mark.parametrize(
        "indptr, indices",
        [
            ([0, 2, 3, 3], [1, 3, 0]),  # an index past the last vertex
            ([0, 2, 3, 3], [1, -1, 0]),  # a negative index
            ([0, 2, 1, 3], [1, 2, 0]),  # a decreasing row pointer
            ([0, 2, 3, 4], [1, 2, 0]),  # a pointer past the edge array
            ([1, 2, 3, 3], [1, 2, 0]),  # a pointer not starting at 0
        ],
    )
    def test_a_malformed_csr_is_refused_before_the_kernel(self, indptr, indices):
        """The compiled loop reads wherever the CSR points, unchecked."""
        indptr, indices = np.array(indptr), np.array(indices, dtype=np.int32)
        with pytest.raises(IndexError, match="malformed CSR"):
            segment_sum(indptr, indices, np.ones((3, 2), np.float32))

    def test_x_must_cover_every_vertex(self):
        indptr, indices = make_csr("star", 12, np.random.default_rng(0))
        with pytest.raises(ValueError, match="x has 11 rows for 12 vertices"):
            segment_sum(indptr, indices, np.ones((11, 2), np.float32))


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

    def test_a_torn_snapshot_is_refused_not_read(self):
        """A snapshot whose arrays were swapped past ``__post_init__``
        (a torn write: indices cut in half) raises before the kernel."""
        torn = copy.copy(hub_snapshot(3))
        torn.indices = torn.indices[: torn.num_edges // 2].copy()
        with pytest.raises(IndexError, match="malformed CSR"):
            torn.aggregate(torn.features)

    @given(seed=st.integers(0, 10_000), shrink=st.booleans())
    @settings(max_examples=40, deadline=None)
    def test_layer_rows_equal_rows_of_full_aggregate(self, seed, shrink):
        """A GCN layer restricted to ``rows`` == the same rows of the
        full layer: the call an owned-row window makes per layer."""
        snap = hub_snapshot(seed)
        rng = np.random.default_rng(seed + 1)
        layer = GCNLayer.create(snap.dim, 3 if shrink else 7, seed=seed)
        assert (layer.out_dim < layer.in_dim) == shrink
        mask = rng.random(snap.num_vertices) < 0.5
        mask[0] = True  # always include the big hub
        rows = np.flatnonzero(mask)
        x = snap.features
        got = layer.forward(snap, x, rows=rows)
        assert_same_bytes(got, layer.forward(snap, x)[rows])


class TestEngineOnHubHeavyGraph:
    @pytest.mark.parametrize("name", ["T-GCN", "CD-GCN", "GC-LSTM"])
    def test_concurrent_equals_reference(self, name):
        """Changed-set propagation stays an identity when most masked
        rows' neighbour lists are long hub rows."""
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
