"""Tests for the skipping policy and the delta/condense path."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.models import ElmanCell, GRUCell, LSTMCell
from repro.skipping import (
    CellUpdateMode,
    DeltaCellCache,
    ModeDecision,
    SkippingPolicy,
    SkipThresholds,
    condense,
    generate_delta,
)


class TestThresholds:
    def test_defaults_match_fig14a_optimum(self):
        t = SkipThresholds()
        assert t.theta_s == -0.5 and t.theta_e == 0.5

    def test_invalid_order_rejected(self):
        with pytest.raises(ValueError):
            SkipThresholds(0.5, -0.5)
        with pytest.raises(ValueError):
            SkipThresholds(-2.0, 0.5)

    def test_never_skip_flag(self):
        assert SkipThresholds(1.0, 1.0).never_skip
        assert not SkipThresholds().never_skip


class TestPolicy:
    def test_three_way_split(self):
        p = SkippingPolicy(SkipThresholds(-0.5, 0.5))
        v = np.arange(5)
        theta = np.array([-0.9, -0.5, 0.0, 0.5, 0.9])
        d = p.decide(v, theta)
        assert d.modes.tolist() == [
            CellUpdateMode.FULL,
            CellUpdateMode.DELTA,
            CellUpdateMode.DELTA,
            CellUpdateMode.DELTA,
            CellUpdateMode.SKIP,
        ]

    def test_rows_by_mode(self):
        p = SkippingPolicy()
        d = p.decide(np.array([10, 20, 30]), np.array([-0.9, 0.0, 0.9]))
        assert d.rows(CellUpdateMode.FULL).tolist() == [10]
        assert d.rows(CellUpdateMode.DELTA).tolist() == [20]
        assert d.rows(CellUpdateMode.SKIP).tolist() == [30]

    def test_counts_and_skip_fraction(self):
        p = SkippingPolicy()
        d = p.decide(np.arange(4), np.array([0.9, 0.9, 0.0, -0.9]))
        assert d.counts() == {"full": 1, "delta": 1, "skip": 2}
        assert d.skip_fraction() == 0.5

    def test_empty_decision(self):
        d = SkippingPolicy().decide(np.array([]), np.array([]))
        assert d.skip_fraction() == 0.0

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            SkippingPolicy().decide(np.arange(3), np.zeros(2))

    @given(
        theta=st.lists(
            st.floats(min_value=-1, max_value=1), min_size=1, max_size=50
        ),
        ts=st.floats(min_value=-1, max_value=0.9),
        width=st.floats(min_value=0, max_value=1),
    )
    @settings(max_examples=50, deadline=None)
    def test_partition_property(self, theta, ts, width):
        te = min(1.0, ts + width)
        p = SkippingPolicy(SkipThresholds(ts, te))
        theta = np.array(theta)
        d = p.decide(np.arange(len(theta)), theta)
        # every vertex gets exactly one mode, consistent with thresholds
        assert np.all(
            (d.modes == CellUpdateMode.SKIP) == (theta > te)
        )
        assert np.all(
            (d.modes == CellUpdateMode.FULL) == (theta < ts)
        )


class TestDeltaGeneration:
    def test_thresholding(self):
        z0 = np.zeros((2, 4), dtype=np.float32)
        z1 = np.array(
            [[0.0005, 0.5, -0.0005, -0.5], [0.0, 0.0, 0.0, 2.0]], dtype=np.float32
        )
        d = generate_delta(z1, z0, epsilon=1e-3)
        assert d[0].tolist() == [0.0, 0.5, 0.0, -0.5]
        assert d[1, 3] == 2.0

    def test_condense_roundtrip(self):
        rng = np.random.default_rng(0)
        delta = rng.standard_normal((6, 8)).astype(np.float32)
        delta[np.abs(delta) < 0.8] = 0.0
        delta[3] = 0.0  # an empty row between occupied ones
        packed = condense(delta)
        np.testing.assert_array_equal(packed.expand(), delta)
        assert packed.nnz == int((delta != 0).sum())
        # one flat buffer + address register, cut by the row pointer
        assert packed.rows.tolist() == [0, 1, 2, 4, 5]
        assert packed.indptr[0] == 0 and packed.indptr[-1] == packed.nnz
        assert len(packed.addresses) == len(packed.values) == packed.nnz
        for i, r in enumerate(packed.rows):
            lo, hi = packed.indptr[i], packed.indptr[i + 1]
            cols = np.flatnonzero(delta[r])
            np.testing.assert_array_equal(packed.addresses[lo:hi], cols)
            np.testing.assert_array_equal(packed.values[lo:hi], delta[r, cols])

    def test_condense_density(self):
        delta = np.zeros((4, 5), dtype=np.float32)
        delta[0, 0] = 1.0
        packed = condense(delta)
        assert packed.density() == pytest.approx(1 / 20)
        assert packed.rows.tolist() == [0]

    def test_condense_all_zero(self):
        packed = condense(np.zeros((3, 3), dtype=np.float32))
        assert packed.nnz == 0
        assert len(packed.rows) == 0

    @pytest.mark.parametrize("shape", [(0, 5), (5, 0), (0, 0)])
    def test_condense_degenerate_shapes(self, shape):
        """Zero-row / zero-column deltas (an empty changed set) must not
        divide by zero or trip numpy's empty-concatenate path."""
        packed = condense(np.zeros(shape, dtype=np.float32))
        assert packed.nnz == 0
        assert packed.density() == 0.0
        expanded = packed.expand()
        assert expanded.shape == shape
        assert expanded.size == 0

    def test_expand_with_empty_address_lists(self):
        """A packing whose rows all carry empty address slices expands
        to the all-zero matrix."""
        from repro.skipping.delta import CondensedDelta

        packed = CondensedDelta(
            rows=np.array([1], dtype=np.int64),
            indptr=np.array([0, 0], dtype=np.int64),
            addresses=np.array([], dtype=np.int64),
            values=np.array([], dtype=np.float32),
            dense_shape=(3, 4),
        )
        assert packed.nnz == 0
        assert packed.density() == 0.0
        np.testing.assert_array_equal(
            packed.expand(), np.zeros((3, 4), dtype=np.float32)
        )


@pytest.mark.parametrize("cell_cls", [LSTMCell, GRUCell, ElmanCell])
def test_partial_step_count_is_the_thresholded_delta_nonzeros(cell_cls):
    """A DELTA (partial) step's count, which the baseline's
    :meth:`~DeltaCellCache.advance` returns, is what the Condense Unit
    would pack: the non-zeros of ``generate_delta`` over the asked-for
    rows, as an int.  The rows' baseline moves by that delta and no
    other row's does."""
    cell = cell_cls(5, 4, seed=0)
    cache = DeltaCellCache.zeros(cell, 8)
    rng = np.random.default_rng(2)
    x = rng.standard_normal((8, 5)).astype(np.float32)
    cache.reset(np.arange(8), x)
    x2 = x + (rng.standard_normal((8, 5)) * 2e-3).astype(np.float32)
    rows = np.array([1, 2, 5, 7])
    want = generate_delta(x2[rows], x[rows], epsilon=1e-3)
    assert 0 < np.count_nonzero(want) < want.size  # the threshold bites
    nnz = cache.advance(rows, x2, epsilon=1e-3)
    assert type(nnz) is int
    assert nnz == np.count_nonzero(want) == condense(want).nnz
    moved = x.copy()
    moved[rows] += want
    assert cache.z_input.tobytes() == moved.tobytes()


@pytest.mark.parametrize("cell_cls", [LSTMCell, GRUCell, ElmanCell])
class TestDeltaCellCache:
    def _setup(self, cell_cls, n=6, din=5, dh=4):
        cell = cell_cls(din, dh, seed=0)
        cache = DeltaCellCache.zeros(cell, n)
        rng = np.random.default_rng(1)
        x = rng.standard_normal((n, din)).astype(np.float32)
        return cell, cache, x

    def test_refresh_subset_only(self, cell_cls):
        """A FULL update sets the baseline of its rows alone."""
        _, cache, x = self._setup(cell_cls)
        rows = np.array([0, 2])
        cache.reset(rows, x)
        assert np.all(cache.z_input[1] == 0)
        assert cache.z_input[rows].tobytes() == x[rows].tobytes()

    def test_sequential_deltas_accumulate(self, cell_cls):
        """Two consecutive DELTA updates move the baseline as one update
        with the combined delta does."""
        _, cache, x = self._setup(cell_cls)
        rows = np.arange(6)
        cache.reset(rows, x)
        xa = x.copy(); xa[:, 1] += 0.3
        xb = xa.copy(); xb[:, 2] -= 0.4
        assert cache.advance(rows, xa, epsilon=1e-5) == 6
        assert cache.advance(rows, xb, epsilon=1e-5) == 6

        _, once, _ = self._setup(cell_cls)
        once.reset(rows, x)
        assert once.advance(rows, xb, epsilon=1e-5) == 12
        np.testing.assert_allclose(cache.z_input, once.z_input, atol=1e-6)
        np.testing.assert_allclose(cache.z_input, xb, atol=1e-6)

    def test_unsupported_cell_rejected(self, cell_cls):
        class Fake:
            input_dim = 3
            hidden_dim = 3

        with pytest.raises(TypeError):
            DeltaCellCache.zeros(Fake(), 4)
