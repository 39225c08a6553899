"""Tests for GCN layers and recurrent cells."""

import numpy as np
import pytest

from repro.graphs import CSRSnapshot
from repro.models import GCNLayer, GCNStack, GRUCell, LSTMCell


@pytest.fixture
def snap():
    edges = np.array([[0, 1], [1, 2], [2, 3], [3, 0], [0, 2]])
    feats = np.random.default_rng(0).standard_normal((4, 6)).astype(np.float32)
    return CSRSnapshot.from_edges(4, edges, feats)


class TestGCNLayer:
    def test_seeded_determinism(self):
        a = GCNLayer.create(6, 4, seed=3)
        b = GCNLayer.create(6, 4, seed=3)
        np.testing.assert_array_equal(a.weight, b.weight)
        c = GCNLayer.create(6, 4, seed=4)
        assert not np.array_equal(a.weight, c.weight)

    def test_forward_shape_and_dtype(self, snap):
        layer = GCNLayer.create(6, 4, seed=0)
        out = layer.forward(snap, snap.features)
        assert out.shape == (4, 4)
        assert out.dtype == np.float32

    def test_relu_nonnegative(self, snap):
        layer = GCNLayer.create(6, 4, activation="relu", seed=0)
        assert np.all(layer.forward(snap, snap.features) >= 0)

    def test_wrong_width_raises(self, snap):
        layer = GCNLayer.create(5, 4, seed=0)
        with pytest.raises(ValueError, match="in_dim"):
            layer.forward(snap, snap.features)

    def test_combine_before_aggregate_when_shrinking(self, snap):
        """When out_dim < in_dim the two operation orders are numerically
        identical (linear ops commute), so the FLOP-saving order must give
        the same result as the naive order."""
        layer = GCNLayer.create(6, 2, activation="tanh", seed=0)
        out = layer.forward(snap, snap.features)
        naive = np.tanh(layer.combine(snap.aggregate(snap.features)))
        np.testing.assert_allclose(out, naive, rtol=1e-4, atol=1e-5)

    def test_flops_positive_and_monotone(self):
        small = GCNLayer.create(6, 4).flops(100, 500)
        big = GCNLayer.create(6, 4).flops(200, 1000)
        assert 0 < small < big


class TestGCNStack:
    def test_requires_two_dims(self):
        with pytest.raises(ValueError):
            GCNStack([8])

    def test_depth_and_io(self, snap):
        stack = GCNStack([6, 8, 4], seed=0)
        assert len(stack.layers) == 2
        assert stack.in_dim == 6 and stack.out_dim == 4
        assert stack.forward(snap, snap.features).shape == (4, 4)

    def test_flops_sum(self):
        stack = GCNStack([6, 8, 4], seed=0)
        assert stack.flops(10, 20) == sum(
            l.flops(10, 20) for l in stack.layers
        )


class TestLSTMCell:
    def test_shapes(self):
        cell = LSTMCell(5, 3, seed=0)
        state = cell.init_state(7)
        x = np.random.default_rng(0).standard_normal((7, 5)).astype(np.float32)
        h, new_state = cell.step(x, state)
        assert h.shape == (7, 3)
        assert new_state.h.shape == (7, 3)
        assert new_state.c.shape == (7, 3)

    def test_step_does_not_mutate_state(self):
        cell = LSTMCell(5, 3, seed=0)
        state = cell.init_state(4)
        before = state.h.copy()
        x = np.ones((4, 5), dtype=np.float32)
        cell.step(x, state)
        np.testing.assert_array_equal(state.h, before)

    def test_output_bounded(self):
        """h = o * tanh(c) with o in (0,1): |h| < 1 after one step from
        zero state is guaranteed since |c| < 1 too."""
        cell = LSTMCell(5, 3, seed=0)
        x = 100 * np.ones((2, 5), dtype=np.float32)
        h, _ = cell.step(x, cell.init_state(2))
        assert np.all(np.abs(h) < 1.0)

    def test_forget_bias_initialised(self):
        """Default init is contractive (negative forget bias, damped
        recurrent weights) per the paper's Insight-Two stability."""
        cell = LSTMCell(5, 3, seed=0)
        np.testing.assert_array_equal(cell.bias[3:6], -1.0)
        np.testing.assert_array_equal(cell.bias[:3], 0.0)
        conventional = LSTMCell(5, 3, seed=0, recurrent_scale=1.0, state_bias=1.0)
        np.testing.assert_array_equal(conventional.bias[3:6], 1.0)
        np.testing.assert_allclose(conventional.w_h, cell.w_h * 2.0, rtol=1e-6)

    def test_contractive_state_converges_fast(self):
        """Under constant input the state must approach its fixed point
        within a few steps — the stability property cell skipping needs."""
        cell = LSTMCell(4, 4, seed=0)
        x = np.random.default_rng(0).standard_normal((3, 4)).astype(np.float32)
        state = cell.init_state(3)
        hs = []
        for _ in range(8):
            h, state = cell.step(x, state)
            hs.append(h)
        late_move = np.abs(hs[-1] - hs[-2]).max()
        early_move = np.abs(hs[1] - hs[0]).max()
        assert late_move < 0.05 * max(early_move, 1e-6) or late_move < 1e-3

    def test_state_take_put(self):
        cell = LSTMCell(2, 2, seed=0)
        a = cell.init_state(3)
        b = cell.init_state(3)
        b.h += 5.0
        b.c += 7.0
        part = b.take(np.array([1]))
        assert part.h.shape == part.c.shape == (1, 2)
        a.put(np.array([1]), part)
        assert a.h[1, 0] == 5.0 and a.c[1, 0] == 7.0
        assert a.h[0, 0] == 0.0

    def test_temporal_dependence(self):
        """Same input, different histories -> different outputs (the
        inter-snapshot dependency the paper's Section 2.2 describes)."""
        cell = LSTMCell(3, 3, seed=0)
        x = np.ones((1, 3), dtype=np.float32)
        h1, s1 = cell.step(x, cell.init_state(1))
        h2, _ = cell.step(x, s1)
        assert not np.allclose(h1, h2)

    def test_flops_per_vertex(self):
        cell = LSTMCell(5, 3)
        assert cell.flops_per_vertex() == 2 * (5 + 3) * 4 * 3


class TestGRUCell:
    def test_shapes(self):
        cell = GRUCell(5, 3, seed=0)
        x = np.zeros((4, 5), dtype=np.float32)
        h, state = cell.step(x, cell.init_state(4))
        assert h.shape == (4, 3)
        assert state.h.shape == (4, 3)

    def test_zero_input_zero_state_stays_bounded(self):
        cell = GRUCell(5, 3, seed=0)
        state = cell.init_state(2)
        x = np.zeros((2, 5), dtype=np.float32)
        for _ in range(10):
            h, state = cell.step(x, state)
        assert np.all(np.abs(h) <= 1.0)

    def test_interpolation_property(self):
        """GRU output is a convex combination of candidate and previous
        hidden state, so it stays within [-1, 1] when h_prev does."""
        cell = GRUCell(4, 4, seed=1)
        rng = np.random.default_rng(0)
        state = cell.init_state(6)
        for _ in range(5):
            x = rng.standard_normal((6, 4)).astype(np.float32) * 10
            h, state = cell.step(x, state)
            assert np.all(np.abs(h) <= 1.0 + 1e-6)

    def test_flops_per_vertex(self):
        cell = GRUCell(5, 3)
        assert cell.flops_per_vertex() == 2 * (5 + 3) * 3 * 3

    def test_determinism(self):
        a = GRUCell(4, 4, seed=9)
        b = GRUCell(4, 4, seed=9)
        np.testing.assert_array_equal(a.w_x, b.w_x)
