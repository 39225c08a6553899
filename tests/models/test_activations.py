"""Tests for activation functions."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.models import ACTIVATIONS, relu, sigmoid, softmax, tanh

FLOATS = hnp.arrays(
    np.float64,
    st.integers(min_value=1, max_value=50),
    elements=st.floats(min_value=-500, max_value=500),
)


# forced into every property example: signed zeros, infinities, NaNs, the
# f32 denormal floor, the f32 / f64 exp under- and overflow edges
EDGES = [
    0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, 1e-45, -1e-45, 88.7, -88.7,
    103.9, -103.9, 745.0, -745.0,
]


def retained_sigmoid(x: np.ndarray) -> np.ndarray:
    """The gather/scatter formula :func:`sigmoid` replaced, kept as the
    bit-for-bit oracle (it is on the engine–accel agreement contract)."""
    out = np.empty_like(x, dtype=np.float64)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out.astype(x.dtype, copy=False)


class TestSigmoidMatchesRetainedFormula:
    @given(
        seed=st.integers(0, 10_000),
        rows=st.integers(1, 1100),
        width=st.integers(1, 128),
        exponent=st.integers(-30, 30),
        dtype=st.sampled_from([np.float32, np.float64]),
        gates=st.sampled_from([None, 1, 2]),
        out=st.sampled_from([None, "fresh", "input"]),
    )
    @settings(max_examples=200, deadline=None)
    def test_bit_identical(self, seed, rows, width, exponent, dtype, gates, out):
        rng = np.random.default_rng(seed)
        with np.errstate(over="ignore"):  # 1e30-scale f32 inputs may be inf
            x = (rng.standard_normal((rows, width)) * 10.0**exponent).astype(dtype)
        if gates:  # one or two gates' columns of a four-gate block: strided
            start = rng.integers(0, 5 - gates) * width
            x = np.hstack([x] * 4)[:, start : start + gates * width]
        edges = min(len(EDGES), x.size)
        x.flat[rng.permutation(x.size)[:edges]] = rng.permutation(EDGES)[:edges]
        want = retained_sigmoid(x)
        out = {None: None, "fresh": np.empty_like(x), "input": x}[out]
        with np.errstate(over="raise"):
            got = sigmoid(x, out=out)
        if out is not None:
            assert got is out
        assert got.dtype == want.dtype == dtype
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_every_edge_value(self, dtype):
        x = np.array(EDGES, dtype=dtype)
        assert sigmoid(x).tobytes() == retained_sigmoid(x).tobytes()


class TestSigmoid:
    def test_midpoint(self):
        assert sigmoid(np.array([0.0]))[0] == 0.5

    def test_extremes_saturate_without_overflow(self):
        x = np.array([-1000.0, 1000.0])
        with np.errstate(over="raise"):
            out = sigmoid(x)
        np.testing.assert_allclose(out, [0.0, 1.0], atol=1e-12)

    @given(FLOATS)
    @settings(max_examples=50, deadline=None)
    def test_range_and_monotone(self, x):
        out = sigmoid(np.sort(x))
        assert np.all((out >= 0) & (out <= 1))
        assert np.all(np.diff(out) >= -1e-12)

    def test_preserves_float32(self):
        out = sigmoid(np.zeros(3, dtype=np.float32))
        assert out.dtype == np.float32


class TestOthers:
    def test_relu(self):
        np.testing.assert_array_equal(
            relu(np.array([-2.0, 0.0, 3.0])), [0.0, 0.0, 3.0]
        )

    def test_tanh_odd(self):
        x = np.linspace(-3, 3, 11)
        np.testing.assert_allclose(tanh(-x), -tanh(x))

    @given(FLOATS)
    @settings(max_examples=50, deadline=None)
    def test_softmax_rows_sum_to_one(self, x):
        out = softmax(x.reshape(1, -1))
        np.testing.assert_allclose(out.sum(), 1.0, rtol=1e-9)
        assert np.all(out >= 0)

    def test_softmax_shift_invariant(self):
        x = np.array([[1.0, 2.0, 3.0]])
        np.testing.assert_allclose(softmax(x), softmax(x + 100.0))

    def test_registry_complete(self):
        assert set(ACTIVATIONS) == {"sigmoid", "tanh", "relu", "softmax"}
