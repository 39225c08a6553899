"""Numerically-safe activation functions shared by all model code.

Kept tiny and dependency-free so the hardware Activation Unit model can
reference the exact same functions the software engines execute (bit-for-
bit agreement between `repro.engine` and `repro.accel` outputs is a test
invariant).
"""

from __future__ import annotations

import numpy as np

from ..check.shapes import contract

__all__ = ["sigmoid", "tanh", "relu", "softmax", "ACTIVATIONS"]


@contract("(...) f -> (...) f")
def sigmoid(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Logistic sigmoid, computed stably for large |x|.

    Branch-free and in the input's own dtype: with ``e = exp(-|x|)`` the
    result is ``1 / (1 + e)`` where ``x >= 0`` and ``e / (1 + e)``
    elsewhere, selected by multiplying with the 0/1 mask rather than by
    gathering each side (``tests/models/test_activations.py`` keeps the
    gather/scatter formula as the bit-for-bit oracle).  ``-|x|`` is
    spelled ``minimum(x, -x)`` because that keeps a NaN's sign bit.

    Every activation takes ``out`` (``x`` itself included): the result
    is written there, with the same arithmetic.
    """
    e = np.exp(np.minimum(x, -x))
    pos = x >= 0
    return np.divide(e * ~pos + pos, 1 + e, out=out)


@contract("(...) f -> (...) f")
def tanh(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Hyperbolic tangent (NumPy's is already stable)."""
    return np.tanh(x, out=out)


@contract("(...) f -> (...) f")
def relu(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Rectified linear unit."""
    return np.maximum(x, 0.0, out=out)


@contract("(...) f, int -> (...) f")
def softmax(
    x: np.ndarray, axis: int = -1, out: np.ndarray | None = None
) -> np.ndarray:
    """Row-stable softmax."""
    z = x - x.max(axis=axis, keepdims=True)
    e = np.exp(z)
    return np.divide(e, e.sum(axis=axis, keepdims=True), out=out)


ACTIVATIONS = {"sigmoid": sigmoid, "tanh": tanh, "relu": relu, "softmax": softmax}
