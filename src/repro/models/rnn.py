"""Recurrent cells — the RNN module capturing temporal semantics.

The paper's models use LSTM (CD-GCN, GC-LSTM) and GRU (T-GCN) cells
applied *per vertex* across snapshots.  Cells here are vectorised over the
vertex axis: one ``step`` processes an ``(n, d)`` batch of vertex features
against an ``(n, h)`` recurrent state.  The cell-update operation is the
"update" cost in the paper's Fig. 2(a) breakdown and the target of the
similarity-aware skipping strategy.

States are plain dataclasses so skipping policies can splice per-vertex
rows (reuse row ``v`` of the previous state when vertex ``v`` is skipped).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .activations import sigmoid, tanh
from .layers import _matmul_rows, glorot

__all__ = [
    "LSTMState",
    "GRUState",
    "LSTMCell",
    "GRUCell",
    "ElmanCell",
    "IdentityCell",
    "RecurrentCell",
]


@dataclass
class LSTMState:
    """Per-vertex LSTM state: hidden ``h`` and cell ``c``, both (n, d)."""

    h: np.ndarray
    c: np.ndarray

    def copy(self) -> "LSTMState":
        return LSTMState(self.h.copy(), self.c.copy())

    def select_rows(self, rows: np.ndarray, other: "LSTMState") -> None:
        """Overwrite ``rows`` of this state with the same rows of
        ``other`` (used to re-inject skipped vertices' previous state)."""
        self.h[rows] = other.h[rows]
        self.c[rows] = other.c[rows]


@dataclass
class GRUState:
    """Per-vertex GRU state: hidden ``h`` (n, d)."""

    h: np.ndarray

    def copy(self) -> "GRUState":
        return GRUState(self.h.copy())

    def select_rows(self, rows: np.ndarray, other: "GRUState") -> None:
        self.h[rows] = other.h[rows]


class RecurrentCell:
    """Common interface of LSTM/GRU cells."""

    hidden_dim: int
    input_dim: int

    def init_state(self, num_vertices: int):  # pragma: no cover - interface
        raise NotImplementedError

    def step(self, x: np.ndarray, state):
        """One cell update for a batch of vertices; returns
        ``(output, new_state)`` without mutating ``state``."""
        return self.step_pre(
            _matmul_rows(x, self.w_x), _matmul_rows(state.h, self.w_h), state
        )

    def step_pre(
        self, zx: np.ndarray, zh: np.ndarray, state
    ):  # pragma: no cover - interface
        """:meth:`step` from its two pre-activation blocks ``x @ w_x``
        and ``h @ w_h`` (bias not yet added) — the products a FULL update
        shares with the delta cache's refresh.  ``zx`` is scratch: the
        sums are formed in it.  From :meth:`step` it is the product's own
        temporary; in the engine's FULL update it is a view of the
        process's scratch workspace (:mod:`repro.engine.workspace`), so
        the sums cost no block at all."""
        raise NotImplementedError

    def flops_per_vertex(self) -> int:  # pragma: no cover - interface
        raise NotImplementedError


class LSTMCell(RecurrentCell):
    """Standard LSTM: gates ``i, f, g, o`` fused into one projection.

    The default initialisation is *contractive*: the recurrent weights are
    damped (``recurrent_scale``) and the forget-gate bias is negative, so
    the state converges to its input-driven fixed point within a couple of
    steps.  This reproduces the stability the paper measures in trained
    DGNNs (Insight Two, Fig. 3(b)) — the property that makes reusing a
    previous snapshot's final feature nearly lossless.  Pass
    ``recurrent_scale=1.0, state_bias=1.0`` for a conventional
    slow-forgetting initialisation.
    """

    def __init__(
        self,
        input_dim: int,
        hidden_dim: int,
        *,
        seed: int = 0,
        recurrent_scale: float = 0.5,
        state_bias: float = -1.0,
    ):
        rng = np.random.default_rng(seed)
        self.input_dim = input_dim
        self.hidden_dim = hidden_dim
        self.w_x = glorot(rng, input_dim, 4 * hidden_dim)
        self.w_h = glorot(rng, hidden_dim, 4 * hidden_dim) * np.float32(
            recurrent_scale
        )
        self.bias = np.zeros(4 * hidden_dim, dtype=np.float32)
        # forget-gate bias: negative -> fast-converging (stable) dynamics
        self.bias[hidden_dim : 2 * hidden_dim] = state_bias

    def init_state(self, num_vertices: int) -> LSTMState:
        z = np.zeros((num_vertices, self.hidden_dim), dtype=np.float32)
        return LSTMState(z.copy(), z.copy())

    def step_pre(
        self, zx: np.ndarray, zh: np.ndarray, state: LSTMState
    ) -> tuple[np.ndarray, LSTMState]:
        d = self.hidden_dim
        z = zx
        z += zh
        z += self.bias
        i = sigmoid(z[:, :d])
        f = sigmoid(z[:, d : 2 * d])
        g = tanh(z[:, 2 * d : 3 * d])
        o = sigmoid(z[:, 3 * d :])
        c = f * state.c + i * g
        h = o * tanh(c)
        return h, LSTMState(h, c)

    def flops_per_vertex(self) -> int:
        return 2 * (self.input_dim + self.hidden_dim) * 4 * self.hidden_dim


class ElmanCell(RecurrentCell):
    """A vanilla (Elman) RNN cell: ``h' = tanh(x W_x + h W_h + b)``.

    The simplest temporal module some DGNN variants use; like the gated
    cells it defaults to contractive dynamics (damped recurrent weights)
    per the paper's Insight-Two stability.
    """

    def __init__(
        self,
        input_dim: int,
        hidden_dim: int,
        *,
        seed: int = 0,
        recurrent_scale: float = 0.5,
    ):
        rng = np.random.default_rng(seed)
        self.input_dim = input_dim
        self.hidden_dim = hidden_dim
        self.w_x = glorot(rng, input_dim, hidden_dim)
        self.w_h = glorot(rng, hidden_dim, hidden_dim) * np.float32(
            recurrent_scale
        )
        self.bias = np.zeros(hidden_dim, dtype=np.float32)

    def init_state(self, num_vertices: int) -> GRUState:
        return GRUState(np.zeros((num_vertices, self.hidden_dim), dtype=np.float32))

    def step_pre(
        self, zx: np.ndarray, zh: np.ndarray, state: GRUState
    ) -> tuple[np.ndarray, GRUState]:
        zx += zh
        zx += self.bias
        h = np.tanh(zx)
        return h, GRUState(h)

    def flops_per_vertex(self) -> int:
        return 2 * (self.input_dim + self.hidden_dim) * self.hidden_dim


class IdentityCell(RecurrentCell):
    """A stateless pass-through "cell" for RNN-free DGNNs.

    Models like EvolveGCN carry temporal semantics in their *weights*
    rather than per-vertex recurrent state (paper Section 2.1: TaGNN "is
    highly versatile and adaptable to a broad range of DGNN models,
    including those that do not rely on RNNs").  The identity cell lets
    such models flow through the same engine/accelerator interfaces: the
    final feature is the GNN output and the cell-update phase is free.
    """

    def __init__(self, dim: int):
        self.input_dim = dim
        self.hidden_dim = dim
        # zero-size weight tensors keep the accounting code uniform
        self.w_x = np.zeros((dim, 0), dtype=np.float32)
        self.w_h = np.zeros((dim, 0), dtype=np.float32)
        self.bias = np.zeros(0, dtype=np.float32)

    def init_state(self, num_vertices: int) -> GRUState:
        return GRUState(np.zeros((num_vertices, self.hidden_dim), dtype=np.float32))

    def step(self, x: np.ndarray, state: GRUState) -> tuple[np.ndarray, GRUState]:
        h = x.astype(np.float32, copy=False)
        return h, GRUState(h.copy())

    def flops_per_vertex(self) -> int:
        return 0


class GRUCell(RecurrentCell):
    """Standard GRU: gates ``r, z`` plus candidate ``n``.

    Like :class:`LSTMCell`, defaults to contractive dynamics (damped
    recurrent weights, negative update-gate bias) matching the stability
    of trained DGNNs per the paper's Insight Two.
    """

    def __init__(
        self,
        input_dim: int,
        hidden_dim: int,
        *,
        seed: int = 0,
        recurrent_scale: float = 0.5,
        state_bias: float = -1.0,
    ):
        rng = np.random.default_rng(seed)
        self.input_dim = input_dim
        self.hidden_dim = hidden_dim
        self.w_x = glorot(rng, input_dim, 3 * hidden_dim)
        self.w_h = glorot(rng, hidden_dim, 3 * hidden_dim) * np.float32(
            recurrent_scale
        )
        self.bias = np.zeros(3 * hidden_dim, dtype=np.float32)
        # update-gate bias: negative -> the state tracks the candidate
        # quickly instead of holding stale history
        self.bias[hidden_dim : 2 * hidden_dim] = state_bias

    def init_state(self, num_vertices: int) -> GRUState:
        return GRUState(np.zeros((num_vertices, self.hidden_dim), dtype=np.float32))

    def step_pre(
        self, zx: np.ndarray, zh: np.ndarray, state: GRUState
    ) -> tuple[np.ndarray, GRUState]:
        d = self.hidden_dim
        zx += self.bias
        r = sigmoid(zx[:, :d] + zh[:, :d])
        z = sigmoid(zx[:, d : 2 * d] + zh[:, d : 2 * d])
        n = tanh(zx[:, 2 * d :] + r * zh[:, 2 * d :])
        h = (1.0 - z) * n + z * state.h
        return h, GRUState(h)

    def flops_per_vertex(self) -> int:
        return 2 * (self.input_dim + self.hidden_dim) * 3 * self.hidden_dim
