"""Recurrent cells — the RNN module capturing temporal semantics.

The paper's models use LSTM (CD-GCN, GC-LSTM) and GRU (T-GCN) cells
applied *per vertex* across snapshots.  Cells here are vectorised over the
vertex axis: one ``step`` processes an ``(n, d)`` batch of vertex features
against an ``(n, h)`` recurrent state.  The cell-update operation is the
"update" cost in the paper's Fig. 2(a) breakdown and the target of the
similarity-aware skipping strategy.

States are plain dataclasses that own their rows (``take`` / ``put``),
so skipping policies can splice per-vertex rows (reuse row ``v`` of the
previous state when vertex ``v`` is skipped).

Each cell's gate arithmetic lives in its :meth:`RecurrentCell.step_pre`
and nowhere else: the FULL update, the delta cache's partial update and
the Table 5 approximators all evaluate the gates there, the
approximators by swapping the primitives of :class:`CellOps`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .activations import sigmoid, tanh
from .layers import _matmul_rows, glorot

__all__ = [
    "CellOps",
    "EXACT_OPS",
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

    def take(self, rows: np.ndarray) -> "LSTMState":
        """The state of ``rows`` alone (fresh arrays)."""
        return LSTMState(self.h[rows], self.c[rows])

    def put(self, rows: np.ndarray, part: "LSTMState") -> None:
        """Overwrite ``rows`` with ``part``, the state of those rows."""
        self.h[rows] = part.h
        self.c[rows] = part.c


@dataclass
class GRUState:
    """Per-vertex GRU state: hidden ``h`` (n, d)."""

    h: np.ndarray

    def copy(self) -> "GRUState":
        return GRUState(self.h.copy())

    def take(self, rows: np.ndarray) -> "GRUState":
        return GRUState(self.h[rows])

    def put(self, rows: np.ndarray, part: "GRUState") -> None:
        self.h[rows] = part.h


@dataclass(frozen=True)
class CellOps:
    """The primitives a cell's gates are built from.

    ``sig`` and ``th`` are the two activations, ``mul`` every elementwise
    product and ``pre`` (None = none) a map applied to each pre-activation
    block once its bias is added.  The defaults, :data:`EXACT_OPS`, are
    the exact cell; the Table 5 approximators (:mod:`repro.skipping.approx`)
    swap some of them.

    All four must act element by element: each output element depends
    on its own input elements alone, whatever the block's shape.  The
    cells rely on it: ``sig`` runs on two gates' columns in one call
    (LSTM's ``i | f``, GRU's ``r | z``), so a primitive that read its
    neighbours (a row norm, a block-wide scale) would change the gates.
    ``mul`` returns a fresh array: the cells add into its result in
    place.
    """

    sig: Callable = sigmoid
    th: Callable = tanh
    mul: Callable = np.multiply
    pre: Callable | None = None


#: The exact cell's primitives.
EXACT_OPS = CellOps()


class RecurrentCell:
    """Common interface of the recurrent cells.

    A cell is its weights ``w_x`` (input → pre-activations), ``w_h``
    (hidden state → pre-activations) and ``bias``, an :meth:`init_state`
    and a :meth:`step_pre`; everything else derives from those.
    """

    @property
    def input_dim(self) -> int:
        return self.w_x.shape[0]

    @property
    def hidden_dim(self) -> int:
        return self.w_h.shape[0]

    def init_state(self, num_vertices: int):
        """Zero state of ``num_vertices`` rows: the hidden rows alone
        (a cell with more state overrides this)."""
        return GRUState(np.zeros((num_vertices, self.hidden_dim), dtype=np.float32))

    def step(self, x: np.ndarray, state):
        """One cell update for a batch of vertices; returns
        ``(output, new_state)`` without mutating ``state``."""
        return self.step_pre(
            _matmul_rows(x, self.w_x), _matmul_rows(state.h, self.w_h), state
        )

    def step_pre(
        self, zx: np.ndarray, zh: np.ndarray, state, ops: CellOps = EXACT_OPS
    ):  # pragma: no cover - interface
        """:meth:`step` from its two pre-activation blocks ``x @ w_x``
        and ``h @ w_h`` (bias not yet added) — the only gate arithmetic
        of the cell.  Every caller multiplies and hands the products
        here: :meth:`step`, the engine's FULL update (which DELTA rows
        take too) and the Table 5 approximators, which pass their own
        primitives as ``ops`` (:class:`CellOps`; the exact ones by
        default).

        ``zx`` is scratch: the sums are formed in it; ``zh`` is only
        read.  From :meth:`step` it is the product's own temporary; in
        the engine it is a view of the process's scratch workspace
        (:mod:`repro.engine.workspace`), so the sums cost no block, and
        the returned ``h`` and state never share memory with either
        block."""
        raise NotImplementedError

    def flops_per_vertex(self) -> int:
        """Operations of one row's update: its two products' MACs, x2."""
        return 2 * (self.w_x.size + self.w_h.size)


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
        self, zx: np.ndarray, zh: np.ndarray, state: LSTMState, ops=EXACT_OPS
    ) -> tuple[np.ndarray, LSTMState]:
        d = self.hidden_dim
        z = zx
        z += zh
        z += self.bias
        if ops.pre is not None:
            z = ops.pre(z)
        i_f = ops.sig(z[:, : 2 * d])
        i, f = i_f[:, :d], i_f[:, d:]
        g = ops.th(z[:, 2 * d : 3 * d])
        o = ops.sig(z[:, 3 * d :])
        c = ops.mul(f, state.c)
        c += ops.mul(i, g)
        h = ops.mul(o, ops.th(c))
        return h, LSTMState(h, c)


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
        self.w_x = glorot(rng, input_dim, hidden_dim)
        self.w_h = glorot(rng, hidden_dim, hidden_dim) * np.float32(
            recurrent_scale
        )
        self.bias = np.zeros(hidden_dim, dtype=np.float32)

    def step_pre(
        self, zx: np.ndarray, zh: np.ndarray, state: GRUState, ops=EXACT_OPS
    ) -> tuple[np.ndarray, GRUState]:
        zx += zh
        zx += self.bias
        if ops.pre is not None:
            zx = ops.pre(zx)
        h = ops.th(zx)
        return h, GRUState(h)


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
        # zero-size weight tensors keep the accounting code uniform
        self.w_x = np.zeros((dim, 0), dtype=np.float32)
        self.w_h = np.zeros((dim, 0), dtype=np.float32)
        self.bias = np.zeros(0, dtype=np.float32)

    def step(self, x: np.ndarray, state: GRUState) -> tuple[np.ndarray, GRUState]:
        h = x.astype(np.float32, copy=False)
        return h, GRUState(h.copy())


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
        self.w_x = glorot(rng, input_dim, 3 * hidden_dim)
        self.w_h = glorot(rng, hidden_dim, 3 * hidden_dim) * np.float32(
            recurrent_scale
        )
        self.bias = np.zeros(3 * hidden_dim, dtype=np.float32)
        # update-gate bias: negative -> the state tracks the candidate
        # quickly instead of holding stale history
        self.bias[hidden_dim : 2 * hidden_dim] = state_bias

    def step_pre(
        self, zx: np.ndarray, zh: np.ndarray, state: GRUState, ops=EXACT_OPS
    ) -> tuple[np.ndarray, GRUState]:
        d = self.hidden_dim
        zx += self.bias
        if ops.pre is not None:
            zx, zh = ops.pre(zx), ops.pre(zh)
        r_z = ops.sig(zx[:, : 2 * d] + zh[:, : 2 * d])
        r, z = r_z[:, :d], r_z[:, d:]
        n = ops.th(zx[:, 2 * d :] + ops.mul(r, zh[:, 2 * d :]))
        h = ops.mul(1.0 - z, n)
        h += ops.mul(z, state.h)
        return h, GRUState(h)
