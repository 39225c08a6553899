"""The three DGNN models the paper evaluates (Section 5.1).

* **CD-GCN** (Manessi et al.) — a deep GCN stack whose per-snapshot
  outputs feed a vertex-wise LSTM; configured with four layers
  (3 GCN + LSTM), as in the paper.
* **GC-LSTM** (Chen et al.) — an LSTM whose recurrent path is a graph
  convolution of the hidden state, so the cell itself is topology-aware;
  configured with three layers (2 GCN + GC-LSTM cell).
* **T-GCN** (Zhao et al.) — a GCN feeding a GRU; configured with two
  layers (1 GCN + GRU).

All weights are seeded and frozen (see DESIGN.md): accuracy experiments
measure approximation degradation against exact inference of the same
frozen model, with a trained ridge readout on top.
"""

from __future__ import annotations

import numpy as np

from ..graphs.snapshot import CSRSnapshot
from .base import DGNNModel
from .layers import GCNStack, _matmul_rows, glorot
from .rnn import ElmanCell, GRUCell, IdentityCell, LSTMCell, LSTMState

__all__ = [
    "CDGCN",
    "GCRN",
    "GCLSTM",
    "TGCN",
    "EvolveGCN",
    "GraphLSTMCell",
    "MODEL_ZOO",
    "make_model",
]


class CDGCN(DGNNModel):
    """CD-GCN: 3 GCN layers + LSTM (four layers total)."""

    name = "CD-GCN"

    def __init__(self, in_dim: int, hidden_dim: int = 32, *, seed: int = 0):
        gnn = GCNStack([in_dim, hidden_dim, hidden_dim, hidden_dim], seed=seed)
        cell = LSTMCell(hidden_dim, hidden_dim, seed=seed + 100)
        super().__init__(gnn, cell)


class GraphLSTMCell(LSTMCell):
    """LSTM whose recurrent term convolves the hidden state over the
    current snapshot's adjacency (the "GC" in GC-LSTM)."""

    def step_on_graph(
        self, x: np.ndarray, state: LSTMState, snap: CSRSnapshot
    ) -> tuple[np.ndarray, LSTMState]:
        h_conv = snap.aggregate(state.h)
        return self.step_pre(
            _matmul_rows(x, self.w_x), _matmul_rows(h_conv, self.w_h), state
        )


class GCLSTM(DGNNModel):
    """GC-LSTM: 2 GCN layers + graph-convolutional LSTM (three layers)."""

    name = "GC-LSTM"
    cell_reads_neighbours = True  # recurrent_drive convolves state.h

    def __init__(self, in_dim: int, hidden_dim: int = 32, *, seed: int = 0):
        gnn = GCNStack([in_dim, hidden_dim, hidden_dim], seed=seed)
        cell = GraphLSTMCell(hidden_dim, hidden_dim, seed=seed + 100)
        super().__init__(gnn, cell)

    def cell_step(self, z, state, snap: CSRSnapshot | None = None):
        if snap is None:
            # graph-free fallback (used by approximation baselines that
            # cannot express the recurrent convolution)
            return self.cell.step(z, state)
        return self.cell.step_on_graph(z, state, snap)  # type: ignore[attr-defined]

    def cell_step_rows(
        self, z, state, rows, snap: CSRSnapshot | None = None, drive=None, pre=None
    ):
        """Row-restricted GC-LSTM update: the recurrent convolution reads
        the full hidden state, but only for ``rows``' neighbourhoods."""
        if snap is None:
            return super().cell_step_rows(z, state, rows)
        cell = self.cell
        if pre is None:
            if drive is None:
                drive = self.recurrent_drive(state, snap, rows)
            pre = _matmul_rows(z[rows], cell.w_x), _matmul_rows(drive, cell.w_h)
        return cell.step_pre(*pre, state.take(rows))

    def recurrent_drive(self, state, snap: CSRSnapshot | None = None, rows=None):
        if snap is None:
            return super().recurrent_drive(state, None, rows)
        return snap.aggregate(state.h, rows=rows)


class TGCN(DGNNModel):
    """T-GCN: 1 GCN layer + GRU (two layers)."""

    name = "T-GCN"

    def __init__(self, in_dim: int, hidden_dim: int = 32, *, seed: int = 0):
        gnn = GCNStack([in_dim, hidden_dim], seed=seed)
        cell = GRUCell(hidden_dim, hidden_dim, seed=seed + 100)
        super().__init__(gnn, cell)


class GCRN(DGNNModel):
    """GCN + vanilla (Elman) RNN — the simplest gated-free DGNN shape,
    included to demonstrate the paper's claim that the approach adapts to
    "a broad range of DGNN models": the engines, skipping machinery, and
    simulator all accept it unchanged."""

    name = "GCRN"

    def __init__(self, in_dim: int, hidden_dim: int = 32, *, seed: int = 0):
        gnn = GCNStack([in_dim, hidden_dim], seed=seed)
        cell = ElmanCell(hidden_dim, hidden_dim, seed=seed + 100)
        super().__init__(gnn, cell)


class EvolveGCN(DGNNModel):
    """An RNN-free DGNN: temporal semantics live in *evolving weights*.

    EvolveGCN-style models update the GCN weights over time instead of
    keeping per-vertex recurrent state.  Here the weights evolve once per
    processing batch (window) through a seeded contraction
    ``W <- (1 - rho) W + rho tanh(W R)`` — evolution at window
    granularity keeps the within-window weights static, so the
    topology-aware concurrent GNN (OADL) stays an exact identity, while
    the cell-update phase disappears entirely (IdentityCell).

    Engines call :meth:`advance_window` at each batch boundary;
    ``advance_window(k)`` is idempotent (it always derives the weights
    for window ``k`` from the initial weights).
    """

    name = "EvolveGCN"

    def __init__(
        self,
        in_dim: int,
        hidden_dim: int = 32,
        *,
        seed: int = 0,
        rho: float = 0.3,
    ):
        gnn = GCNStack([in_dim, hidden_dim, hidden_dim], seed=seed)
        super().__init__(gnn, IdentityCell(hidden_dim))
        self.rho = rho
        rng = np.random.default_rng(seed + 500)
        self._initial = [l.weight.copy() for l in gnn.layers]
        self._recur = [
            glorot(rng, l.out_dim, l.out_dim) for l in gnn.layers
        ]
        self._window = 0

    def advance_window(self, window_index: int) -> None:
        """Set the GCN weights to their state at batch ``window_index``."""
        if window_index < 0:
            raise ValueError("window_index must be >= 0")
        for layer, w0, r in zip(self.gnn.layers, self._initial, self._recur):
            w = w0.copy()
            for _ in range(window_index):
                w = (1.0 - self.rho) * w + self.rho * np.tanh(w @ r)
            layer.weight = w.astype(np.float32)
        self._window = window_index


MODEL_ZOO = {
    "CD-GCN": CDGCN,
    "GC-LSTM": GCLSTM,
    "T-GCN": TGCN,
    "EvolveGCN": EvolveGCN,
    "GCRN": GCRN,
}


def make_model(
    name: str, in_dim: int, hidden_dim: int = 32, *, seed: int = 0
) -> DGNNModel:
    """Instantiate a paper model by name with seeded frozen weights."""
    try:
        cls = MODEL_ZOO[name]
    except KeyError:
        raise KeyError(
            f"unknown model {name!r}; choose from {sorted(MODEL_ZOO)}"
        ) from None
    return cls(in_dim, hidden_dim, seed=seed)
