"""The DGNN model interface shared by engines, accelerator, and benches.

A DGNN model (paper Fig. 1) is a GNN module producing per-snapshot output
features :math:`Z^t`, followed by an RNN module whose cell update produces
the final features :math:`H^t` from :math:`Z^t` and the previous state.
The engines drive the two halves separately because everything TaGNN does
— multi-snapshot GNN batching, similarity-gated cell skipping — happens at
exactly that seam.
"""

from __future__ import annotations

import abc

import numpy as np

from ..graphs.snapshot import CSRSnapshot
from .layers import GCNStack, _matmul_rows
from .rnn import IdentityCell, RecurrentCell

__all__ = ["DGNNModel"]


class DGNNModel(abc.ABC):
    """Abstract DGNN: a :class:`GCNStack` plus a :class:`RecurrentCell`.

    Concrete models (CD-GCN, GC-LSTM, T-GCN) differ in layer counts and in
    whether the recurrent cell itself consults the graph (GC-LSTM).
    """

    #: model name as used in the paper's figures
    name: str = "abstract"
    #: a row's cell update reads *other* rows' recurrent state (a
    #: graph-convolutional cell).  An owned-row window
    #: (:class:`~repro.engine.carry.Carry` ``rows``) stops updating the
    #: rows it does not own, so such a model would read stale state: the
    #: engine runs it on every row instead.
    cell_reads_neighbours: bool = False

    def __init__(self, gnn: GCNStack, cell: RecurrentCell):
        self.gnn = gnn
        self.cell = cell
        if gnn.out_dim != cell.input_dim:
            raise ValueError(
                f"GNN out_dim {gnn.out_dim} != cell input_dim {cell.input_dim}"
            )

    # ------------------------------------------------------------------
    @property
    def in_dim(self) -> int:
        """Expected input feature width."""
        return self.gnn.in_dim

    @property
    def out_dim(self) -> int:
        """Final feature width (the RNN hidden size)."""
        return self.cell.hidden_dim

    @property
    def num_layers(self) -> int:
        """Layer count as the paper counts it: GCN layers + 1 RNN module."""
        return len(self.gnn.layers) + 1

    # ------------------------------------------------------------------
    def gnn_forward(self, snap: CSRSnapshot, x: np.ndarray | None = None) -> np.ndarray:
        """GNN module on one snapshot: returns :math:`Z^t` (n, gnn.out_dim)."""
        if x is None:
            x = snap.features
        return self.gnn.forward(snap, x)

    def gnn_forward_window(
        self,
        snaps: list[CSRSnapshot],
        xs: list[np.ndarray] | None = None,
        *,
        ws=None,
    ) -> list[np.ndarray]:
        """GNN module over a window of snapshots at once.

        Returns ``[Z^t for each snapshot]``, bit-identical to calling
        :meth:`gnn_forward` per snapshot (see
        :meth:`GCNStack.forward_window` for what is and is not batched,
        and for the scratch workspace ``ws``).
        """
        if xs is None:
            xs = [s.features for s in snaps]
        return self.gnn.forward_window(snaps, xs, ws=ws)

    def cell_step(self, z: np.ndarray, state, snap: CSRSnapshot):
        """RNN module cell update of every row: returns
        ``(H^t, new_state)``.

        The recurrent product multiplies :meth:`recurrent_drive`: the
        hidden state for plain cells, its convolution over ``snap`` for
        a graph-aware cell (GC-LSTM).
        """
        cell = self.cell
        if isinstance(cell, IdentityCell):
            return cell.step(z, state)
        drive = self.recurrent_drive(state, snap)
        return cell.step_pre(
            _matmul_rows(z, cell.w_x), _matmul_rows(drive, cell.w_h), state
        )

    def init_state(self, num_vertices: int):
        return self.cell.init_state(num_vertices)

    def cell_step_rows(
        self,
        z: np.ndarray,
        state,
        rows: np.ndarray,
        snap: CSRSnapshot,
        drive: np.ndarray | None = None,
        pre: tuple[np.ndarray, np.ndarray] | None = None,
    ):
        """Cell update restricted to ``rows``.

        Returns ``(h_rows, state_rows)`` covering only ``rows`` — the
        engines splice them into the global state.  ``z``/``state`` are
        full-size.  ``drive`` is the caller's already-computed
        ``recurrent_drive(state, snap, rows)`` (None = computed here),
        so a graph-aware cell does not convolve a second time.
        ``pre`` is the caller's already-multiplied
        ``(z[rows] @ w_x, drive @ w_h)``, which the engine's FULL update
        writes into workspace blocks; the cell uses the first block as
        scratch (:meth:`RecurrentCell.step_pre`).  This is the update of
        FULL and DELTA rows alike: DELTA is a decision, a counter and a
        price (:mod:`repro.skipping.delta`), and the host runs FULL.
        """
        cell = self.cell
        sub = state.take(rows)
        if isinstance(cell, IdentityCell):
            return cell.step(z[rows], sub)
        if pre is None:
            if drive is None:
                drive = self.recurrent_drive(state, snap, rows)
            pre = _matmul_rows(z[rows], cell.w_x), _matmul_rows(drive, cell.w_h)
        return cell.step_pre(*pre, sub)

    def recurrent_drive(
        self,
        state,
        snap: CSRSnapshot,
        rows: np.ndarray | None = None,
    ) -> np.ndarray:
        """The tensor actually multiplied by ``w_h`` in the cell — plain
        ``state.h`` for standard cells; graph-aware cells override.
        With ``rows`` (vertex ids) only those rows of it."""
        return state.h if rows is None else state.h[rows]

    # ------------------------------------------------------------------
    def gnn_flops(self, num_vertices: int, num_edges: int) -> int:
        """MACs of the GNN module on one snapshot."""
        return self.gnn.flops(num_vertices, num_edges)

    def cell_flops(self, num_vertices: int) -> int:
        """MACs of the RNN module cell update on one snapshot."""
        return num_vertices * self.cell.flops_per_vertex()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"{type(self).__name__}(in={self.in_dim}, out={self.out_dim}, "
            f"layers={self.num_layers})"
        )
