r"""Delta generation, condensing, and the partial cell update.

DELTA-mode vertices (paper Section 4.2) do not re-run the whole RNN cell.
Instead:

1. the **Delta Generation** module computes
   :math:`\Delta = Z^t - Z^{t-1}` and zeroes near-zero components (the
   similarity gate guarantees most components are near zero);
2. the **Condense Unit** packs the surviving non-zeros into one dense
   buffer plus one address register, cut into rows by a row pointer
   (modelled by :func:`condense` / :class:`CondensedDelta`);
3. the DCU applies only the non-zero columns to the cached input
   pre-activations, the gates are re-evaluated, and the result is merged
   with the previous snapshot's state.

On the host step 3 is the dense ``delta @ w_x`` — the zeros contribute
nothing — so a window never builds the packing: the engine's accounting
needs only the surviving count, which :meth:`DeltaCellCache.partial_step`
returns.  :func:`condense` is for the ablation that studies the packing
itself and for tests.

The partial update is therefore first-order exact in the input path and
freezes the recurrent contribution (whose drift is bounded by the
similarity gate).  :class:`DeltaCellCache` owns the cached
pre-activations of any recurrent cell; the gates are the cell's own
:meth:`~repro.models.rnn.RecurrentCell.step_pre`, so with a zero delta a
DELTA row is the FULL update bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..check.shapes import contract
from ..models.layers import _matmul_rows
from ..models.rnn import RecurrentCell

__all__ = ["generate_delta", "CondensedDelta", "condense", "DeltaCellCache"]


@contract("(n,f) f, (n,f) f -> (n,f) f32")
def generate_delta(
    z_curr: np.ndarray, z_prev: np.ndarray, *, epsilon: float = 1e-3
) -> np.ndarray:
    """Thresholded output-feature delta: components with
    ``|delta| <= epsilon`` are zeroed (they reflect unchanged inputs)."""
    delta = z_curr.astype(np.float32) - z_prev.astype(np.float32)
    delta[np.abs(delta) <= epsilon] = 0.0
    return delta


@dataclass
class CondensedDelta:
    """Dense packing of a sparse delta matrix (the Condense Unit output).

    One flat (Dense Buffer, Address Register) pair — paper Fig. 7(b) —
    cut into rows by a row pointer: the non-zeros of row ``rows[i]`` are
    ``values[indptr[i]:indptr[i + 1]]`` and their column indices the
    same slice of ``addresses``, both in row-major order.
    """

    rows: np.ndarray  # (r,) ascending ids of the rows with a non-zero
    indptr: np.ndarray  # (r + 1,) row pointer into addresses / values
    addresses: np.ndarray  # (nnz,) column indices
    values: np.ndarray  # (nnz,) packed non-zero values
    dense_shape: tuple[int, int]
    nnz: int = field(init=False)  # surviving non-zeros

    def __post_init__(self) -> None:
        self.nnz = len(self.values)

    def density(self) -> float:
        """``nnz / (rows * cols)``; 0.0 for degenerate (zero-row or
        zero-column) shapes instead of a division by zero."""
        total = int(self.dense_shape[0]) * int(self.dense_shape[1])
        if total <= 0:
            return 0.0
        return self.nnz / total

    def expand(self) -> np.ndarray:
        """Reconstruct the sparse delta matrix (tests / verification);
        the all-zero matrix for an empty or degenerate packing."""
        out = np.zeros(self.dense_shape, dtype=np.float32)
        out[np.repeat(self.rows, np.diff(self.indptr)), self.addresses] = self.values
        return out


@contract("(n,f) f -> _")
def condense(delta: np.ndarray) -> CondensedDelta:
    """Multi-level zero-value filtering: mask generation + packing.

    One row-major ``nonzero`` pass yields the flat address and value
    arrays; the per-row counts give the occupied rows and their pointer.
    """
    r_nz, c_nz = np.nonzero(delta)
    counts = np.bincount(r_nz, minlength=delta.shape[0])
    rows = np.flatnonzero(counts)
    indptr = np.zeros(len(rows) + 1, dtype=np.int64)
    np.cumsum(counts[rows], out=indptr[1:])
    return CondensedDelta(rows, indptr, c_nz, delta[r_nz, c_nz], delta.shape)


class DeltaCellCache:
    """Cached pre-activations enabling partial (delta-mode) cell updates.

    After every FULL update of a vertex row the engine refreshes the
    cache with :meth:`refresh`; DELTA updates then adjust only the input
    pre-activation by the condensed delta columns and re-evaluate the
    gates (:meth:`partial_step`).
    """

    def __init__(self, cell: RecurrentCell, num_vertices: int):
        if not isinstance(cell, RecurrentCell):
            raise TypeError(f"not a RecurrentCell: {type(cell).__name__}")
        self.cell = cell
        n = num_vertices
        width = cell.w_x.shape[1]
        self.zx = np.zeros((n, width), dtype=np.float32)  # cached x @ w_x
        self.zh = np.zeros((n, width), dtype=np.float32)  # cached h @ w_h
        self.z_input = np.zeros((n, cell.input_dim), dtype=np.float32)

    @classmethod
    def from_arrays(
        cls, zx: np.ndarray, zh: np.ndarray, z_input: np.ndarray, cell=None
    ) -> "DeltaCellCache":
        """Wrap existing pre-activation arrays.  A checkpoint is loaded
        without a model, so ``cell`` may stay None until :meth:`bind`."""
        cache = cls.__new__(cls)
        cache.cell, cache.zx, cache.zh, cache.z_input = cell, zx, zh, z_input
        return cache

    def copy(self) -> "DeltaCellCache":
        """Detached cache over the same cell (fresh arrays)."""
        return DeltaCellCache.from_arrays(
            self.zx.copy(), self.zh.copy(), self.z_input.copy(), self.cell
        )

    def bind(self, cell: RecurrentCell) -> None:
        """Attach ``cell`` after checking the cached pre-activations are
        as wide as its weights make them (``x @ w_x``, ``h @ w_h``)."""
        widths = (self.zx.shape[1], self.zh.shape[1], self.z_input.shape[1])
        fits = (cell.w_x.shape[1], cell.w_h.shape[1], cell.w_x.shape[0])
        if widths != fits:
            raise ValueError(
                f"delta cache widths {widths} do not fit a"
                f" {type(cell).__name__} with widths {fits}"
            )
        self.cell = cell

    # ------------------------------------------------------------------
    @contract("(r,) i, (n, *) f, (r, *) f -> (r, *) f, (r, *) f")
    def refresh(
        self,
        rows: np.ndarray,
        x: np.ndarray,
        drive: np.ndarray,
        out: tuple[np.ndarray, np.ndarray] | None = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Record the pre-activations of a FULL update for ``rows`` and
        return them, ``(x[rows] @ w_x, drive @ w_h)``: the same two
        products the update itself consumes
        (:meth:`DGNNModel.cell_step_rows` ``pre``).  They are not views
        of the cache, so the cell may overwrite them: fresh arrays, or
        with ``out`` the caller's two blocks, written by the same gemms
        (the engine passes workspace blocks that live until its window
        ends, :mod:`repro.engine.workspace`).

        ``x`` is the full (n, d) cell input, read at ``rows`` only;
        ``drive`` is row-local: ``recurrent_drive(state, snap, rows)``.
        """
        zx_out, zh_out = (None, None) if out is None else out
        x_rows = x[rows]
        zx = _matmul_rows(x_rows, self.cell.w_x, out=zx_out)
        zh = _matmul_rows(drive, self.cell.w_h, out=zh_out)
        self.zx[rows] = zx
        self.zh[rows] = zh
        self.z_input[rows] = x_rows
        return zx, zh

    def partial_step(
        self,
        rows: np.ndarray,
        z_curr: np.ndarray,
        state_prev,
        *,
        epsilon: float = 1e-3,
        out: tuple[np.ndarray, np.ndarray] | None = None,
    ):
        """DELTA-mode update for ``rows``.

        Returns ``(h_rows, state_rows, nnz)`` where ``h_rows`` /
        ``state_rows`` cover only ``rows`` and ``nnz`` counts the delta
        components that survived the threshold — what the Condense Unit
        would pack, and what drives the compute-savings accounting.

        The cell evaluates its gates on the two cached blocks of
        ``rows``, gathered into fresh arrays or, with ``out``, into the
        caller's two blocks, as in :meth:`refresh`.
        """
        if len(rows) == 0:
            raise ValueError("partial_step needs at least one row")
        delta = generate_delta(z_curr[rows], self.z_input[rows], epsilon=epsilon)
        nnz = int(np.count_nonzero(delta))
        zx_out, zh_out = (None, None) if out is None else out
        # apply only the surviving delta columns to the cached input path
        # (``wrap`` indexes as ``[rows]`` does and, unlike ``raise``,
        # writes into ``out`` without a buffer of its own)
        zx = np.take(self.zx, rows, axis=0, out=zx_out, mode="wrap")
        zx += _matmul_rows(delta, self.cell.w_x)
        self.zx[rows] = zx
        self.z_input[rows] += delta
        zh = np.take(self.zh, rows, axis=0, out=zh_out, mode="wrap")
        h, state = self.cell.step_pre(zx, zh, state_prev.take(rows))
        return h, state, nnz
