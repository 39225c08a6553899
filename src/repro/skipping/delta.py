r"""Delta generation and condensing: what DELTA mode is on the host.

DELTA-mode vertices (paper Section 4.2, θ_s ≤ θ ≤ θ_e) do not re-run
the whole RNN cell in hardware.  Instead:

1. the **Delta Generation** module computes
   :math:`\Delta = Z^t - Z^{t-1}` and zeroes near-zero components (the
   similarity gate guarantees most components are near zero);
2. the **Condense Unit** packs the surviving non-zeros into one dense
   buffer plus one address register, cut into rows by a row pointer
   (modelled by :func:`condense` / :class:`CondensedDelta`);
3. the DCU applies only the non-zero columns to the cached input
   pre-activations, the gates are re-evaluated, and the result is merged
   with the previous snapshot's state.

On the host DELTA is a decision, a counter and a price, not a kernel:
a DELTA row's delta is 56–65 % dense (ε = 1e-3, every zoo model), so a
condensed update saves no numpy work, and the host computes the row
with the FULL update.  What stays is the count step 3 is charged by:
:class:`DeltaCellCache` keeps each row's baseline and counts a DELTA
row's surviving delta components, which the engine's counters, and
through them the accelerator model's cycles, read.  :func:`condense`
is for the ablation that studies the packing itself and for tests.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..check.shapes import contract
from ..models.rnn import IdentityCell, RecurrentCell

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
    """The Delta Generation baseline of every row: ``z_input``, the
    ``(n, d)`` cell input a DELTA row's delta is taken against.

    A FULL row sets its baseline to its input (:meth:`reset`); a DELTA
    row moves it by its ε-thresholded delta (:meth:`advance`), which is
    what the DCU would add to its cached pre-activations, and counts the
    delta's survivors.  The host keeps no pre-activations: it computes a
    DELTA row with the FULL update and keeps this baseline only for the
    count.
    """

    def __init__(self, z_input: np.ndarray):
        self.z_input = z_input

    @classmethod
    def zeros(cls, cell: RecurrentCell, num_vertices: int) -> "DeltaCellCache":
        """An all-zero baseline as wide as ``cell``'s input."""
        if not isinstance(cell, RecurrentCell):
            raise TypeError(f"not a RecurrentCell: {type(cell).__name__}")
        return cls(np.zeros((num_vertices, cell.input_dim), dtype=np.float32))

    def check(self, cell: RecurrentCell) -> None:
        """Raise unless ``cell`` is a recurrent cell whose input is as
        wide as the baseline (an identity cell keeps none)."""
        width = self.z_input.shape[1]
        if isinstance(cell, IdentityCell) or width != cell.input_dim:
            raise ValueError(
                f"delta baseline width {width} does not"
                f" fit a {type(cell).__name__} with input width"
                f" {cell.input_dim}"
            )

    # ------------------------------------------------------------------
    def reset(self, rows: np.ndarray, z: np.ndarray) -> None:
        """A FULL update of ``rows`` from the ``(n, d)`` input ``z``:
        their baseline becomes their input."""
        self.z_input[rows] = z[rows]

    def advance(
        self, rows: np.ndarray, z: np.ndarray, *, epsilon: float = 1e-3
    ) -> int:
        """A DELTA update of ``rows``: moves their baseline by the
        ε-thresholded delta of ``z[rows]`` against it and returns the
        delta's non-zeros — what the Condense Unit would pack, and what
        the compute-savings accounting charges."""
        delta = generate_delta(z[rows], self.z_input[rows], epsilon=epsilon)
        self.z_input[rows] += delta
        return int(np.count_nonzero(delta))
