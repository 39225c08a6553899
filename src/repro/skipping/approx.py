"""Prior RNN-approximation baselines compared in Table 5.

The paper grafts three published approximation schemes onto TaGNN in
place of its similarity-aware skipping and measures the accuracy damage:

* **TaGNN-DR — DeltaRNN** (Gao et al., FPGA'18): delta-threshold inference.
  Every step, input and hidden deltas below a threshold Θ are zeroed and
  only the survivors update cached pre-activations.  Topology-blind: it
  thresholds every vertex every step, so graph-structural change leaks
  into the state unnoticed and the error accumulates.
* **TaGNN-AM — ALSTM** (Jo et al.): approximate LSTM computing — hard
  (piecewise-linear) sigmoid/tanh plus coarse fixed-point quantisation of
  the gate pre-activations.
* **TaGNN-AS — ATLAS** (Kreß et al.): approximate multipliers — modelled
  as mantissa-truncated operands in the cell's matrix multiplies (the
  truncated-multiplier family ATLAS builds on).

All three apply to the RNN module only (the GNN module stays exact), per
the papers they come from.  Each implements the same
:class:`RNNApproximator` interface the accuracy benches drive, and none
holds gate arithmetic of its own: each forms the two pre-activation
products its way and hands them to the cell's
:meth:`~repro.models.rnn.RecurrentCell.step_pre`, with its primitives
as :class:`~repro.models.rnn.CellOps`.  So they run on any cell.
"""

from __future__ import annotations

import abc

import numpy as np

from ..check.shapes import contract
from ..models.rnn import EXACT_OPS, CellOps, RecurrentCell

__all__ = [
    "hard_sigmoid",
    "hard_tanh",
    "truncate_mantissa",
    "quantize",
    "RNNApproximator",
    "ExactRNN",
    "DeltaRNNApprox",
    "ALSTMApprox",
    "ATLASApprox",
    "APPROXIMATORS",
]


# ----------------------------------------------------------------------
# approximation primitives
# ----------------------------------------------------------------------
@contract("(...) f -> (...) f")
def hard_sigmoid(x: np.ndarray) -> np.ndarray:
    """Piecewise-linear sigmoid: ``clip(0.25 x + 0.5, 0, 1)``."""
    return np.clip(0.25 * x + 0.5, 0.0, 1.0).astype(x.dtype, copy=False)


@contract("(...) f -> (...) f")
def hard_tanh(x: np.ndarray) -> np.ndarray:
    """Piecewise-linear tanh: ``clip(x, -1, 1)``."""
    return np.clip(x, -1.0, 1.0).astype(x.dtype, copy=False)


@contract("(...) f, int -> (...) f32")
def truncate_mantissa(x: np.ndarray, bits: int) -> np.ndarray:
    """Keep only the top ``bits`` mantissa bits of float32 values —
    the operand rounding of a truncated hardware multiplier."""
    if not 0 <= bits <= 23:
        raise ValueError("bits must be in [0, 23]")
    x32 = np.ascontiguousarray(x, dtype=np.float32)
    raw = x32.view(np.uint32)
    mask = np.uint32(0xFFFFFFFF) << np.uint32(23 - bits)
    return (raw & mask).view(np.float32)


@contract("(...) f, float -> (...) f32")
def quantize(x: np.ndarray, step: float) -> np.ndarray:
    """Uniform fixed-point quantisation with the given step size."""
    if step <= 0:
        raise ValueError("step must be positive")
    return (np.round(x / step) * step).astype(np.float32, copy=False)


# ----------------------------------------------------------------------
# the approximator interface + implementations
# ----------------------------------------------------------------------
class RNNApproximator(abc.ABC):
    """A drop-in replacement for the exact cell update across a window."""

    name: str = "abstract"
    #: the primitives it hands the cell's ``step_pre`` (all elementwise,
    #: as :class:`~repro.models.rnn.CellOps` requires)
    ops: CellOps = EXACT_OPS

    def start(self, cell: RecurrentCell, num_vertices: int) -> None:
        """Reset any per-window caches (called once per window)."""
        if not isinstance(cell, RecurrentCell):
            raise TypeError(f"not a RecurrentCell: {type(cell).__name__}")

    @abc.abstractmethod
    def cell_step(self, cell: RecurrentCell, x: np.ndarray, state):
        """One approximate cell update; same signature as the exact step."""


class ExactRNN(RNNApproximator):
    """The identity baseline (Table 5's 'Baseline' rows)."""

    name = "Baseline"

    def cell_step(self, cell: RecurrentCell, x: np.ndarray, state):
        return cell.step(x, state)


class DeltaRNNApprox(RNNApproximator):
    """DeltaRNN delta-threshold inference (topology-blind)."""

    name = "TaGNN-DR"

    def __init__(self, threshold: float = 0.30):
        if threshold < 0:
            raise ValueError("threshold must be non-negative")
        self.threshold = threshold
        self._zx = self._zh = self._x = self._h = None

    def start(self, cell: RecurrentCell, num_vertices: int) -> None:
        super().start(cell, num_vertices)
        width = cell.w_x.shape[1]
        self._zx = np.zeros((num_vertices, width), dtype=np.float32)
        self._zh = np.zeros((num_vertices, width), dtype=np.float32)
        self._x = np.zeros((num_vertices, cell.input_dim), dtype=np.float32)
        self._h = np.zeros((num_vertices, cell.hidden_dim), dtype=np.float32)

    def cell_step(self, cell: RecurrentCell, x: np.ndarray, state):
        if self._zx is None or len(x) != len(self._zx):
            self.start(cell, len(x))
        dx = x - self._x
        dx[np.abs(dx) <= self.threshold] = 0.0
        h_prev = state.h
        dh = h_prev - self._h
        dh[np.abs(dh) <= self.threshold] = 0.0
        self._zx += dx @ cell.w_x
        self._zh += dh @ cell.w_h
        self._x += dx
        self._h += dh
        return cell.step_pre(self._zx.copy(), self._zh, state)


class ALSTMApprox(RNNApproximator):
    """ALSTM: hard activations + fixed-point pre-activation quantisation."""

    name = "TaGNN-AM"

    def __init__(self, quant_step: float = 0.30):
        self.quant_step = quant_step

    @property
    def ops(self) -> CellOps:
        return CellOps(
            hard_sigmoid, hard_tanh, pre=lambda p: quantize(p, self.quant_step)
        )

    def cell_step(self, cell: RecurrentCell, x: np.ndarray, state):
        return cell.step_pre(x @ cell.w_x, state.h @ cell.w_h, state, self.ops)


class ATLASApprox(RNNApproximator):
    """ATLAS: approximate (truncated-operand) multipliers in the cell.

    *Every* multiplier in the unit is approximate — the gate matmuls and
    the element-wise state products (``f*c``, ``i*g``, ``o*tanh``, …).
    The element-wise ones matter most: their error re-enters the
    recurrent state and compounds across snapshots, which is exactly the
    accumulation the paper's accuracy comparison penalises.
    """

    name = "TaGNN-AS"

    def __init__(self, mantissa_bits: int = 1):
        if not 0 <= mantissa_bits <= 23:
            raise ValueError("mantissa_bits in [0, 23]")
        self.mantissa_bits = mantissa_bits

    def _matmul(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return truncate_mantissa(a, self.mantissa_bits) @ truncate_mantissa(
            b, self.mantissa_bits
        )

    def _mul(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return truncate_mantissa(
            np.asarray(a, dtype=np.float32), self.mantissa_bits
        ) * truncate_mantissa(np.asarray(b, dtype=np.float32), self.mantissa_bits)

    @property
    def ops(self) -> CellOps:
        return CellOps(mul=self._mul)

    def cell_step(self, cell: RecurrentCell, x: np.ndarray, state):
        zx = self._matmul(x, cell.w_x)
        zh = self._matmul(state.h, cell.w_h)
        return cell.step_pre(zx, zh, state, self.ops)


APPROXIMATORS: dict[str, type[RNNApproximator]] = {
    "Baseline": ExactRNN,
    "TaGNN-DR": DeltaRNNApprox,
    "TaGNN-AM": ALSTMApprox,
    "TaGNN-AS": ATLASApprox,
}
