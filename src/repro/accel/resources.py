"""FPGA resource model — reproduces Table 3 as a capacity check.

Table 3 reports post-implementation utilisation of the XCU280 for the
three model bitstreams.  We reproduce it with an area model: each unit of
the configured architecture contributes DSPs/LUTs/FFs/BRAM/URAM per the
usual Vivado costs (a DSP48 pair per MAC, control logic per pipeline,
ping-pong feature storage in URAM), with model-dependent terms for the
GNN depth and the cell type (an LSTM datapath is four gates, a GRU three,
GC-LSTM adds the recurrent-convolution datapath).  Constants are
calibrated once against the paper's reported utilisation at the paper's
configuration (4,096 MACs, real-dataset feature widths) — the *model*
then predicts how utilisation moves when the config changes, which is
what the sensitivity benches exercise.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..models.base import DGNNModel
from ..models.rnn import GRUCell
from .config import TaGNNConfig

__all__ = ["XCU280", "FPGAResources", "estimate_resources"]

#: XCU280 device totals (Section 5.1: 1.08 M LUTs, 4.5 MB BRAM, 30 MB
#: UltraRAM, 9,024 DSP slices; FFs are 2x LUTs on UltraScale+).
XCU280 = {
    "DSP": 9024,
    "LUT": 1_080_000,
    "FF": 2_160_000,
    "BRAM_bytes": int(4.5 * 1024 * 1024),
    "URAM_bytes": 30 * 1024 * 1024,
}


@dataclass(frozen=True)
class FPGAResources:
    """Absolute usage plus utilisation fractions against the XCU280."""

    dsp: int
    lut: int
    ff: int
    bram_bytes: int
    uram_bytes: int

    def utilization(self) -> dict[str, float]:
        return {
            "DSP": self.dsp / XCU280["DSP"],
            "LUT": self.lut / XCU280["LUT"],
            "FF": self.ff / XCU280["FF"],
            "BRAM": self.bram_bytes / XCU280["BRAM_bytes"],
            "UltraRAM": self.uram_bytes / XCU280["URAM_bytes"],
        }

    def fits(self) -> bool:
        return all(v <= 1.0 for v in self.utilization().values())


def _cell_kind(model: DGNNModel) -> str:
    if model.cell_reads_neighbours:
        return "graph-lstm"
    if isinstance(model.cell, GRUCell):
        return "gru"
    return "lstm"


def estimate_resources(
    model: DGNNModel, config: TaGNNConfig | None = None
) -> FPGAResources:
    """Area estimate for one model bitstream at a configuration."""
    cfg = config or TaGNNConfig()
    layers = len(model.gnn.layers)
    kind = _cell_kind(model)
    gates = {"lstm": 4, "graph-lstm": 4, "gru": 3}[kind]

    # --- DSP: ~1.5 DSP48 per MAC, plus SCU lanes, activation gates,
    # delta/condense datapath, and the recurrent convolution for GC-LSTM.
    dsp = int(
        cfg.total_macs * 1.5
        + cfg.scu_count * cfg.scu_lanes * 2
        + gates * 64
        + 128  # condense / delta generation
        + (384 if kind == "graph-lstm" else 0)
    )

    # --- LUT: control + per-DCU logic + MSDL/TFSM + ARU + per-layer
    # sequencing, plus the recurrent-convolution address generation.
    lut = int(
        200_000
        + cfg.num_dcus * 8_000
        + 40_000  # MSDL + TFSM
        + 30_000  # Adaptive RNN Unit control
        + layers * 25_000
        + (60_000 if kind == "graph-lstm" else 0)
    )

    # --- FF: pipeline registers track LUT fabric usage.
    ff = int(lut * 1.6 if kind != "graph-lstm" else lut * 1.5)

    # --- BRAM: the Table 4 small buffers + per-layer ping-pong staging
    # + cell-state banks.
    cell_bram = {"lstm": 0.40, "graph-lstm": 1.20, "gru": 1.20}[kind]
    bram = int((1.00 + 0.45 * layers + cell_bram) * 1024 * 1024)

    # --- URAM: multi-snapshot feature storage dominates (window x
    # real-dataset feature widths), plus per-layer intermediate tiles.
    cell_uram = {"lstm": 0.20, "graph-lstm": 3.00, "gru": 0.85}[kind]
    uram = int((22.5 + 0.75 * layers + cell_uram) * 1024 * 1024)

    return FPGAResources(dsp, lut, ff, bram_bytes=bram, uram_bytes=uram)
