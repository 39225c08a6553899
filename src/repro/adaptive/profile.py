"""Cheap per-window workload measurement.

A :class:`WindowProfile` holds what
:meth:`CostModel.predict_kernel_seconds
<repro.adaptive.costmodel.CostModel.predict_kernel_seconds>` reads, and
all of it is a count the engine already has (the window classification,
the snapshots' edge counts, the model's layer shapes) — profiling must
cost a negligible fraction of the window it describes, or the planner
eats its own win.  No wall clocks here: profiles are pure functions of
the data, so planning decisions are reproducible for fixed inputs.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..analysis.classify import WindowClassification
from ..graphs.dynamic import DynamicGraph
from ..models.base import DGNNModel

__all__ = ["WindowProfile", "profile_window"]


@dataclass(frozen=True)
class WindowProfile:
    """Measured shape of one window's workload."""

    num_vertices: int
    num_snapshots: int
    edges_total: int  # sum of directed edges over the window
    edges_first: int  # edges of the representative snapshot
    unaffected_frac: float
    stable_frac: float
    affected_frac: float
    #: (in_dim, out_dim) of every GNN layer — the cost model prices MACs
    layer_dims: tuple[tuple[int, int], ...]
    cell_flops_per_vertex: int

    # ------------------------------------------------------------------
    @property
    def changed_frac(self) -> float:
        """Fraction of vertices needing per-snapshot recomputation."""
        return self.stable_frac + self.affected_frac

    def as_dict(self) -> dict:
        return {
            "num_vertices": self.num_vertices,
            "num_snapshots": self.num_snapshots,
            "edges_total": self.edges_total,
            "unaffected_frac": round(self.unaffected_frac, 4),
            "stable_frac": round(self.stable_frac, 4),
            "affected_frac": round(self.affected_frac, 4),
        }


def profile_window(
    window: DynamicGraph, cls: WindowClassification, model: DGNNModel
) -> WindowProfile:
    """Measure one window into a :class:`WindowProfile`.

    ``cls`` is the classification the engine computed anyway.
    """
    n = window.num_vertices
    snaps = window.snapshots
    edges = [s.num_edges for s in snaps]
    counts = cls.counts()
    denom = max(n, 1)

    return WindowProfile(
        num_vertices=n,
        num_snapshots=len(snaps),
        edges_total=int(sum(edges)),
        edges_first=int(edges[0]),
        unaffected_frac=counts["unaffected"] / denom,
        stable_frac=counts["stable"] / denom,
        affected_frac=counts["affected"] / denom,
        layer_dims=tuple(
            (layer.in_dim, layer.out_dim) for layer in model.gnn.layers
        ),
        cell_flops_per_vertex=int(model.cell.flops_per_vertex()),
    )
