"""Cheap per-window workload measurement.

Everything in a :class:`WindowProfile` is either already computed by the
engine (the window classification) or derivable in O(n + E) vectorised
passes — profiling must
cost a negligible fraction of the window it describes, or the planner
eats its own win.  No wall clocks here: profiles are pure functions of
the data, so planning decisions are reproducible for fixed inputs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..analysis.classify import WindowClassification
from ..graphs.dynamic import DynamicGraph
from ..models.base import DGNNModel

__all__ = ["WindowProfile", "profile_window"]

#: Feature-sparsity probe reads at most this many rows (strided sample).
_SPARSITY_SAMPLE_ROWS = 256


@dataclass(frozen=True)
class WindowProfile:
    """Measured shape of one window's workload."""

    num_vertices: int
    num_snapshots: int
    dim: int
    edges_total: int  # sum of directed edges over the window
    edges_first: int  # edges of the representative snapshot
    max_degree: int  # max out-degree across the window
    degree_cv: float  # coefficient of variation of degrees (skew)
    unaffected_frac: float
    stable_frac: float
    affected_frac: float
    feature_density: float  # non-zero fraction of sampled feature rows
    #: (in_dim, out_dim) of every GNN layer — the cost model prices MACs
    layer_dims: tuple[tuple[int, int], ...]
    cell_flops_per_vertex: int

    # ------------------------------------------------------------------
    @property
    def changed_frac(self) -> float:
        """Fraction of vertices needing per-snapshot recomputation."""
        return self.stable_frac + self.affected_frac

    @property
    def avg_degree(self) -> float:
        if self.num_vertices == 0:
            return 0.0
        return self.edges_total / (self.num_vertices * self.num_snapshots)

    @property
    def subgraph_density(self) -> float:
        """Edge density of the affected region (edges over the changed
        vertex set's dense capacity) — the planner's dense-vs-sparse
        signal."""
        changed = self.changed_frac * self.num_vertices
        if changed < 1.0:
            return 0.0
        cap = changed * changed
        return min(1.0, (self.edges_total / self.num_snapshots) / cap)

    def as_dict(self) -> dict:
        return {
            "num_vertices": self.num_vertices,
            "num_snapshots": self.num_snapshots,
            "dim": self.dim,
            "edges_total": self.edges_total,
            "max_degree": self.max_degree,
            "degree_cv": round(self.degree_cv, 4),
            "unaffected_frac": round(self.unaffected_frac, 4),
            "stable_frac": round(self.stable_frac, 4),
            "affected_frac": round(self.affected_frac, 4),
            "feature_density": round(self.feature_density, 4),
            "subgraph_density": round(self.subgraph_density, 6),
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
    degs = snaps[0].degrees
    max_degree = max(int(s.degrees.max()) if s.num_edges else 0 for s in snaps)
    mean_deg = float(degs.mean()) if n else 0.0
    degree_cv = float(degs.std() / mean_deg) if mean_deg > 0 else 0.0

    counts = cls.counts()
    denom = max(n, 1)

    feats = snaps[0].features
    stride = max(1, n // _SPARSITY_SAMPLE_ROWS)
    sample = feats[::stride]
    feature_density = (
        float(np.count_nonzero(sample)) / sample.size if sample.size else 0.0
    )

    return WindowProfile(
        num_vertices=n,
        num_snapshots=len(snaps),
        dim=window.dim,
        edges_total=int(sum(edges)),
        edges_first=int(edges[0]),
        max_degree=max_degree,
        degree_cv=degree_cv,
        unaffected_frac=counts["unaffected"] / denom,
        stable_frac=counts["stable"] / denom,
        affected_frac=counts["affected"] / denom,
        feature_density=feature_density,
        layer_dims=tuple(
            (layer.in_dim, layer.out_dim) for layer in model.gnn.layers
        ),
        cell_flops_per_vertex=int(model.cell.flops_per_vertex()),
    )
