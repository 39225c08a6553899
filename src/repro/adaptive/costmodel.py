"""Calibrated cost model behind the adaptive planner.

It prices the one decision that needs pricing, **kernel seconds**:
closed-form operation counts from a
:class:`~repro.adaptive.profile.WindowProfile` (edges × dims for
aggregation, MACs for combination, flops for the RNN cell, plus the
classification / changed-set masking overheads each kernel does or
does not pay), scaled by per-unit constants in a
:class:`CalibrationTable`.  The table defaults are baked from offline
micro-benchmarks of the PR-6 kernels (see
:func:`~repro.adaptive.calibrate.calibrate_cost_model`, which re-bakes
them on the current machine).

The model predicts *costs only*, for audit: every plan carries its
prediction for each kernel, and perfbench's ``adaptive.cost_residual``
checks it against the traced window time.  No decision reads it — the
kernel is a rule on the profile's changed share
(:meth:`~repro.adaptive.planner.AdaptivePlanner.kernel_for`), because the
closed form prices every layer at the first layer's changed share and
so cannot see that deeper layers leave nothing to reuse.
"""

from __future__ import annotations

from dataclasses import dataclass

from .plan import KernelChoice
from .profile import WindowProfile

__all__ = ["CalibrationTable", "CostModel"]


@dataclass(frozen=True)
class CalibrationTable:
    """Per-unit seconds for the primitive operations of the PR-6 kernels.

    Defaults are offline micro-benchmark medians (vectorised NumPy on the
    reference container); :func:`calibrate_cost_model` replaces them with
    measurements from the current machine.
    """

    #: scatter aggregation: one gather+add per (edge, feature) pair.
    scatter_seconds_per_edge_dim: float = 2.4e-10
    #: layer combination: one MAC of the dense ``x @ W``.
    combine_seconds_per_mac: float = 1.6e-11
    #: RNN cell update: one flop of the cell's per-vertex count.
    cell_seconds_per_flop: float = 2.5e-11
    #: window classification: per vertex per snapshot (neighbour-list
    #: merges, feature compares).
    classify_seconds_per_vertex: float = 1.1e-8
    #: changed-set masking / task regeneration per vertex per snapshot —
    #: only paid by the delta-condensed (OADL) kernel.
    mask_seconds_per_vertex: float = 6.0e-9
    #: fixed per-window dispatch overhead.
    window_fixed_seconds: float = 1.0e-4
    #: provenance of the constants ("default" | "calibrated").
    source: str = "default"


class CostModel:
    """Predicts per-window kernel seconds from a :class:`CalibrationTable`."""

    def __init__(self, table: CalibrationTable | None = None):
        self.table = table or CalibrationTable()

    # ------------------------------------------------------------------
    def predict_kernel_seconds(
        self, profile: WindowProfile, kernel: KernelChoice
    ) -> float:
        """Closed-form window latency for one kernel choice."""
        t = self.table
        n = profile.num_vertices
        K = profile.num_snapshots
        E = profile.edges_total
        agg_dims = sum(i for i, _ in profile.layer_dims)
        macs = sum(i * o for i, o in profile.layer_dims)

        # classification runs regardless of kernel (the skip policy needs
        # it); the cell phase is also kernel-independent.
        seconds = t.window_fixed_seconds
        seconds += t.classify_seconds_per_vertex * n * K
        seconds += t.cell_seconds_per_flop * profile.cell_flops_per_vertex * n * K

        if kernel is KernelChoice.DELTA_CONDENSED:
            # OADL: the representative snapshot pays the full GNN, the
            # remaining K-1 snapshots recompute only changed rows — plus
            # per-snapshot changed-set masking.
            changed = max(profile.changed_frac, 1.0 / max(n, 1))
            full = (
                t.scatter_seconds_per_edge_dim * profile.edges_first * agg_dims
                + t.combine_seconds_per_mac * n * macs
            )
            incremental = (K - 1) * changed * (
                t.scatter_seconds_per_edge_dim * (E / K) * agg_dims
                + t.combine_seconds_per_mac * n * macs
            )
            seconds += full + incremental
            seconds += t.mask_seconds_per_vertex * n * K
        elif kernel is KernelChoice.BATCHED_SPMM:
            seconds += t.scatter_seconds_per_edge_dim * E * agg_dims
            seconds += t.combine_seconds_per_mac * n * macs * K
        else:  # pragma: no cover - enum is closed
            raise ValueError(f"unknown kernel {kernel!r}")
        return seconds
