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
them on the current machine) and are *refined online*: observed window
latencies feed an exponentially-weighted moving average per kernel,
and the planner trusts the EWMA over the prediction once one exists.

The model predicts *costs only* — it can never affect results.  The
kernel alternatives are bit-identical by construction; a wrong
prediction costs time, not correctness.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

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
    #: window classification: per vertex per snapshot (fingerprints,
    #: row compares, feature compares).
    classify_seconds_per_vertex: float = 1.1e-8
    #: changed-set masking / task regeneration per vertex per snapshot —
    #: only paid by the delta-condensed (OADL) kernel.
    mask_seconds_per_vertex: float = 6.0e-9
    #: fixed per-window dispatch overhead.
    window_fixed_seconds: float = 1.0e-4
    #: provenance of the constants ("default" | "calibrated").
    source: str = "default"

    def with_source(self, source: str) -> "CalibrationTable":
        return replace(self, source=source)


class CostModel:
    """Predicts per-window kernel seconds.

    ``observe()`` folds realized window latencies into a per-kernel EWMA;
    ``kernel_seconds()`` returns the EWMA when available (online
    refinement) and the closed-form prediction otherwise.
    """

    def __init__(
        self,
        table: CalibrationTable | None = None,
        *,
        ewma_alpha: float = 0.3,
    ):
        if not 0.0 < ewma_alpha <= 1.0:
            raise ValueError(f"ewma_alpha must be in (0, 1], got {ewma_alpha}")
        self.table = table or CalibrationTable()
        self.ewma_alpha = ewma_alpha
        self._observed: dict[str, float] = {}
        self._observations: dict[str, int] = {}

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

    def observe(self, kernel: KernelChoice, seconds: float) -> None:
        """Fold one realized window latency into the kernel's EWMA."""
        key = kernel.value
        prev = self._observed.get(key)
        if prev is None:
            self._observed[key] = float(seconds)
        else:
            a = self.ewma_alpha
            self._observed[key] = a * float(seconds) + (1.0 - a) * prev
        self._observations[key] = self._observations.get(key, 0) + 1

    def observed_seconds(self, kernel: KernelChoice) -> float | None:
        return self._observed.get(kernel.value)

    def observation_count(self, kernel: KernelChoice) -> int:
        return self._observations.get(kernel.value, 0)

    def kernel_seconds(
        self, profile: WindowProfile, kernel: KernelChoice
    ) -> float:
        """EWMA-refined estimate: observed latency when the kernel has
        run at least once, the closed-form prediction otherwise."""
        observed = self._observed.get(kernel.value)
        if observed is not None:
            return observed
        return self.predict_kernel_seconds(profile, kernel)

    # ------------------------------------------------------------------
    def snapshot(self) -> dict:
        """Serializable view of the model's online state (for benches)."""
        return {
            "table_source": self.table.source,
            "ewma_alpha": self.ewma_alpha,
            "observed_seconds": dict(self._observed),
            "observations": dict(self._observations),
        }
