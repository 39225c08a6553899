"""Offline calibration: micro-benchmark the PR-6 kernels into a table.

``calibrate_cost_model`` times the primitive operations the cost model
prices — scatter aggregation, dense combination, cell-style flops,
window classification, changed-set masking — on synthetic seeded
inputs, and returns a :class:`CalibrationTable` whose per-unit
constants reflect *this* machine.  perfbench's ``stream-adaptive``
workload runs it each time it builds its planners; everything else
falls back to the baked defaults.

This module deliberately reads wall clocks: calibration measures real
latency.  Each read carries an R001 suppression because the ``adaptive``
package sits inside the determinism-gated core — the suppressions are
audited in docs/static_analysis.md.
"""

from __future__ import annotations

import time

import numpy as np

from ..graphs.dynamic import DynamicGraph
from ..graphs.snapshot import CSRSnapshot
from .costmodel import CalibrationTable

__all__ = ["calibrate_cost_model"]


def _best_seconds(fn, repeats: int) -> float:
    """Minimum wall time of ``repeats`` runs (min rejects scheduler noise
    better than mean for micro-benchmarks)."""
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()  # repro: noqa R001 — calibration measures wall latency by design
        fn()
        dt = time.perf_counter() - t0  # repro: noqa R001 — calibration measures wall latency by design
        best = min(best, dt)
    return best


def _synthetic_window(rng, n: int, avg_degree: int, dim: int) -> DynamicGraph:
    """Two-snapshot window with a perturbed second snapshot, so the
    classification pass sees realistic mixed classes."""
    m = n * avg_degree // 2
    edges = rng.integers(0, n, size=(m, 2), dtype=np.int64)
    feats = rng.standard_normal((n, dim)).astype(np.float32)
    s0 = CSRSnapshot.from_edges(n, edges, feats.copy(), timestamp=0)
    flips = rng.integers(0, n, size=(max(1, m // 20), 2), dtype=np.int64)
    feats2 = feats.copy()
    rows = rng.integers(0, n, size=max(1, n // 20))
    feats2[rows] += rng.standard_normal((rows.size, dim)).astype(np.float32)
    s1 = CSRSnapshot.from_edges(
        n, np.concatenate([edges, flips]), feats2, timestamp=1
    )
    return DynamicGraph([s0, s1], name="calibration")


def calibrate_cost_model(
    *,
    seed: int = 7,
    num_vertices: int = 2048,
    avg_degree: int = 8,
    dim: int = 32,
    repeats: int = 3,
) -> CalibrationTable:
    """Measure per-unit kernel costs on the current machine.

    Synthetic inputs are seeded, so the *workload* is reproducible; the
    measured seconds of course are not — they are the whole point.
    """
    from ..analysis.classify import classify_window

    rng = np.random.default_rng(seed)
    window = _synthetic_window(rng, num_vertices, avg_degree, dim)
    snap = window.snapshots[0]
    x = snap.features
    n = num_vertices
    edges = snap.num_edges

    # -- aggregation --------------------------------------------------------
    scatter = _best_seconds(lambda: snap.aggregate(x), repeats)
    scatter_unit = scatter / max(edges * dim, 1)

    # -- combination (dense MAC) -------------------------------------------
    w = rng.standard_normal((dim, dim)).astype(np.float32)
    combine = _best_seconds(lambda: x @ w, repeats)
    combine_unit = combine / max(n * dim * dim, 1)

    # -- cell-style flops (matmul + elementwise nonlinearity) --------------
    h = rng.standard_normal((n, dim)).astype(np.float32)
    cell = _best_seconds(lambda: np.tanh(x @ w + h), repeats)
    cell_unit = cell / max(n * (dim * dim + 2 * dim), 1)

    # -- window passes ------------------------------------------------------
    classify = _best_seconds(lambda: classify_window(window), repeats)
    classify_unit = classify / max(n * window.num_snapshots, 1)

    # -- changed-set masking ------------------------------------------------
    mask = np.zeros(n, dtype=bool)
    mask[rng.integers(0, n, size=n // 4)] = True
    masking = _best_seconds(lambda: np.flatnonzero(mask), repeats)
    mask_unit = masking / max(n, 1)

    defaults = CalibrationTable()
    return CalibrationTable(
        scatter_seconds_per_edge_dim=scatter_unit,
        combine_seconds_per_mac=combine_unit,
        cell_seconds_per_flop=cell_unit,
        classify_seconds_per_vertex=classify_unit,
        mask_seconds_per_vertex=mask_unit,
        window_fixed_seconds=defaults.window_fixed_seconds,
        source="calibrated",
    )
