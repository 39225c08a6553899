"""The layers of ``repro``, their seams, and their metrics.

A layer is a package under ``src/repro/``.  :data:`SEAMS` names the
public entry points ``perfbench`` wraps while tracing;
:func:`layer_metrics` turns one traced pass (its spans plus the public
counters the driver read at the same boundaries) into the per-layer
metrics that ``BENCHMARK.json`` declares.

The engine's private helpers (``_gnn_window``, ``_layer_rows``,
``_rnn_step``) are deliberately not wrapped: their own work is the
``engine`` layer's self time.  ``formats``, ``hardware`` and ``check``
are on no timed path and have no metric.
"""

from __future__ import annotations

import statistics

from .tracer import Seam, Span, self_times

__all__ = ["KERNELS", "PER_LAYER", "SEAMS", "layer_metrics"]


def _events(args, kwargs, result):
    return len(args[1])


def _unaffected(args, kwargs, result):
    return None if result is None else result.unaffected_ratio()


def _completed(args, kwargs, result):
    return 0 if result is None else 1


def _windows(args, kwargs, result):
    return None if result is None else result.metrics.windows_processed


def _written(args, kwargs, result):
    sink = args[1]
    return sink.tell() if hasattr(sink, "tell") else None


def _shard(args, kwargs, result):
    return args[0].index


def _shard_replayed(args, kwargs, result):
    replayed = 0 if result is None else sum(n["replayed"] for n in result[1])
    return (args[0].index, replayed)


def _cycles(args, kwargs, result):
    return None if result is None else result.cycles


SEAMS = (
    Seam("graphs.apply_events", "graphs", "repro.graphs.updates",
         "apply_events", _events),
    Seam("graphs.aggregate", "graphs", "repro.graphs.snapshot",
         "CSRSnapshot.aggregate"),
    Seam("analysis.classify", "analysis", "repro.analysis.classify",
         "classify_window", _unaffected),
    Seam("analysis.subgraph", "analysis", "repro.analysis.subgraph",
         "extract_affected_subgraph"),
    Seam("analysis.union_adjacency", "analysis", "repro.analysis.subgraph",
         "union_adjacency"),
    Seam("analysis.similarity", "analysis", "repro.analysis.similarity",
         "similarity_scores"),
    Seam("models.gnn", "models", "repro.models.base",
         "DGNNModel.gnn_forward_window"),
    Seam("models.layer_forward", "models", "repro.models.layers",
         "GCNLayer.forward"),
    Seam("models.layer_combine", "models", "repro.models.layers",
         "GCNLayer.combine"),
    Seam("models.cell", "models", "repro.models.base",
         "DGNNModel.cell_step_rows"),
    Seam("models.cell", "models", "repro.models.base", "DGNNModel.cell_step"),
    Seam("models.recurrent_drive", "models", "repro.models.base",
         "DGNNModel.recurrent_drive"),
    Seam("skipping.decide", "skipping", "repro.skipping.policy",
         "SkippingPolicy.decide"),
    Seam("skipping.partial_step", "skipping", "repro.skipping.delta",
         "DeltaCellCache.partial_step"),
    Seam("skipping.refresh", "skipping", "repro.skipping.delta",
         "DeltaCellCache.refresh"),
    Seam("engine.push", "engine", "repro.engine.streaming",
         "StreamingInference.push", _completed),
    Seam("engine.push", "engine", "repro.engine.streaming",
         "StreamingInference.flush", _completed),
    Seam("engine.concurrent_run", "engine", "repro.engine.concurrent",
         "ConcurrentEngine.run", _windows),
    Seam("engine.reference_run", "engine", "repro.engine.reference",
         "ReferenceEngine.run", _windows),
    Seam("adaptive.profile", "adaptive", "repro.adaptive.profile",
         "profile_window"),
    Seam("adaptive.plan", "adaptive", "repro.adaptive.planner",
         "AdaptivePlanner.plan"),
    Seam("adaptive.observe", "adaptive", "repro.adaptive.planner",
         "AdaptivePlanner.observe"),
    Seam("adaptive.calibrate", "adaptive", "repro.adaptive.calibrate",
         "calibrate_cost_model"),
    Seam("resilience.guard", "resilience", "repro.resilience.ingest",
         "GuardedIngest.apply"),
    Seam("resilience.snapshot_violation", "resilience",
         "repro.resilience.ingest", "snapshot_violation"),
    Seam("resilience.push", "resilience", "repro.resilience.supervisor",
         "ResilientStreamingInference.push"),
    Seam("resilience.push", "resilience", "repro.resilience.supervisor",
         "ResilientStreamingInference.flush"),
    Seam("resilience.carry_state", "resilience", "repro.engine.streaming",
         "StreamingInference.carry_state"),
    Seam("resilience.checkpoint_save", "resilience",
         "repro.resilience.checkpoint", "CheckpointStore.save"),
    Seam("resilience.checkpoint_write", "resilience",
         "repro.resilience.checkpoint", "save_checkpoint", _written),
    Seam("resilience.checkpoint_load", "resilience",
         "repro.resilience.checkpoint", "CheckpointStore.load"),
    Seam("serving.push", "serving", "repro.serving.cluster",
         "ShardCluster.push"),
    Seam("serving.ingest", "serving", "repro.serving.cluster",
         "ShardCluster.ingest"),
    Seam("serving.query", "serving", "repro.serving.cluster",
         "ShardCluster.query"),
    Seam("serving.flush", "serving", "repro.serving.cluster",
         "ShardCluster.flush"),
    Seam("serving.drain", "serving", "repro.serving.worker",
         "ShardWorker.drain", _shard),
    Seam("serving.worker_flush", "serving", "repro.serving.worker",
         "ShardWorker.flush", _shard),
    Seam("serving.recover", "serving", "repro.serving.worker",
         "ShardWorker.recover", _shard_replayed),
    Seam("serving.stitch", "serving", "repro.serving.sharding",
         "ShardMap.stitch"),
    Seam("serving.admit", "serving", "repro.serving.tenants",
         "TenantGate.admit"),
    Seam("accel.simulate", "accel", "repro.accel.tagnn",
         "TaGNNSimulator.simulate", _cycles),
    Seam("accel.analyze", "accel", "repro.accel.workload",
         "WorkloadStats.analyze"),
)

KERNELS = ("delta-condensed", "batched-spmm", "dense-gemm")

#: (name, unit, better) of every per-layer metric, in report order.
PER_LAYER = (
    ("graphs.apply_events.ms_per_batch", "ms", "lower"),
    ("graphs.apply_events.events_per_s", "1/s", "higher"),
    ("graphs.events_per_batch", "count", "lower"),
    ("graphs.aggregate.ms_per_window", "ms", "lower"),
    ("graphs.aggregate.calls_per_window", "count", "lower"),
    ("analysis.classify.ms_per_window", "ms", "lower"),
    ("analysis.subgraph.ms_per_window", "ms", "lower"),
    ("analysis.unaffected_ratio", "ratio", "higher"),
    ("analysis.similarity.ms_per_window", "ms", "lower"),
    ("models.gnn.ms_per_window", "ms", "lower"),
    ("models.cell.ms_per_window", "ms", "lower"),
    ("skipping.decide.ms_per_window", "ms", "lower"),
    ("skipping.partial_step.ms_per_window", "ms", "lower"),
    ("skipping.skip_share", "ratio", "higher"),
    ("skipping.delta_share", "ratio", "higher"),
    ("skipping.macs_saved_share", "ratio", "higher"),
    ("engine.window.ms", "ms", "lower"),
    ("engine.window.p90_ms", "ms", "lower"),
    ("engine.self.ms_per_window", "ms", "lower"),
    ("engine.macs_per_snapshot", "count", "lower"),
    ("engine.words_per_snapshot", "count", "lower"),
    ("engine.reference.snapshots_per_s", "1/s", "higher"),
    ("engine.speedup_vs_reference", "ratio", "higher"),
    ("adaptive.profile.ms_per_window", "ms", "lower"),
    ("adaptive.plan.ms_per_window", "ms", "lower"),
    ("adaptive.calibrate.ms", "ms", "lower"),
    ("adaptive.probe_windows", "count", "lower"),
    ("adaptive.kernel_switches", "count", "lower"),
    ("adaptive.kernel_share.delta-condensed", "ratio", "higher"),
    ("adaptive.kernel_share.batched-spmm", "ratio", "higher"),
    ("adaptive.kernel_share.dense-gemm", "ratio", "higher"),
    ("adaptive.cost_residual", "ratio", "lower"),
    ("adaptive.max_drift", "ratio", "lower"),
    ("resilience.guard.self_ms_per_batch", "ms", "lower"),
    ("resilience.supervisor.self_ms_per_window", "ms", "lower"),
    ("resilience.checkpoint.save_ms", "ms", "lower"),
    ("resilience.checkpoint.bytes", "B", "lower"),
    ("resilience.checkpoint.load_ms", "ms", "lower"),
    ("resilience.recovery.p50_ms", "ms", "lower"),
    ("resilience.recovery_torn_ms", "ms", "lower"),
    ("resilience.replayed_snapshots_per_recovery", "count", "lower"),
    ("resilience.retries", "count", "lower"),
    ("resilience.torn_skipped", "count", "lower"),
    ("resilience.fallback_windows", "count", "lower"),
    ("serving.push.self_ms_per_window", "ms", "lower"),
    ("serving.stitch.ms_per_window", "ms", "lower"),
    ("serving.admit.us_per_push", "us", "lower"),
    ("serving.query.p50_us", "us", "lower"),
    ("serving.stale_serves", "count", "lower"),
    ("serving.replication_factor", "ratio", "lower"),
    ("serving.shard_busy_max_over_mean", "ratio", "lower"),
    ("serving.boundary_words_per_snapshot", "count", "lower"),
    ("serving.restarts", "count", "lower"),
    ("serving.shed", "count", "lower"),
    ("serving.backlog_max", "count", "lower"),
    ("accel.analyze.ms", "ms", "lower"),
    ("accel.simulate.self_ms", "ms", "lower"),
    ("accel.sim_cycles", "count", "lower"),
    ("trace.overhead_share", "ratio", "lower"),
    ("trace.unattributed_share", "ratio", "lower"),
    ("host.canary_ms", "ms", "lower"),
    ("host.blas_threads", "count", "lower"),
)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans: list[Span], counters: dict) -> dict[str, float]:
    """Per-layer metrics of one traced pass.

    ``counters`` carries what spans cannot: ``windows`` (windows whose
    embeddings reached the caller), ``snapshots`` (released timestamps),
    the merged ``ExecutionMetrics`` as ``exec``, and the per-workload
    extras documented in ``perfbench/README.md``.  A metric whose layer
    did not run on this workload is 0.
    """
    selfs = self_times(spans)
    dur: dict[str, float] = {}
    own: dict[str, float] = {}
    calls: dict[str, int] = {}
    layer_self: dict[str, float] = {}
    by_name: dict[str, list[Span]] = {}
    for span, self_s in zip(spans, selfs):
        by_name.setdefault(span.name, []).append(span)
        dur[span.name] = dur.get(span.name, 0.0) + span.duration
        own[span.name] = own.get(span.name, 0.0) + self_s
        calls[span.name] = calls.get(span.name, 0) + 1
        layer_self[span.layer] = layer_self.get(span.layer, 0.0) + self_s

    def named(name: str) -> list[Span]:
        return by_name.get(name, [])

    windows = counters["windows"]
    snapshots = counters["snapshots"]
    ex = counters["exec"]
    ms = 1e3

    out = dict.fromkeys((name for name, _, _ in PER_LAYER), 0.0)

    # graphs ------------------------------------------------------------
    batches = calls.get("graphs.apply_events", 0)
    events = sum(s.count for s in named("graphs.apply_events"))
    out["graphs.apply_events.ms_per_batch"] = ms * _ratio(
        dur.get("graphs.apply_events", 0.0), batches
    )
    out["graphs.apply_events.events_per_s"] = _ratio(
        events, dur.get("graphs.apply_events", 0.0)
    )
    out["graphs.events_per_batch"] = _ratio(events, batches)
    out["graphs.aggregate.ms_per_window"] = ms * _ratio(
        dur.get("graphs.aggregate", 0.0), windows
    )
    out["graphs.aggregate.calls_per_window"] = _ratio(
        calls.get("graphs.aggregate", 0), windows
    )

    # analysis ----------------------------------------------------------
    for metric, span_name in (
        ("analysis.classify.ms_per_window", "analysis.classify"),
        ("analysis.subgraph.ms_per_window", "analysis.subgraph"),
        ("analysis.similarity.ms_per_window", "analysis.similarity"),
        ("models.gnn.ms_per_window", "models.gnn"),
        ("models.cell.ms_per_window", "models.cell"),
        ("skipping.decide.ms_per_window", "skipping.decide"),
        ("skipping.partial_step.ms_per_window", "skipping.partial_step"),
        ("adaptive.profile.ms_per_window", "adaptive.profile"),
        ("adaptive.plan.ms_per_window", "adaptive.plan"),
        ("serving.stitch.ms_per_window", "serving.stitch"),
    ):
        out[metric] = ms * _ratio(dur.get(span_name, 0.0), windows)
    ratios = [s.count for s in named("analysis.classify") if s.count is not None]
    out["analysis.unaffected_ratio"] = (
        statistics.fmean(ratios) if ratios else 0.0
    )

    # skipping ------------------------------------------------------------
    cells = ex.cells_full + ex.cells_delta + ex.cells_skipped
    out["skipping.skip_share"] = _ratio(ex.cells_skipped, cells)
    out["skipping.delta_share"] = _ratio(ex.cells_delta, cells)
    out["skipping.macs_saved_share"] = _ratio(
        ex.cell_macs_saved, ex.cell_macs + ex.cell_macs_saved
    )

    # engine --------------------------------------------------------------
    completing = [s for s in named("engine.push") if s.count]
    batch_runs = named("engine.concurrent_run")
    engine_windows = len(completing) + sum(s.count or 0 for s in batch_runs)
    out["engine.window.ms"] = ms * _ratio(
        sum(s.duration for s in completing)
        + sum(s.duration for s in batch_runs),
        engine_windows,
    )
    out["engine.window.p90_ms"] = ms * counters.get("window_p90_s", 0.0)
    out["engine.self.ms_per_window"] = ms * _ratio(
        layer_self.get("engine", 0.0), windows
    )
    out["engine.macs_per_snapshot"] = _ratio(
        ex.total_macs, ex.snapshots_processed
    )
    out["engine.words_per_snapshot"] = _ratio(
        ex.total_words, ex.snapshots_processed
    )
    ref_s = dur.get("engine.reference_run", 0.0)
    out["engine.reference.snapshots_per_s"] = _ratio(
        counters.get("reference_snapshots", 0), ref_s
    )
    out["engine.speedup_vs_reference"] = _ratio(
        ref_s, dur.get("engine.concurrent_run", 0.0)
    )

    # adaptive ------------------------------------------------------------
    out["adaptive.calibrate.ms"] = ms * counters.get("calibrate_s", 0.0)
    out["adaptive.probe_windows"] = ex.drift_probes
    out["adaptive.kernel_switches"] = counters.get("kernel_switches", 0)
    kernels = counters.get("kernels", [])
    for kernel in KERNELS:
        out[f"adaptive.kernel_share.{kernel}"] = _ratio(
            kernels.count(kernel), len(kernels)
        )
    residuals = counters.get("cost_residuals", [])
    out["adaptive.cost_residual"] = (
        statistics.median(residuals) if residuals else 0.0
    )
    out["adaptive.max_drift"] = counters.get("max_drift", 0.0)

    # resilience ----------------------------------------------------------
    out["resilience.guard.self_ms_per_batch"] = ms * _ratio(
        own.get("resilience.guard", 0.0)
        + dur.get("resilience.snapshot_violation", 0.0),
        calls.get("resilience.guard", 0),
    )
    engine_under_supervisor = sum(
        s.duration
        for s in named("engine.push")
        if s.parent >= 0 and spans[s.parent].name == "resilience.push"
    )
    out["resilience.supervisor.self_ms_per_window"] = ms * _ratio(
        dur.get("resilience.push", 0.0) - engine_under_supervisor, windows
    )
    out["resilience.checkpoint.save_ms"] = ms * _ratio(
        dur.get("resilience.checkpoint_save", 0.0),
        calls.get("resilience.checkpoint_save", 0),
    )
    written = [
        s.count
        for s in named("resilience.checkpoint_write")
        if s.count is not None
    ]
    out["resilience.checkpoint.bytes"] = (
        statistics.fmean(written) if written else 0.0
    )
    out["resilience.checkpoint.load_ms"] = ms * _ratio(
        dur.get("resilience.checkpoint_load", 0.0),
        calls.get("resilience.checkpoint_load", 0),
    )
    recoveries = counters.get("recovery_s", [])
    out["resilience.recovery.p50_ms"] = (
        ms * statistics.median(recoveries) if recoveries else 0.0
    )
    torn = counters.get("recovery_torn_s", [])
    out["resilience.recovery_torn_ms"] = (
        ms * statistics.median(torn) if torn else 0.0
    )
    recovers = named("serving.recover")
    out["resilience.replayed_snapshots_per_recovery"] = _ratio(
        sum(s.count[1] for s in recovers), len(recovers)
    )
    out["resilience.retries"] = ex.retries
    out["resilience.torn_skipped"] = counters.get("torn_skipped", 0)
    out["resilience.fallback_windows"] = ex.fallback_windows

    # serving -------------------------------------------------------------
    out["serving.push.self_ms_per_window"] = ms * _ratio(
        layer_self.get("serving", 0.0)
        - own.get("serving.stitch", 0.0)
        - own.get("serving.admit", 0.0)
        - own.get("serving.query", 0.0),
        windows,
    )
    out["serving.admit.us_per_push"] = 1e6 * _ratio(
        dur.get("serving.admit", 0.0), calls.get("serving.admit", 0)
    )
    queries = [s.duration for s in named("serving.query")]
    out["serving.query.p50_us"] = (
        1e6 * statistics.median(queries) if queries else 0.0
    )
    out["serving.stale_serves"] = ex.stale_serves
    out["serving.replication_factor"] = counters.get("replication_factor", 0.0)
    busy: dict[int, float] = {}
    for s in spans:
        if s.name in ("serving.drain", "serving.worker_flush"):
            busy[s.count] = busy.get(s.count, 0.0) + s.duration
        elif s.name == "serving.recover":
            busy[s.count[0]] = busy.get(s.count[0], 0.0) + s.duration
    out["serving.shard_busy_max_over_mean"] = (
        _ratio(max(busy.values()), statistics.fmean(busy.values()))
        if busy
        else 0.0
    )
    out["serving.boundary_words_per_snapshot"] = _ratio(
        ex.boundary_words, snapshots
    )
    out["serving.restarts"] = ex.shard_restarts
    out["serving.shed"] = ex.shed_events
    out["serving.backlog_max"] = counters.get("backlog_max", 0)

    # accel ---------------------------------------------------------------
    sims = named("accel.simulate")
    out["accel.analyze.ms"] = ms * _ratio(
        dur.get("accel.analyze", 0.0), calls.get("accel.analyze", 0)
    )
    out["accel.simulate.self_ms"] = ms * _ratio(
        own.get("accel.simulate", 0.0), len(sims)
    )
    out["accel.sim_cycles"] = counters.get("sim_cycles", 0.0)

    # trace / host ----------------------------------------------------------
    out["trace.overhead_share"] = counters.get("overhead_share", 0.0)
    out["trace.unattributed_share"] = _ratio(
        own.get("driver.op", 0.0), dur.get("driver.op", 0.0)
    )
    out["host.canary_ms"] = ms * counters.get("canary_s", 0.0)
    out["host.blas_threads"] = counters.get("blas_threads", 0)
    return out
