"""``repro perf`` — the repeatable hot-path performance suite.

Measures the three costs the vectorisation work targets and archives
them in a schema-versioned ``BENCH_<timestamp>.json`` at the repo root
so regressions show up as a diffable artefact:

* **event application** — events/s of the batched
  :func:`~repro.graphs.updates.apply_events` fast path against the
  retained per-event reference replay, per generator dataset (the
  headline cell is a 10k-vertex graph where the batch kernel must hold
  a >=5x advantage);
* **streaming window latency** — wall-clock p50/p95 of one
  :class:`~repro.engine.streaming.StreamingInference` window across the
  model zoo;
* **adaptive planning** (opt-in, ``--adaptive``) — the same streaming
  cells run twice: once static (PR-6 configuration) and once under a
  shared :class:`~repro.adaptive.AdaptivePlanner` whose cost model is
  calibrated on this machine and refined across repeats, with the plan
  decisions (kernel histogram, tuned thresholds, probed drift) archived
  next to the latencies;
* **peak RSS** — high-water memory of the whole run.

Methodology (see docs/performance.md): container wall-clocks are noisy,
so throughput cells take the *best* of ``repeats`` timed passes (the
least-perturbed run bounds the machine's true speed) and latency
percentiles pool every window across all passes.  All workloads are
seeded generator datasets — numbers are comparable across runs on the
same machine, not across machines.

Wall-clock use is deliberate and confined to this module: ``bench/`` is
outside the R001 determinism paths — simulator results stay
clock-free; only the *measurement* of the software kernels needs real
time.
"""

from __future__ import annotations

import json
import resource
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ..graphs import load_dataset
from ..graphs.updates import apply_events, apply_events_reference, event_stream
from ..models import make_model
from .report import render_table

__all__ = [
    "EVENT_CELLS",
    "EVENT_CELLS_SMOKE",
    "PerfConfig",
    "SCHEMA",
    "STREAM_CELLS",
    "STREAM_CELLS_SMOKE",
    "bench_event_application",
    "bench_streaming",
    "bench_streaming_adaptive",
    "render_delta_table",
    "render_perf_tables",
    "run_perf",
    "write_result",
]

SCHEMA = "repro-perf/2"

#: (dataset, scale, snapshots) cells for the event-application bench.
#: FK at scale 2.5 is the 10k-vertex headline graph of the acceptance
#: criterion.
EVENT_CELLS = (
    ("GT", 1.0, 4),
    ("FK", 1.0, 4),
    ("FK", 2.5, 4),
)
#: Smoke cells keep the full-suite (dataset, scale) keys so the CI delta
#: table overlaps the committed baseline; fewer snapshots keep them fast.
EVENT_CELLS_SMOKE = (("GT", 1.0, 3),)

#: (model, dataset, scale, snapshots) cells for the streaming bench.
STREAM_CELLS = (
    ("CD-GCN", "GT", 1.0, 16),
    ("GC-LSTM", "GT", 1.0, 16),
    ("T-GCN", "GT", 1.0, 16),
    ("T-GCN", "FK", 1.0, 16),
)
STREAM_CELLS_SMOKE = (("T-GCN", "GT", 1.0, 8),)

_SEED = 3
_HIDDEN = 32
_WINDOW = 4


@dataclass(frozen=True)
class PerfConfig:
    """Suite shape: full (default) or the CI smoke subset."""

    smoke: bool = False
    repeats: int = 7
    seed: int = _SEED
    #: also run the static-vs-adaptive streaming comparison (slower: each
    #: streaming cell executes twice plus one calibration pass)
    adaptive: bool = False

    def __post_init__(self) -> None:
        if self.repeats < 1:
            raise ValueError(f"repeats must be >= 1, got {self.repeats}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")

    @property
    def event_cells(self):
        return EVENT_CELLS_SMOKE if self.smoke else EVENT_CELLS

    @property
    def stream_cells(self):
        return STREAM_CELLS_SMOKE if self.smoke else STREAM_CELLS

    @property
    def effective_repeats(self) -> int:
        return min(self.repeats, 3) if self.smoke else self.repeats


# ----------------------------------------------------------------------
# measurement primitives
# ----------------------------------------------------------------------
def _best_seconds(fn, repeats: int) -> float:
    """Wall-clock of the fastest of ``repeats`` calls to ``fn``."""
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def _percentile(samples: list[float], q: float) -> float:
    return float(np.percentile(np.asarray(samples, dtype=np.float64), q))


# ----------------------------------------------------------------------
# event-application throughput
# ----------------------------------------------------------------------
def bench_event_application(
    dataset: str, scale: float, snapshots: int, *, repeats: int, seed: int
) -> dict:
    """Batched vs per-event replay over every consecutive snapshot pair."""
    graph = load_dataset(
        dataset, scale=scale, num_snapshots=snapshots, seed=seed
    )
    streams = event_stream(graph)
    pairs = [(graph[t], streams[t]) for t in range(len(streams))]
    num_events = sum(len(ev) for _, ev in pairs)

    def run_batched():
        for snap, events in pairs:
            apply_events(snap, events)

    def run_reference():
        for snap, events in pairs:
            apply_events_reference(snap, events)

    # one warm pass apiece keeps allocator/caching effects out of rep 1
    run_batched()
    run_reference()
    t_batched = _best_seconds(run_batched, repeats)
    t_reference = _best_seconds(run_reference, repeats)
    return {
        "dataset": dataset,
        "scale": scale,
        "num_vertices": int(graph.num_vertices),
        "num_edges_snapshot0": int(graph[0].num_edges),
        "num_events": int(num_events),
        "batched_seconds": t_batched,
        "reference_seconds": t_reference,
        "batched_events_per_s": num_events / t_batched if t_batched else 0.0,
        "reference_events_per_s": (
            num_events / t_reference if t_reference else 0.0
        ),
        "speedup": t_reference / t_batched if t_batched else 0.0,
    }


# ----------------------------------------------------------------------
# streaming window latency
# ----------------------------------------------------------------------
def _timed_stream(model, graph, planner=None) -> list[float]:
    """Window latencies of one full pass of ``graph`` through a fresh
    :class:`StreamingInference` (optionally planner-driven)."""
    from ..engine.streaming import StreamingInference

    stream = StreamingInference(model, window_size=_WINDOW, planner=planner)
    latencies: list[float] = []
    for snap in graph:
        t0 = time.perf_counter()
        result = stream.push(snap)
        dt = time.perf_counter() - t0
        if result is not None:  # this push completed a window
            latencies.append(dt)
    t0 = time.perf_counter()
    if stream.flush() is not None:
        latencies.append(time.perf_counter() - t0)
    return latencies


def bench_streaming(
    model_name: str,
    dataset: str,
    scale: float,
    snapshots: int,
    *,
    repeats: int,
    seed: int,
) -> dict:
    """p50/p95 wall-clock of one streaming window, pooled over repeats."""
    graph = load_dataset(
        dataset, scale=scale, num_snapshots=snapshots, seed=seed
    )
    model = make_model(model_name, graph.dim, _HIDDEN, seed=seed)
    latencies: list[float] = []
    for _ in range(repeats):
        latencies.extend(_timed_stream(model, graph))
    return {
        "model": model_name,
        "dataset": dataset,
        "scale": scale,
        "num_vertices": int(graph.num_vertices),
        "window_size": _WINDOW,
        "windows_timed": len(latencies),
        "p50_ms": _percentile(latencies, 50) * 1e3,
        "p95_ms": _percentile(latencies, 95) * 1e3,
        "best_ms": min(latencies) * 1e3,
    }


# ----------------------------------------------------------------------
# adaptive vs static streaming
# ----------------------------------------------------------------------
def bench_streaming_adaptive(
    model_name: str,
    dataset: str,
    scale: float,
    snapshots: int,
    *,
    repeats: int,
    seed: int,
    table=None,
) -> dict:
    """Same-run static-vs-adaptive comparison of one streaming cell.

    The static side is the PR-6 configuration (delta-condensed kernel,
    default thresholds); the adaptive side shares one
    :class:`AdaptivePlanner` across all repeats so its EWMA cost model
    and threshold controller converge the way a long-lived stream
    would.  ``table`` is an optional pre-computed
    :class:`CalibrationTable` (the suite calibrates once and reuses it
    for every cell).
    """
    from ..adaptive import AdaptivePlanner, CostModel

    graph = load_dataset(
        dataset, scale=scale, num_snapshots=snapshots, seed=seed
    )
    model = make_model(model_name, graph.dim, _HIDDEN, seed=seed)

    static: list[float] = []
    for _ in range(repeats):
        static.extend(_timed_stream(model, graph))

    planner = AdaptivePlanner(cost_model=CostModel(table))
    adaptive: list[float] = []
    rep_p50_ms: list[float] = []
    for _ in range(repeats):
        lats = _timed_stream(model, graph, planner=planner)
        adaptive.extend(lats)
        rep_p50_ms.append(_percentile(lats, 50) * 1e3)

    kernels: dict[str, int] = {}
    for rec in planner.records:
        kernels[rec.plan.kernel.value] = kernels.get(rec.plan.kernel.value, 0) + 1
    thr = planner.thresholds()
    static_p50 = _percentile(static, 50)
    adaptive_p50 = _percentile(adaptive, 50)
    return {
        "model": model_name,
        "dataset": dataset,
        "scale": scale,
        "num_vertices": int(graph.num_vertices),
        "window_size": _WINDOW,
        "windows_timed": len(adaptive),
        "static_p50_ms": static_p50 * 1e3,
        "static_p95_ms": _percentile(static, 95) * 1e3,
        "adaptive_p50_ms": adaptive_p50 * 1e3,
        "adaptive_p95_ms": _percentile(adaptive, 95) * 1e3,
        #: per-repeat trajectory — shows the convergence, not just the pool
        "adaptive_rep_p50_ms": rep_p50_ms,
        "speedup_p50": static_p50 / adaptive_p50 if adaptive_p50 else 0.0,
        "plan": {
            "kernels": kernels,
            "thresholds": {"theta_s": thr.theta_s, "theta_e": thr.theta_e},
            "aggressiveness": planner.aggressiveness,
            "kernel_switches": planner.kernel_switches,
            "probes": planner.probes_done,
            "max_drift": planner.max_observed_drift,
            "drift_budget": planner.config.drift_budget,
            "cost_model": planner.cost_model.snapshot(),
        },
    }


# ----------------------------------------------------------------------
# the suite
# ----------------------------------------------------------------------
def run_perf(config: PerfConfig | None = None) -> dict:
    """Run the full (or smoke) suite and return the result document."""
    config = config if config is not None else PerfConfig()
    reps = config.effective_repeats
    events = [
        bench_event_application(
            ds, scale, snaps, repeats=reps, seed=config.seed
        )
        for ds, scale, snaps in config.event_cells
    ]
    streaming = [
        bench_streaming(
            model, ds, scale, snaps, repeats=reps, seed=config.seed
        )
        for model, ds, scale, snaps in config.stream_cells
    ]
    result = {
        "schema": SCHEMA,
        "created_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "config": {
            "smoke": config.smoke,
            "repeats": reps,
            "seed": config.seed,
            "hidden_dim": _HIDDEN,
            "window_size": _WINDOW,
            "adaptive": config.adaptive,
        },
        "event_application": events,
        "streaming": streaming,
    }
    if config.adaptive:
        from dataclasses import asdict

        from ..adaptive import calibrate_cost_model

        table = calibrate_cost_model(seed=config.seed)
        result["adaptive"] = {
            "calibration": asdict(table),
            "cells": [
                bench_streaming_adaptive(
                    model,
                    ds,
                    scale,
                    snaps,
                    repeats=reps,
                    seed=config.seed,
                    table=table,
                )
                for model, ds, scale, snaps in config.stream_cells
            ],
        }
    result["peak_rss_kb"] = int(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    )
    return result


def write_result(result: dict, out_dir: Path | str = ".") -> Path:
    """Archive ``result`` as ``BENCH_<timestamp>.json`` under ``out_dir``."""
    stamp = result["created_utc"].replace("-", "").replace(":", "")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    path = out / f"BENCH_{stamp}.json"
    path.write_text(json.dumps(result, indent=2, sort_keys=True) + "\n")
    return path


# ----------------------------------------------------------------------
# rendering
# ----------------------------------------------------------------------
def render_perf_tables(result: dict) -> str:
    """Human-readable tables for one result document."""
    ev_rows = [
        [
            f"{e['dataset']} x{e['scale']:g}",
            f"{e['num_vertices']:,}",
            f"{e['num_events']:,}",
            f"{e['reference_events_per_s']:,.0f}",
            f"{e['batched_events_per_s']:,.0f}",
            f"{e['speedup']:.1f}x",
        ]
        for e in result["event_application"]
    ]
    st_rows = [
        [
            s["model"],
            f"{s['dataset']} x{s['scale']:g}",
            s["windows_timed"],
            f"{s['p50_ms']:.2f}",
            f"{s['p95_ms']:.2f}",
        ]
        for s in result["streaming"]
    ]
    parts = [
        render_table(
            "Event application (best-of-N)",
            ["cell", "#V", "#events", "ref ev/s", "batched ev/s", "speedup"],
            ev_rows,
        ),
        render_table(
            "Streaming window latency",
            ["model", "cell", "windows", "p50 (ms)", "p95 (ms)"],
            st_rows,
        ),
    ]
    if "adaptive" in result:
        ad_rows = []
        for a in result["adaptive"]["cells"]:
            plan = a["plan"]
            kernel = (
                max(plan["kernels"], key=plan["kernels"].get)
                if plan["kernels"]
                else "?"
            )
            ad_rows.append(
                [
                    a["model"],
                    f"{a['dataset']} x{a['scale']:g}",
                    f"{a['static_p50_ms']:.2f}",
                    f"{a['adaptive_p50_ms']:.2f}",
                    f"{a['speedup_p50']:.2f}x",
                    kernel,
                    f"({plan['thresholds']['theta_s']:+.2f},"
                    f"{plan['thresholds']['theta_e']:+.2f})",
                    f"{plan['max_drift']:.4f}",
                ]
            )
        parts.append(
            render_table(
                "Adaptive planning (static vs planner-driven streaming)",
                [
                    "model",
                    "cell",
                    "static p50",
                    "adaptive p50",
                    "speedup",
                    "top kernel",
                    "theta",
                    "drift",
                ],
                ad_rows,
            )
        )
    parts.append(
        f"peak RSS: {result['peak_rss_kb'] / 1024:.1f} MiB"
        f"  (schema {result['schema']}, created {result['created_utc']})\n"
    )
    return "\n".join(parts)


def render_delta_table(current: dict, baseline: dict) -> str:
    """Report-only comparison of two result documents (keyed by cell)."""

    def ev_key(e):
        return (e["dataset"], e["scale"])

    def st_key(s):
        return (s["model"], s["dataset"], s["scale"])

    base_ev = {ev_key(e): e for e in baseline.get("event_application", [])}
    base_st = {st_key(s): s for s in baseline.get("streaming", [])}
    rows = []
    for e in current["event_application"]:
        b = base_ev.get(ev_key(e))
        if b is None:
            continue
        cur, old = e["batched_events_per_s"], b["batched_events_per_s"]
        rows.append(
            [
                f"events {e['dataset']} x{e['scale']:g}",
                f"{old:,.0f}",
                f"{cur:,.0f}",
                f"{100.0 * (cur - old) / old:+.1f}%" if old else "n/a",
            ]
        )
    for s in current["streaming"]:
        b = base_st.get(st_key(s))
        if b is None:
            continue
        cur, old = s["p50_ms"], b["p50_ms"]
        rows.append(
            [
                f"stream {s['model']}/{s['dataset']} p50",
                f"{old:.2f}ms",
                f"{cur:.2f}ms",
                f"{100.0 * (cur - old) / old:+.1f}%" if old else "n/a",
            ]
        )
    # adaptive cells compare against the *baseline's static* streaming
    # rows: the planner's promise is to match-or-beat the PR-6 pipeline.
    for a in current.get("adaptive", {}).get("cells", []):
        b = base_st.get(st_key(a))
        if b is None:
            continue
        cur, old = a["adaptive_p50_ms"], b["p50_ms"]
        rows.append(
            [
                f"adaptive {a['model']}/{a['dataset']} p50",
                f"{old:.2f}ms",
                f"{cur:.2f}ms",
                f"{100.0 * (cur - old) / old:+.1f}%" if old else "n/a",
            ]
        )
    if not rows:
        return "no overlapping cells between current run and baseline\n"
    return render_table(
        "Delta vs baseline (report-only; wall-clock is machine-dependent)",
        ["cell", "baseline", "current", "delta"],
        rows,
    )
