"""Unit tests for the ``repro perf`` suite.

Fast by construction: real measurement cells run once on tiny scaled-down
graphs; the full-suite shape and the CLI plumbing are covered with canned
result documents and a monkeypatched ``run_perf``.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from repro.bench.perf import (
    SCHEMA,
    PerfConfig,
    bench_event_application,
    bench_streaming,
    bench_streaming_adaptive,
    render_delta_table,
    render_perf_tables,
    run_perf,
    write_result,
)


def canned_result(speedup=6.0, p50=2.0):
    return {
        "schema": SCHEMA,
        "created_utc": "2026-08-08T12:00:00Z",
        "config": {"smoke": True, "repeats": 1, "seed": 3,
                   "hidden_dim": 32, "window_size": 4},
        "event_application": [
            {
                "dataset": "GT", "scale": 1.0, "num_vertices": 1000,
                "num_edges_snapshot0": 8000, "num_events": 5000,
                "batched_seconds": 0.01, "reference_seconds": 0.01 * speedup,
                "batched_events_per_s": 5000 / 0.01,
                "reference_events_per_s": 5000 / (0.01 * speedup),
                "speedup": speedup,
            }
        ],
        "streaming": [
            {
                "model": "T-GCN", "dataset": "GT", "scale": 1.0,
                "num_vertices": 1000, "window_size": 4,
                "windows_timed": 4, "p50_ms": p50, "p95_ms": p50 * 1.5,
                "best_ms": p50 * 0.8,
            }
        ],
        "peak_rss_kb": 65536,
    }


def canned_adaptive_cell(speedup=1.3, static_p50=2.0):
    return {
        "model": "T-GCN", "dataset": "GT", "scale": 1.0,
        "num_vertices": 1000, "window_size": 4, "windows_timed": 4,
        "static_p50_ms": static_p50, "static_p95_ms": static_p50 * 1.5,
        "adaptive_p50_ms": static_p50 / speedup,
        "adaptive_p95_ms": static_p50 * 1.5 / speedup,
        "adaptive_rep_p50_ms": [static_p50, static_p50 / speedup],
        "speedup_p50": speedup,
        "plan": {
            "kernels": {"batched-spmm": 3, "delta-condensed": 1},
            "thresholds": {"theta_s": -0.65, "theta_e": 0.35},
            "aggressiveness": 0.5,
            "kernel_switches": 2,
            "probes": 2,
            "max_drift": 0.008,
            "drift_budget": 0.02,
            "cost_model": {"table_source": "calibrated"},
        },
    }


class TestPerfConfig:
    def test_defaults(self):
        cfg = PerfConfig()
        assert not cfg.smoke
        assert not cfg.adaptive
        assert cfg.effective_repeats == 7
        assert len(cfg.event_cells) == 3
        assert len(cfg.stream_cells) == 4

    def test_smoke_shrinks_the_grid_and_repeats(self):
        cfg = PerfConfig(smoke=True, repeats=7)
        assert cfg.effective_repeats == 3
        assert len(cfg.event_cells) == 1
        assert len(cfg.stream_cells) == 1

    def test_validation(self):
        with pytest.raises(ValueError, match="repeats"):
            PerfConfig(repeats=0)
        with pytest.raises(ValueError, match="seed"):
            PerfConfig(seed=-1)


class TestMeasurementCells:
    def test_event_application_cell(self):
        cell = bench_event_application("GT", 0.2, 3, repeats=1, seed=3)
        assert cell["dataset"] == "GT"
        assert cell["num_events"] > 0
        assert cell["batched_seconds"] > 0
        assert cell["reference_seconds"] > 0
        assert cell["speedup"] == pytest.approx(
            cell["reference_seconds"] / cell["batched_seconds"]
        )
        assert cell["batched_events_per_s"] > 0

    def test_streaming_cell(self):
        cell = bench_streaming("T-GCN", "GT", 0.2, 4, repeats=1, seed=3)
        assert cell["windows_timed"] == 1  # 4 snapshots / window 4
        assert 0 < cell["best_ms"] <= cell["p50_ms"] <= cell["p95_ms"]

    def test_adaptive_cell(self):
        cell = bench_streaming_adaptive(
            "T-GCN", "GT", 0.2, 4, repeats=2, seed=3
        )
        assert cell["windows_timed"] == 2  # one window per pass, 2 passes
        assert cell["static_p50_ms"] > 0
        assert cell["adaptive_p50_ms"] > 0
        assert cell["speedup_p50"] == pytest.approx(
            cell["static_p50_ms"] / cell["adaptive_p50_ms"]
        )
        assert len(cell["adaptive_rep_p50_ms"]) == 2
        plan = cell["plan"]
        assert sum(plan["kernels"].values()) == 2  # every window planned
        assert plan["drift_budget"] == 0.02
        assert -1.0 <= plan["thresholds"]["theta_s"] <= -0.5
        assert 0.2 <= plan["thresholds"]["theta_e"] <= 0.5
        # the whole cell document must be JSON-archivable
        json.dumps(cell)


class TestResultDocument:
    def test_write_result_round_trips(self, tmp_path):
        result = canned_result()
        path = write_result(result, tmp_path)
        assert path.name == "BENCH_20260808T120000Z.json"
        assert json.loads(path.read_text()) == result

    def test_write_result_creates_missing_directory(self, tmp_path):
        path = write_result(canned_result(), tmp_path / "does" / "not")
        assert path.exists()

    def test_render_tables_mentions_every_cell(self):
        out = render_perf_tables(canned_result())
        assert "GT x1" in out
        assert "T-GCN" in out
        assert "6.0x" in out
        assert "peak RSS: 64.0 MiB" in out
        assert SCHEMA in out

    def test_delta_table_reports_relative_change(self):
        base = canned_result(speedup=6.0, p50=2.0)
        cur = canned_result(speedup=6.0, p50=3.0)
        cur["event_application"][0]["batched_events_per_s"] *= 1.10
        out = render_delta_table(cur, base)
        assert "+10.0%" in out      # throughput up
        assert "+50.0%" in out      # latency up
        assert "report-only" in out

    def test_render_tables_with_adaptive_section(self):
        result = canned_result()
        result["adaptive"] = {
            "calibration": {"source": "calibrated"},
            "cells": [canned_adaptive_cell()],
        }
        out = render_perf_tables(result)
        assert "Adaptive planning" in out
        assert "1.30x" in out
        assert "batched-spmm" in out
        assert "(-0.65,+0.35)" in out

    def test_delta_table_includes_adaptive_vs_static_baseline(self):
        base = canned_result(p50=2.0)
        cur = canned_result(p50=2.0)
        cur["adaptive"] = {
            "calibration": {},
            "cells": [canned_adaptive_cell(speedup=1.25, static_p50=2.0)],
        }
        out = render_delta_table(cur, base)
        assert "adaptive T-GCN/GT p50" in out
        assert "-20.0%" in out  # 2.0ms -> 1.6ms against the baseline row

    def test_delta_table_with_no_overlap(self):
        base = canned_result()
        base["event_application"][0]["dataset"] = "EP"
        base["streaming"][0]["model"] = "GCRN"
        out = render_delta_table(canned_result(), base)
        assert "no overlapping cells" in out


class TestSuite:
    def test_smoke_suite_document_shape(self):
        result = run_perf(PerfConfig(smoke=True, repeats=1))
        assert result["schema"] == SCHEMA
        assert result["config"]["smoke"] is True
        assert len(result["event_application"]) == 1
        assert len(result["streaming"]) == 1
        assert result["peak_rss_kb"] > 0
        # the timestamp doubles as the archive filename stamp
        assert result["created_utc"].endswith("Z")


class TestCli:
    def test_cmd_perf_smoke_no_write(self, capsys, monkeypatch, tmp_path):
        import repro.bench.perf as perf_mod
        from repro.cli import main

        monkeypatch.setattr(
            perf_mod, "run_perf", lambda cfg: canned_result()
        )
        rc = main(["perf", "--smoke", "--no-write"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "Event application" in out
        assert "wrote" not in out

    def test_cmd_perf_writes_and_compares(self, capsys, monkeypatch, tmp_path):
        import repro.bench.perf as perf_mod
        from repro.cli import main

        baseline = tmp_path / "base.json"
        baseline.write_text(json.dumps(canned_result()))
        monkeypatch.setattr(
            perf_mod, "run_perf", lambda cfg: canned_result()
        )
        rc = main([
            "perf", "--smoke", "--out", str(tmp_path),
            "--baseline", str(baseline),
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "Delta vs baseline" in out
        assert (tmp_path / "BENCH_20260808T120000Z.json").exists()

    def test_committed_baseline_with_dropped_plan_keys_still_loads(
        self, capsys, monkeypatch
    ):
        """The archived PR-7 document carries the ``storages`` /
        ``partition`` plan keys this suite no longer writes; it must
        stay usable as ``--baseline`` and renderable on its own."""
        import repro.bench.perf as perf_mod
        from repro.cli import main

        baseline = (
            Path(__file__).parents[2] / "BENCH_20260809T004858Z.json"
        )
        archived = json.loads(baseline.read_text())
        plan = archived["adaptive"]["cells"][0]["plan"]
        assert "storages" in plan and "partition" in plan
        assert "Adaptive planning" in render_perf_tables(archived)

        current = canned_result()
        current["streaming"][0]["model"] = "CD-GCN"
        cell = canned_adaptive_cell()
        cell["model"] = "CD-GCN"
        current["adaptive"] = {"calibration": {}, "cells": [cell]}
        monkeypatch.setattr(perf_mod, "run_perf", lambda cfg: current)
        rc = main(
            ["perf", "--smoke", "--no-write", "--baseline", str(baseline)]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "Delta vs baseline" in out
        assert "adaptive CD-GCN/GT p50" in out
