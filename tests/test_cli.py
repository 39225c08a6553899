"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_defaults(self):
        args = build_parser().parse_args(["simulate"])
        assert args.dataset == "GT"
        assert args.model == "T-GCN"
        assert args.dcus == 16
        assert args.macs == 4096

    def test_flags(self):
        args = build_parser().parse_args(
            ["simulate", "--no-oadl", "--dcus", "8", "--dataset", "ML"]
        )
        assert args.no_oadl and not args.no_adsc
        assert args.dcus == 8 and args.dataset == "ML"


class TestCommands:
    def test_datasets(self, capsys):
        assert main(["datasets"]) == 0
        out = capsys.readouterr().out
        assert "HepPh" in out and "Flicker" in out

    def test_classify(self, capsys):
        assert main(["classify", "--dataset", "GT", "--snapshots", "4"]) == 0
        out = capsys.readouterr().out
        assert "unaffected" in out and "affected subgraph" in out

    def test_simulate(self, capsys):
        assert main(
            ["simulate", "--dataset", "GT", "--snapshots", "4",
             "--model", "T-GCN"]
        ) == 0
        out = capsys.readouterr().out
        assert "latency" in out and "breakdown" in out

    def test_simulate_ablated(self, capsys):
        assert main(
            ["simulate", "--dataset", "GT", "--snapshots", "4", "--no-adsc"]
        ) == 0
        assert "skip ratio 0.00" in capsys.readouterr().out

    def test_compare(self, capsys):
        assert main(["compare", "--dataset", "GT", "--snapshots", "4"]) == 0
        out = capsys.readouterr().out
        for name in ("DGNN-Booster", "E-DGCN", "Cambricon-DG", "DGL-CPU",
                     "PiPAD", "TaGNN-S", "TaGNN"):
            assert name in out

    def test_accuracy(self, capsys):
        assert main(["accuracy", "--dataset", "GT", "--snapshots", "6"]) == 0
        out = capsys.readouterr().out
        assert "exact inference" in out and "with skipping" in out

    def test_evolvegcn_via_cli(self, capsys):
        assert main(
            ["simulate", "--dataset", "GT", "--snapshots", "4",
             "--model", "EvolveGCN"]
        ) == 0
        assert "latency" in capsys.readouterr().out


class TestPlan:
    def test_plan_summary(self, capsys):
        assert main(["plan", "--dataset", "GT", "--snapshots", "8",
                     "--repeats", "1"]) == 0
        out = capsys.readouterr().out
        assert "windows planned" in out
        assert "thresholds:" in out
        assert "probes:" in out

    def test_plan_explain(self, capsys):
        assert main(["plan", "--dataset", "GT", "--snapshots", "8",
                     "--repeats", "2", "--explain"]) == 0
        out = capsys.readouterr().out
        assert "window   0" in out
        assert "latest plan:" in out
        assert "kernel switches:" in out

    def test_parser_defaults(self):
        args = build_parser().parse_args(["plan"])
        assert args.model == "T-GCN"
        assert args.repeats == 2
        assert not args.explain
        assert not hasattr(args, "calibrate")


class TestStats:
    def test_stats(self, capsys):
        assert main(["stats", "--dataset", "GT", "--snapshots", "4"]) == 0
        out = capsys.readouterr().out
        assert "temporal profile" in out
        assert "unaffected ratio" in out


class TestGenerate:
    def test_generate_writes_archive(self, tmp_path, capsys):
        out = str(tmp_path / "gt.npz")
        assert main(
            ["generate", "--dataset", "GT", "--snapshots", "3", "--out", out]
        ) == 0
        from repro.graphs import load_dynamic_graph

        g = load_dynamic_graph(out)
        assert g.num_snapshots == 3
        assert "wrote" in capsys.readouterr().out


class TestChaosCluster:
    def test_parser_defaults(self):
        args = build_parser().parse_args(["chaos"])
        assert not args.cluster and not args.smoke
        assert args.shards == 4 and args.tenants == 1
        assert args.report_out is None and args.dlq_out is None

    def test_cluster_smoke_writes_artifacts(self, tmp_path, capsys):
        import json

        report = str(tmp_path / "campaign.json")
        capture = str(tmp_path / "dlq.npz")
        assert main(
            ["chaos", "--cluster", "--smoke", "--shards", "2",
             "--window", "2", "--report-out", report, "--dlq-out", capture]
        ) == 0
        out = capsys.readouterr().out
        assert "cluster chaos campaign report" in out
        assert "bit-identical       : yes" in out
        with open(report) as fh:
            blob = json.load(fh)
        assert blob["identical"] is True and blob["lost"] == 0
        from repro.resilience import DeadLetterQueue

        DeadLetterQueue.load(capture)  # round-trips

    def test_stream_smoke_writes_artifacts(self, tmp_path, capsys):
        import json

        report = str(tmp_path / "stream.json")
        capture = str(tmp_path / "dlq.npz")
        assert main(
            ["chaos", "--smoke", "--report-out", report, "--dlq-out", capture]
        ) == 0
        out = capsys.readouterr().out
        assert "stream faults" in out
        assert "bit-identical       : yes" in out
        with open(report) as fh:
            blob = json.load(fh)
        assert blob["identical"] is True and blob["lost"] == 0
        assert blob["plan_counts"]["sanitizer_violation"] == 1
        assert len(blob["retry_delays"]) == blob["metrics"]["retries"] == 1
        from repro.resilience import DeadLetterQueue

        assert len(DeadLetterQueue.load(capture)) == blob["dead_letters"] > 0


class TestDlq:
    def _capture(self, tmp_path):
        import numpy as np

        from repro.graphs import load_dataset
        from repro.graphs.updates import UpdateEvent, UpdateKind
        from repro.resilience import DeadLetterQueue, GuardedIngest

        g = load_dataset("GT", num_snapshots=4, seed=3)
        dlq = DeadLetterQueue()
        guard = GuardedIngest(dlq=dlq)
        poison = UpdateEvent(
            UpdateKind.FEATURE_UPDATE, 0,
            np.full(g.dim, np.nan, dtype=np.float32),
        )
        guard.apply(g[0], [poison], step=1)
        path = tmp_path / "capture.npz"
        dlq.save(path)
        return str(path), g

    def test_inspect(self, tmp_path, capsys):
        path, _ = self._capture(tmp_path)
        assert main(["dlq", path]) == 0
        out = capsys.readouterr().out
        assert "1 dead letters" in out
        assert "non-finite" in out

    def test_redrain_writes_remainder(self, tmp_path, capsys):
        path, _ = self._capture(tmp_path)
        remainder = str(tmp_path / "remainder.npz")
        assert main(
            ["dlq", path, "--snapshots", "4", "--redrain",
             "--out", remainder]
        ) == 0
        out = capsys.readouterr().out
        assert "0 readmitted" in out and "1 still poison" in out
        from repro.resilience import DeadLetterQueue

        assert len(DeadLetterQueue.load(remainder)) == 1
