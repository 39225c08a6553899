"""Tests for seeded chaos campaigns — the sharding chaos proof."""

import json

import pytest

from repro.graphs import load_dataset
from repro.models import make_model
from repro.resilience import SHARD_FAULTS, FaultKind, FaultPlan, FaultSpec
from repro.serving import ChaosReport, run_chaos_campaign

WINDOW = 3
SEED = 3
SHARDS = 4
DIM = 32


@pytest.fixture(scope="module")
def graph():
    return load_dataset("GT", scale=0.05, num_snapshots=6, seed=SEED)


@pytest.fixture(scope="module")
def graph_b():
    return load_dataset("GT", scale=0.05, num_snapshots=6, seed=SEED + 1)


def factory():
    return make_model("T-GCN", DIM, 8, seed=SEED)


@pytest.fixture(scope="module")
def plan(graph):
    return FaultPlan.generate_cluster(
        seed=7, num_steps=graph.num_snapshots, num_shards=SHARDS
    )


@pytest.fixture(scope="module")
def report(graph, graph_b, plan):
    return run_chaos_campaign(
        factory,
        {"a": graph, "b": graph_b},
        plan,
        num_shards=SHARDS,
        window_size=WINDOW,
        seed=SEED,
    )


class TestClusterCampaign:
    def test_every_shard_gets_every_fault_kind(self, plan):
        assert len(plan) == SHARDS * len(SHARD_FAULTS)
        assert plan.shards_touched() == frozenset(range(SHARDS))

    def test_bit_identical_with_zero_loss(self, report):
        assert report.identical
        assert report.lost == 0
        for name in report.tenants:
            assert len(report.outputs[name]) == report.admitted[name]

    def test_every_shard_was_restarted(self, report):
        # crash/stall/torn faults hit every shard at least once, so
        # every shard must appear in the recovery log
        assert report.restarted_shards == list(range(SHARDS))
        assert report.restarts >= SHARDS

    def test_every_recovery_is_a_structured_incident(self, report):
        restarted = [
            inc for inc in report.incidents if inc.action == "restarted"
        ]
        assert len(restarted) >= report.restarts
        for inc in restarted:
            assert 0 <= inc.shard < SHARDS
            assert inc.tenant in report.tenants
            assert inc.kind in ("worker-crash", "worker-stall")
            assert "resumed from" in inc.detail

    def test_torn_checkpoints_surface_as_rollbacks(self, report, plan):
        assert any(
            spec.kind is FaultKind.TORN_CHECKPOINT for spec in plan.specs
        )
        torn = [
            inc for inc in report.incidents
            if inc.kind == "torn-checkpoint"
        ]
        assert torn
        for inc in torn:
            assert inc.action in ("rolled-back", "cold-start")

    def test_metrics_aggregate_recovery_work(self, report):
        m = report.metrics
        assert m.shard_restarts == report.restarts
        assert m.restores >= 1
        assert m.incidents >= len(report.incidents)

    def test_shard_summaries_cover_every_shard(self, report, graph):
        assert [s["shard"] for s in report.shard_summaries] == list(
            range(SHARDS)
        )
        owned = sum(s["owned_vertices"] for s in report.shard_summaries)
        assert owned == graph.num_vertices

    def test_summary_is_operator_readable(self, report):
        text = report.summary()
        assert "bit-identical       : yes" in text
        assert "lost (non-DLQ)      : 0" in text
        assert "incident log:" in text

    def test_report_json_round_trips(self, report):
        blob = json.dumps(report.to_json(), sort_keys=True)
        back = json.loads(blob)
        assert back["identical"] is True
        assert back["lost"] == 0
        assert back["restarted_shards"] == list(range(SHARDS))
        assert len(back["incidents"]) == len(report.incidents)

    def test_campaign_is_deterministic(self, graph, plan, report):
        again = run_chaos_campaign(
            factory,
            {"a": graph},
            plan,
            num_shards=SHARDS,
            window_size=WINDOW,
            seed=SEED,
        )
        assert again.identical
        assert again.restarted_shards == report.restarted_shards

    def test_single_graph_wraps_to_one_tenant(self, graph, plan):
        got = run_chaos_campaign(
            factory, graph, plan, num_shards=SHARDS,
            window_size=WINDOW, seed=SEED,
        )
        assert got.tenants == ["tenant-0"]
        assert got.identical

    def test_report_validation(self):
        with pytest.raises(ValueError):
            ChaosReport(lost=-1)
        with pytest.raises(ValueError):
            ChaosReport(restarts=-1)


class TestStreamPlans:
    """Stream-fault plans on 1 and 4 shards: every shard degrades the
    faulted window, and the oracle degrades it too."""

    @pytest.mark.parametrize("shards", [1, SHARDS])
    def test_engine_faults_stay_bit_identical(self, graph, shards):
        for fault_seed in range(12):
            plan = FaultPlan.generate(
                seed=fault_seed, num_steps=graph.num_snapshots
            )
            report = run_chaos_campaign(
                factory, graph, plan, num_shards=shards,
                window_size=WINDOW, seed=SEED,
            )
            assert report.identical, f"fault seed {fault_seed}"
            n_engine = plan.counts()[FaultKind.SANITIZER_VIOLATION.value]
            assert report.metrics.fallback_windows == shards * n_engine

    def test_engine_and_shard_faults_do_not_mix(self, graph):
        plan = FaultPlan(
            [
                FaultSpec(FaultKind.SANITIZER_VIOLATION, 2),
                FaultSpec(FaultKind.WORKER_CRASH, 3, 0),
            ]
        )
        with pytest.raises(ValueError, match="not both"):
            run_chaos_campaign(factory, graph, plan, num_shards=SHARDS)
