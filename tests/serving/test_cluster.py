"""Tests for the supervised shard cluster: identity, recovery, shedding."""

import io
import zipfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import StreamingInference
from repro.graphs import load_dataset
from repro.models import make_model
from repro.serving import ShardCluster

WINDOW = 3
SEED = 3
SHARDS = 4


@pytest.fixture(scope="module")
def graph():
    return load_dataset("GT", scale=0.05, num_snapshots=6, seed=SEED)


@pytest.fixture(scope="module")
def graph_b():
    return load_dataset("GT", scale=0.05, num_snapshots=6, seed=SEED + 1)


DIM = 32  # GT's feature width (asserted below)


def factory():
    return make_model("T-GCN", DIM, 8, seed=SEED)


def test_fixture_geometry(graph, graph_b):
    assert graph.dim == DIM and graph_b.dim == DIM


def reference_outputs(graph):
    stream = StreamingInference(
        factory(), window_size=WINDOW, enable_skipping=True
    )
    outputs = []
    for snap in graph:
        result = stream.push(snap.copy())
        if result is not None:
            outputs.extend(result.outputs)
    result = stream.flush()
    if result is not None:
        outputs.extend(result.outputs)
    return outputs


def serve(cluster, tenant, graph):
    cluster.register_tenant(tenant)
    for snap in graph:
        cluster.push(tenant, snap.copy())
    cluster.flush(tenant)
    return cluster.released(tenant)


def deflated(blob: bytes) -> bytes:
    """Re-encode a checkpoint archive the way the writer did before it
    stored its members (``np.savez_compressed``)."""
    buf = io.BytesIO()
    with np.load(io.BytesIO(blob)) as data:
        np.savez_compressed(buf, **data)
    with zipfile.ZipFile(buf) as zf:
        assert all(
            i.compress_type == zipfile.ZIP_DEFLATED for i in zf.infolist()
        )
    return buf.getvalue()


def assert_identical(got, expected):
    assert len(got) == len(expected)
    for a, b in zip(got, expected):
        assert np.array_equal(a, b)


class TestNoFaultServing:
    def test_bit_identical_to_unsharded(self, graph):
        cluster = ShardCluster(
            factory, num_shards=SHARDS, window_size=WINDOW, seed=SEED
        )
        got = serve(cluster, "t0", graph)
        assert_identical(got, reference_outputs(graph))
        assert cluster.supervisor.restarts == 0
        assert cluster.metrics.shard_restarts == 0

    def test_single_shard_degenerate_case(self, graph):
        cluster = ShardCluster(
            factory, num_shards=1, window_size=WINDOW, seed=SEED
        )
        got = serve(cluster, "t0", graph)
        assert_identical(got, reference_outputs(graph))

    def test_boundary_words_accounted(self, graph):
        cluster = ShardCluster(
            factory, num_shards=SHARDS, window_size=WINDOW, seed=SEED
        )
        serve(cluster, "t0", graph)
        m = cluster.metrics
        if cluster.shard_map.cut_edges:
            assert m.boundary_words > 0

    def test_per_shard_metrics_trajectories(self, graph):
        cluster = ShardCluster(
            factory, num_shards=SHARDS, window_size=WINDOW, seed=SEED
        )
        serve(cluster, "t0", graph)
        per_shard = cluster.shard_metrics()
        assert len(per_shard) == SHARDS
        for m in per_shard:
            assert m.snapshots_processed == graph.num_snapshots


class TestRecovery:
    def test_crash_recovery_is_bit_identical(self, graph):
        cluster = ShardCluster(
            factory, num_shards=SHARDS, window_size=WINDOW,
            heartbeat_timeout=1, seed=SEED,
        )
        cluster.register_tenant("t0")
        for t, snap in enumerate(graph):
            if t == 3:
                cluster.workers[1].crash()
            cluster.push("t0", snap.copy())
        cluster.flush("t0")
        assert_identical(cluster.released("t0"), reference_outputs(graph))
        assert cluster.supervisor.restarts >= 1
        kinds = {inc.kind for inc in cluster.incidents}
        assert "worker-crash" in kinds
        restarted = [i for i in cluster.incidents if i.action == "restarted"]
        assert all(i.shard == 1 for i in restarted)
        assert all(i.tenant == "t0" for i in restarted)

    def test_recovers_from_parent_format_checkpoints(self, graph):
        """A shard whose store holds deflated archives — what the writer
        produced before it stored its members — recovers from them."""
        cluster = ShardCluster(
            factory, num_shards=SHARDS, window_size=WINDOW,
            heartbeat_timeout=1, seed=SEED,
        )
        cluster.register_tenant("t0")
        for t, snap in enumerate(graph):
            if t == 4:
                blobs = cluster.workers[1].stores["t0"]._blobs
                assert blobs
                for key in blobs:
                    blobs[key] = deflated(blobs[key])
                cluster.workers[1].crash()
            cluster.push("t0", snap.copy())
        cluster.flush("t0")
        assert_identical(cluster.released("t0"), reference_outputs(graph))
        restarted = [i for i in cluster.incidents if i.action == "restarted"]
        assert restarted and all(
            "resumed from ckpt-" in i.detail for i in restarted
        )

    def test_stall_recovery_is_bit_identical(self, graph):
        cluster = ShardCluster(
            factory, num_shards=SHARDS, window_size=WINDOW,
            heartbeat_timeout=1, seed=SEED,
        )
        cluster.register_tenant("t0")
        for t, snap in enumerate(graph):
            if t == 2:
                cluster.workers[2].stall()
            cluster.push("t0", snap.copy())
        cluster.flush("t0")
        assert_identical(cluster.released("t0"), reference_outputs(graph))
        kinds = {inc.kind for inc in cluster.incidents}
        assert "worker-stall" in kinds

    def test_torn_checkpoint_rolls_back(self, graph):
        cluster = ShardCluster(
            factory, num_shards=SHARDS, window_size=2,
            heartbeat_timeout=1, seed=SEED,
        )
        cluster.register_tenant("t0")
        for t, snap in enumerate(graph):
            if t == 5:
                cluster.workers[0].tear_checkpoints()
                cluster.workers[0].crash()
            cluster.push("t0", snap.copy())
        cluster.flush("t0")
        expected = []
        ref = StreamingInference(factory(), window_size=2,
                                 enable_skipping=True)
        for snap in graph:
            result = ref.push(snap.copy())
            if result is not None:
                expected.extend(result.outputs)
        result = ref.flush()
        if result is not None:
            expected.extend(result.outputs)
        assert_identical(cluster.released("t0"), expected)
        torn = [i for i in cluster.incidents if i.kind == "torn-checkpoint"]
        assert torn and torn[0].action in ("rolled-back", "cold-start")

    def test_checkpoint_lacking_a_member_rolls_back(self, graph):
        """A newest checkpoint that is a valid archive without
        ``state/h`` is skipped like a torn one: the shard resumes from
        the older key instead of dying in recovery."""
        cluster = ShardCluster(
            factory, num_shards=SHARDS, window_size=2,
            heartbeat_timeout=1, seed=SEED,
        )
        cluster.register_tenant("t0")
        for t, snap in enumerate(graph):
            if t == 5:
                blobs = cluster.workers[0].stores["t0"]._blobs
                assert len(blobs) >= 2
                newest = max(blobs)
                with np.load(io.BytesIO(blobs[newest])) as data:
                    kept = {k: data[k] for k in data.files if k != "state/h"}
                assert len(kept) == len(data.files) - 1
                buf = io.BytesIO()
                np.savez(buf, **kept)
                blobs[newest] = buf.getvalue()
                cluster.workers[0].crash()
            cluster.push("t0", snap.copy())
        cluster.flush("t0")
        ref = ShardCluster(factory, num_shards=SHARDS, window_size=2,
                           seed=SEED)
        assert_identical(cluster.released("t0"), serve(ref, "t0", graph))
        torn = [i for i in cluster.incidents if i.kind == "torn-checkpoint"]
        assert len(torn) == 1 and torn[0].action == "rolled-back"
        assert "1 torn checkpoint(s) skipped; resumed from ckpt-" in (
            torn[0].detail
        )

    def test_storage_flakes_are_retried_into_metrics(self, graph):
        cluster = ShardCluster(
            factory, num_shards=SHARDS, window_size=WINDOW,
            heartbeat_timeout=1, seed=SEED,
        )
        cluster.register_tenant("t0")
        for t, snap in enumerate(graph):
            if t == 4:
                cluster.workers[3].flake_storage(1)
                cluster.workers[3].crash()
            cluster.push("t0", snap.copy())
        cluster.flush("t0")
        assert_identical(cluster.released("t0"), reference_outputs(graph))
        m = cluster.metrics
        assert m.retries >= 1
        assert m.retry_attempts >= 2
        assert m.retry_backoff_ns > 0

    def test_slow_shard_serves_stale_rows(self, graph):
        cluster = ShardCluster(
            factory, num_shards=SHARDS, window_size=2, seed=SEED
        )
        cluster.register_tenant("t0")
        for t, snap in enumerate(graph):
            if t == 2:
                cluster.workers[1].slow(6)
            cluster.push("t0", snap.copy())
        matrix, stale = cluster.query("t0")
        assert matrix.shape[0] == graph.num_vertices
        assert stale >= 1
        assert cluster.metrics.stale_serves >= 1
        assert any(
            inc.kind == "slow-shard" and inc.action == "degraded"
            for inc in cluster.incidents
        )
        # drain catches the slow shard up; outputs stay bit-identical
        cluster.flush("t0")
        expected = []
        ref = StreamingInference(factory(), window_size=2,
                                 enable_skipping=True)
        for snap in graph:
            result = ref.push(snap.copy())
            if result is not None:
                expected.extend(result.outputs)
        result = ref.flush()
        if result is not None:
            expected.extend(result.outputs)
        assert_identical(cluster.released("t0"), expected)


class TestBackpressure:
    def test_hot_shard_sheds_with_structured_incident(self, graph):
        cluster = ShardCluster(
            factory, num_shards=SHARDS, window_size=WINDOW,
            max_backlog=2, breaker_threshold=2, seed=SEED,
        )
        cluster.register_tenant("t0")
        cluster.workers[0].slow(50)  # hot shard: backlog builds fast
        receipts = [cluster.push("t0", snap.copy()) for snap in graph]
        shed = [r for r in receipts if not r.accepted]
        assert shed, "expected the hot shard to force shedding"
        first = shed[0]
        assert first.shed_reason in ("backlog-full", "circuit-open")
        assert first.incident is not None
        assert first.incident.action == "shed"
        assert first.incident.tenant == "t0"
        assert cluster.metrics.shed_events == len(shed)
        # every shed snapshot is dead-lettered, never silently dropped
        assert len(cluster.dlq) >= len(shed)

    def test_breaker_opens_then_recovers(self, graph):
        cluster = ShardCluster(
            factory, num_shards=SHARDS, window_size=WINDOW,
            max_backlog=1, breaker_threshold=2, seed=SEED,
        )
        cluster.register_tenant("t0")
        cluster.workers[0].stall()  # nothing drains until the supervisor acts
        reasons = []
        opened = False
        for t in range(6):
            reasons.append(
                cluster.push("t0", graph[t % 2].copy()).shed_reason
            )
            opened = opened or cluster.gate.breaker_open("t0")
        assert "circuit-open" in reasons
        assert opened
        # the supervisor restarted the stalled shard mid-sequence, the
        # backlog drained, and the returned headroom half-closed the
        # breaker — the last push is admitted again
        assert reasons[-1] == ""
        assert not cluster.gate.breaker_open("t0")

    def test_poison_snapshot_dead_lettered(self, graph):
        cluster = ShardCluster(
            factory, num_shards=SHARDS, window_size=WINDOW, seed=SEED
        )
        cluster.register_tenant("t0")
        cluster.push("t0", graph[0].copy())
        torn = graph[1].copy()
        torn.features[0, 0] = np.nan
        receipt = cluster.push("t0", torn)
        assert not receipt.accepted
        assert receipt.shed_reason == "poison-snapshot"
        assert receipt.incident.action == "dead-lettered"
        assert len(cluster.dlq) == 1
        assert len(cluster.history("t0")) == 1

    def test_unregistered_tenant_rejected(self, graph):
        cluster = ShardCluster(factory, num_shards=2, seed=SEED)
        with pytest.raises(ValueError):
            cluster.push("ghost", graph[0].copy())


class TestMultiTenant:
    def test_two_tenants_isolated_and_identical(self, graph, graph_b):
        cluster = ShardCluster(
            factory, num_shards=SHARDS, window_size=WINDOW, seed=SEED
        )
        cluster.register_tenant("a")
        cluster.register_tenant("b")
        for t in range(graph.num_snapshots):
            cluster.push("a", graph[t].copy())
            cluster.push("b", graph_b[t].copy())
        cluster.flush("a")
        cluster.flush("b")
        assert_identical(cluster.released("a"), reference_outputs(graph))
        assert_identical(cluster.released("b"), reference_outputs(graph_b))

    @settings(max_examples=8, deadline=None)
    @given(order=st.lists(st.booleans(), min_size=6, max_size=6))
    def test_any_interleaving_matches_solo_serving(
        self, graph, graph_b, order
    ):
        """Property: interleaving two tenants' streams in any order
        yields bit-identical per-tenant results vs serving each alone."""
        cluster = ShardCluster(
            factory, num_shards=SHARDS, window_size=WINDOW, seed=SEED
        )
        cluster.register_tenant("a")
        cluster.register_tenant("b")
        ia = ib = 0
        # `order` schedules which tenant pushes next; leftovers append
        for a_first in order:
            if a_first and ia < graph.num_snapshots:
                cluster.push("a", graph[ia].copy())
                ia += 1
            elif ib < graph_b.num_snapshots:
                cluster.push("b", graph_b[ib].copy())
                ib += 1
        while ia < graph.num_snapshots:
            cluster.push("a", graph[ia].copy())
            ia += 1
        while ib < graph_b.num_snapshots:
            cluster.push("b", graph_b[ib].copy())
            ib += 1
        cluster.flush("a")
        cluster.flush("b")

        solo_a = ShardCluster(
            factory, num_shards=SHARDS, window_size=WINDOW, seed=SEED
        )
        got_a = serve(solo_a, "a", graph)
        solo_b = ShardCluster(
            factory, num_shards=SHARDS, window_size=WINDOW, seed=SEED
        )
        got_b = serve(solo_b, "b", graph_b)
        assert_identical(cluster.released("a"), got_a)
        assert_identical(cluster.released("b"), got_b)
        # and both equal the unsharded engine
        assert_identical(got_a, reference_outputs(graph))
        assert_identical(got_b, reference_outputs(graph_b))
