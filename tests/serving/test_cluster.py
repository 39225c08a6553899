"""Tests for the supervised shard cluster: identity, recovery, shedding."""

import io
import zipfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.lib.recfunctions import repack_fields

from repro.engine import StreamingInference
from repro.graphs import load_dataset
from repro.models import make_model
from repro.resilience import CorruptCheckpointError, carry_to_arrays
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


def reference_outputs(graph, make=factory):
    stream = StreamingInference(
        make(), window_size=WINDOW, enable_skipping=True
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

    def test_a_replay_that_completes_no_window_saves_nothing(self, graph):
        """Shard 1 of two crashes at t = 4, after the window ending at
        t = 2 was checkpointed: recovery restores that checkpoint and
        replays one snapshot, which completes no window, so the store
        still holds only the checkpoint it restored."""
        cluster = ShardCluster(
            factory, num_shards=2, window_size=WINDOW,
            heartbeat_timeout=1, seed=SEED,
        )
        cluster.register_tenant("t0")
        worker = cluster.workers[1]
        for t, snap in enumerate(graph):
            if t == 4:
                worker.crash()
            cluster.push("t0", snap.copy())
            if t == 4:
                assert cluster.supervisor.restarts == 1
                store = worker.stores["t0"]
                assert [
                    (key, store.restore(worker._fresh_stream().stream,
                                        key).timestamp)
                    for key in store.keys()
                ] == [("ckpt-00000001.npz", 3)]
        cluster.flush("t0")
        assert_identical(cluster.released("t0"), reference_outputs(graph))

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

    def test_an_older_format_store_cold_starts_bit_identically(self, graph):
        """A build reads only the format it writes: a shard whose store
        holds nothing but format-3 archives refuses each as torn,
        cold-starts, and replays to the same bits."""
        cluster = ShardCluster(
            factory, num_shards=SHARDS, window_size=2,
            heartbeat_timeout=1, seed=SEED,
        )
        cluster.register_tenant("t0")
        for t, snap in enumerate(graph):
            if t == 5:
                store = cluster.workers[1].stores["t0"]
                assert len(store) == 2
                for key, blob in store._blobs.items():
                    buf = io.BytesIO()
                    with np.load(io.BytesIO(blob)) as data:
                        np.savez(buf, **{**data, "meta/format": np.int64(3)})
                    store._blobs[key] = buf.getvalue()
                    with pytest.raises(
                        CorruptCheckpointError,
                        match="unsupported checkpoint format 3",
                    ):
                        store.load(key)
                cluster.workers[1].crash()
            cluster.push("t0", snap.copy())
        cluster.flush("t0")
        ref = ShardCluster(factory, num_shards=SHARDS, window_size=2, seed=SEED)
        expected = serve(ref, "t0", graph)
        got = cluster.released("t0")
        assert len(got) == len(expected) == graph.num_snapshots
        for a, b in zip(got, expected):
            assert a.tobytes() == b.tobytes()
        torn = [i for i in cluster.incidents if i.kind == "torn-checkpoint"]
        assert len(torn) == 1 and torn[0].action == "cold-start"
        assert "2 torn checkpoint(s) skipped" in torn[0].detail

    @pytest.mark.parametrize("fmt", [4, 5])
    def test_a_format_4_or_5_store_cold_starts_bit_identically(
        self, graph, fmt
    ):
        """Formats 4 and 5 also stored the snapshots a carry holds,
        ``meta/num_pending`` and ``snap_prev/*``, which format 6
        dropped; format 4 also stored the delta cache's two
        pre-activation blocks, ``cache/zx`` and ``cache/zh``.  A shard
        whose store holds nothing but such archives refuses each as
        corrupt, cold-starts, and replays to the same bits."""
        cluster = ShardCluster(
            factory, num_shards=SHARDS, window_size=2,
            heartbeat_timeout=1, seed=SEED,
        )
        cluster.register_tenant("t0")
        width = factory().cell.w_x.shape[1]
        for t, snap in enumerate(graph):
            if t == 5:
                store = cluster.workers[1].stores["t0"]
                assert len(store) == 2
                for key, blob in store._blobs.items():
                    with np.load(io.BytesIO(blob)) as data:
                        record = data["meta/record"]
                    fields = {n: record[n] for n in record.dtype.names}
                    fields["meta/num_pending"] = np.int64(0)
                    last = graph[int(fields["meta/timestamp"]) - 1]
                    for name in ("indptr", "indices", "features", "present"):
                        fields[f"snap_prev/{name}"] = getattr(last, name)
                    fields["snap_prev/timestamp"] = np.int64(last.timestamp)
                    if fmt == 4:
                        rows = len(fields["cache/z_input"])
                        for name in ("cache/zx", "cache/zh"):
                            fields[name] = np.zeros((rows, width), np.float32)
                    buf = io.BytesIO()
                    np.savez(buf, **{
                        "meta/format": np.int64(fmt),
                        "meta/record": np.array(
                            tuple(fields.values()),
                            dtype=[(n, v.dtype, v.shape) for n, v in fields.items()],
                        ),
                    })
                    store._blobs[key] = buf.getvalue()
                    with pytest.raises(
                        CorruptCheckpointError,
                        match=f"unsupported checkpoint format {fmt}",
                    ):
                        store.load(key)
                cluster.workers[1].crash()
            cluster.push("t0", snap.copy())
        cluster.flush("t0")
        ref = ShardCluster(factory, num_shards=SHARDS, window_size=2, seed=SEED)
        expected = serve(ref, "t0", graph)
        got = cluster.released("t0")
        assert len(got) == len(expected) == graph.num_snapshots
        for a, b in zip(got, expected):
            assert a.tobytes() == b.tobytes()
        torn = [i for i in cluster.incidents if i.kind == "torn-checkpoint"]
        assert len(torn) == 1 and torn[0].action == "cold-start"
        assert "2 torn checkpoint(s) skipped" in torn[0].detail

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
        """A newest checkpoint that is a valid archive whose record lacks
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
                    record = data["meta/record"]
                    kept = [n for n in record.dtype.names if n != "state/h"]
                    assert len(kept) == len(record.dtype.names) - 1
                    buf = io.BytesIO()
                    np.savez(
                        buf,
                        **{
                            "meta/format": data["meta/format"],
                            "meta/record": repack_fields(record[kept]),
                        },
                    )
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

    def test_a_snapshot_the_model_cannot_read_is_dead_lettered(self, graph):
        """The front door checks the model's input width: a snapshot the
        shard streams would refuse is never admitted, so it lands in the
        cluster's DLQ instead of vanishing into theirs."""

        def wide():
            return make_model("T-GCN", DIM + 1, 8, seed=SEED)

        cluster = ShardCluster(
            wide, num_shards=2, window_size=WINDOW, seed=SEED
        )
        cluster.register_tenant("t0")
        receipts = [cluster.push("t0", snap.copy()) for snap in graph]
        assert [r.shed_reason for r in receipts] == (
            ["poison-snapshot"] * graph.num_snapshots
        )
        assert all(
            f"!= expected {DIM + 1}" in r.incident.detail for r in receipts
        )
        assert len(cluster.dlq) == graph.num_snapshots
        assert cluster.history("t0") == [] and cluster.flush("t0") == []
        for worker in cluster.workers:
            assert len(worker.streams["t0"].dlq) == 0

    def test_reset_tenant_closes_an_open_breaker(self, graph):
        """Lifecycle step 6: the breaker opens under a full backlog,
        draining leaves it open, and once the operator resets the tenant
        the next push is admitted."""
        cluster = ShardCluster(
            factory, num_shards=SHARDS, window_size=WINDOW,
            max_backlog=1, breaker_threshold=2, seed=SEED,
        )
        cluster.register_tenant("t0")
        cluster.workers[0].slow(50)  # a slow shard heartbeats: no restart
        reasons = [
            cluster.push("t0", graph[t].copy()).shed_reason for t in range(5)
        ]
        assert reasons == [
            "", "", "backlog-full", "backlog-full", "circuit-open"
        ]
        cluster.drain_backlogs()
        assert cluster.gate.breaker_open("t0")
        cluster.reset_tenant("t0")
        assert not cluster.gate.breaker_open("t0")
        receipt = cluster.push("t0", graph[5].copy())
        assert receipt.accepted and receipt.shed_reason == ""
        assert len(cluster.history("t0")) == 3

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


def unsharded_metrics(graph, make=factory):
    stream = StreamingInference(make(), window_size=WINDOW)
    for snap in graph:
        stream.push(snap.copy())
    stream.flush()
    return stream.metrics


class TestOwnedRowShards:
    """Reads are replicated, compute is partitioned: every worker's
    streams compute ``ShardMap.rows(i)`` and nothing else."""

    def test_workers_own_the_shard_map_rows(self, graph):
        cluster = ShardCluster(
            factory, num_shards=SHARDS, window_size=WINDOW, seed=SEED
        )
        cluster.register_tenant("t0")
        assert all(w.rows is None for w in cluster.workers)  # not pinned yet
        for snap in graph:
            cluster.push("t0", snap.copy())
        cluster.flush("t0")
        seen = np.zeros(graph.num_vertices, dtype=int)
        for worker in cluster.workers:
            rows = cluster.shard_map.rows(worker.index)
            assert not rows.flags.writeable
            assert worker.rows is rows
            stream = worker.streams["t0"].stream
            assert stream.rows.tolist() == rows.tolist()
            seen[rows] += 1
            # a row nobody asked this shard for was never computed
            others = np.setdiff1d(np.arange(graph.num_vertices), rows)
            assert not stream.carry.h_prev[others].any()
            assert stream.carry.h_prev[rows].any() == bool(rows.size)
            with pytest.raises(ValueError, match="fed shard"):
                worker.own(rows)
        assert (seen == 1).all()

    def test_a_shard_checkpoint_holds_the_rows_it_owns(self, graph):
        """Every shard's archives store the rows it computes, not the
        whole graph's: the four stores together hold at most half of
        what whole-graph archives of the same carries take (a quarter
        of the rows, plus the snapshots any archive carries)."""
        cluster = ShardCluster(
            lambda: make_model("T-GCN", DIM, 32, seed=SEED),
            num_shards=SHARDS, window_size=WINDOW, seed=SEED,
        )
        serve(cluster, "t0", graph)
        held = whole = 0
        for worker in cluster.workers:
            store = worker.stores["t0"]
            assert store.keys()
            for key in store.keys():
                held += len(store._blobs[key])
                buf = io.BytesIO()
                np.savez(buf, **carry_to_arrays(store.load(key)))
                whole += len(buf.getvalue())
        assert held <= whole / 2

    def test_engine_fault_degrades_one_owned_row_window(self, graph):
        cluster = ShardCluster(
            factory, num_shards=SHARDS, window_size=WINDOW, seed=SEED
        )
        cluster.register_tenant("t0")
        for t, snap in enumerate(graph):
            if t == WINDOW - 1:  # fires while the first window processes
                cluster.workers[2].streams["t0"].inject_fault(
                    RuntimeError("injected DCU fault")
                )
            cluster.push("t0", snap.copy())
        cluster.flush("t0")
        # shard 2's rows are those of an unsharded stream degraded at
        # the same window — that window on ReferenceEngine, the
        # owned-row windows after it from the state it left — and every
        # other row is the never-failed stream's
        from repro.resilience import ResilientStreamingInference

        faulted = ResilientStreamingInference(factory(), window_size=WINDOW)
        faulted.inject_fault(RuntimeError("injected DCU fault"))
        degraded = []
        for snap in graph:
            result = faulted.push(snap.copy())
            if result is not None:
                degraded.extend(result.outputs)
        assert faulted.metrics.fallback_windows == 1
        healthy = reference_outputs(graph)
        rows = cluster.shard_map.rows(2)
        others = np.setdiff1d(np.arange(graph.num_vertices), rows)
        assert rows.size and others.size
        got = cluster.released("t0")
        assert len(got) == len(healthy) == len(degraded)
        for out, want, clean in zip(got, degraded, healthy):
            assert out[rows].tobytes() == want[rows].tobytes()
            assert out[others].tobytes() == clean[others].tobytes()
        assert any(
            want[rows].tobytes() != clean[rows].tobytes()
            for want, clean in zip(degraded, healthy)
        )  # the fault is visible: the test would notice a shard that hid it
        sup = cluster.workers[2].streams["t0"]
        assert [i.kind for i in sup.incidents] == ["engine-fault"]
        assert sup.metrics.fallback_windows == 1
        assert sup.stream.rows.tolist() == rows.tolist()  # still owned-row
        assert cluster.metrics.fallback_windows == 1

    def test_degraded_window_is_exact_and_later_windows_identical(self, graph):
        """With skipping off the reference window *is* the engine's, so
        a fault must leave every released bit where it was."""
        def make_cluster():
            return ShardCluster(
                factory, num_shards=SHARDS, window_size=WINDOW,
                enable_skipping=False, seed=SEED,
            )

        cluster = make_cluster()
        cluster.register_tenant("t0")
        for t, snap in enumerate(graph):
            if t == WINDOW - 1:
                cluster.workers[1].streams["t0"].inject_fault(
                    RuntimeError("injected DCU fault")
                )
            cluster.push("t0", snap.copy())
        cluster.flush("t0")
        for a, b in zip(cluster.released("t0"), serve(make_cluster(), "t0", graph)):
            assert a.tobytes() == b.tobytes()
        assert cluster.metrics.fallback_windows == 1

    def test_recovered_streams_and_their_checkpoints_carry_the_ownership(
        self, graph
    ):
        cluster = ShardCluster(
            factory, num_shards=SHARDS, window_size=WINDOW,
            heartbeat_timeout=1, seed=SEED,
        )
        cluster.register_tenant("t0")
        for t, snap in enumerate(graph):
            if t == 4:
                cluster.workers[1].crash()
            cluster.push("t0", snap.copy())
        cluster.flush("t0")
        assert_identical(cluster.released("t0"), reference_outputs(graph))
        assert cluster.supervisor.restarts == 1
        rows = cluster.shard_map.rows(1)
        worker = cluster.workers[1]
        assert worker.streams["t0"].stream.rows.tolist() == rows.tolist()
        store = worker.stores["t0"]
        assert len(store) >= 2
        for key in store.keys():
            assert store.load(key).rows.tolist() == rows.tolist()

    @pytest.mark.parametrize("backend", ["memory", "directory"])
    def test_checkpoints_of_another_ownership_are_refused_then_cold_start(
        self, graph, tmp_path, backend
    ):
        """A shard restarted owning rows its stored checkpoints do not
        cover (a re-partitioned cluster over the same store) must not
        resume from them: one incident, a cold start, the same bits."""
        from repro.resilience import CheckpointStore

        cluster = ShardCluster(
            factory, num_shards=SHARDS, window_size=2,
            heartbeat_timeout=1, seed=SEED,
        )
        cluster.register_tenant("t0")
        worker = cluster.workers[1]
        if backend == "directory":
            worker.stores["t0"] = CheckpointStore(tmp_path / "s1", keep_last=3)
        for t, snap in enumerate(graph):
            if t == 5:
                assert len(worker.stores["t0"]) == 2
                worker.crash()
                mine = cluster.shard_map.rows(1)
                grown = np.union1d(mine, cluster.shard_map.rows(2)[:3])
                assert len(grown) == len(mine) + 3
                worker.own(grown)  # a superset of what the cluster collects
            cluster.push("t0", snap.copy())
        cluster.flush("t0")
        ref = ShardCluster(factory, num_shards=SHARDS, window_size=2, seed=SEED)
        for a, b in zip(cluster.released("t0"), serve(ref, "t0", graph)):
            assert a.tobytes() == b.tobytes()
        torn = [i for i in cluster.incidents if i.kind == "torn-checkpoint"]
        assert len(torn) == 1 and torn[0].action == "cold-start"
        assert "2 torn checkpoint(s) skipped" in torn[0].detail
        restarted = [i for i in cluster.incidents if i.action == "restarted"]
        assert len(restarted) == 1
        assert "resumed from cold-start, replayed 6 snapshot(s)" in (
            restarted[0].detail
        )

    def test_which_counters_add_up_by_ownership(self, graph):
        """``ShardCluster.metrics``: per-row work sums to the unsharded
        stream's, whole-snapshot work is done once per shard."""
        def wide():  # hidden = in_dim: the layer aggregates first
            return make_model("T-GCN", DIM, DIM, seed=SEED)

        for make, gnn_additive in ((wide, True), (factory, False)):
            cluster = ShardCluster(
                make, num_shards=SHARDS, window_size=WINDOW, seed=SEED
            )
            serve(cluster, "t0", graph)
            one, m = unsharded_metrics(graph, make), cluster.metrics
            for name in (
                "cells_full", "cells_delta", "cells_skipped", "cell_macs",
                "cell_macs_saved", "delta_nnz", "output_words",
            ):
                assert getattr(m, name) == getattr(one, name), name
            active = len(cluster.shard_map.active_shards())
            assert active == SHARDS
            for name in ("snapshots_processed", "windows_processed"):
                assert getattr(m, name) == SHARDS * getattr(one, name), name
            gnn = m.combination_macs + m.aggregation_macs
            gnn_one = one.combination_macs + one.aggregation_macs
            assert (gnn == gnn_one) == gnn_additive
            assert gnn_one <= gnn < SHARDS * gnn_one

    def test_a_neighbour_reading_cell_is_replicated(self, graph):
        def make():
            return make_model("GC-LSTM", DIM, 8, seed=SEED)

        cluster = ShardCluster(
            make, num_shards=SHARDS, window_size=WINDOW, seed=SEED
        )
        got = serve(cluster, "t0", graph)
        for a, b in zip(got, reference_outputs(graph, make), strict=True):
            assert a.tobytes() == b.tobytes()
        one = unsharded_metrics(graph, make)
        assert cluster.metrics.cells_full == SHARDS * one.cells_full
        assert cluster.metrics.cell_macs == SHARDS * one.cell_macs
