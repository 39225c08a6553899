"""Shards are isolated by immutability, not by copies.

``ShardCluster.push`` admits one read-only copy of each snapshot, and
the history, every shard's backlog, stream window and rollback point
hold that one object.  These tests pin the isolation (nothing can write
the shared copy, and the caller's own object is neither frozen nor
kept), that admission validates a snapshot once, that a window's
analysis (θ's neighbour merge) runs once per push and not once per
shard or replay, and that sharing changes no output bit.
"""

import hashlib

import numpy as np
import pytest

import repro.engine.concurrent as concurrent_mod
import repro.resilience.ingest as ingest_mod
from repro.analysis import classify_window
from repro.analysis.similarity import _sparsetools
from repro.engine import ConcurrentEngine, ExecutionMetrics
from repro.graphs import DynamicGraph, load_dataset
from repro.graphs.updates import event_stream
from repro.models import make_model
from repro.resilience import CheckpointStore, FaultPlan, RetryPolicy
from repro.serving import ShardCluster, run_chaos_campaign
from repro.serving.worker import ShardWorker

WINDOW = 3
SEED = 3
SHARDS = 4
DIM = 32  # GT's feature width
ARRAYS = ("indptr", "indices", "features", "present")


@pytest.fixture(scope="module")
def graph():
    return load_dataset("GT", scale=0.05, num_snapshots=6, seed=SEED)


@pytest.fixture(scope="module")
def graph_b():
    return load_dataset("GT", scale=0.05, num_snapshots=6, seed=SEED + 1)


def factory():
    return make_model("T-GCN", DIM, 8, seed=SEED)


def exact_factory():
    return make_model("GC-LSTM", DIM, 8, seed=SEED)


def digest(snap) -> str:
    """sha256 of a snapshot's four arrays (dtype, shape, bytes) and its
    timestamp."""
    h = hashlib.sha256()
    for name in ARRAYS:
        array = getattr(snap, name)
        h.update(f"{name}:{array.dtype.str}:{array.shape}".encode())
        h.update(array.tobytes())
    h.update(str(snap.timestamp).encode())
    return h.hexdigest()


def cluster_of(make=factory, **kwargs):
    cluster = ShardCluster(
        make, num_shards=SHARDS, window_size=WINDOW, seed=SEED, **kwargs
    )
    cluster.register_tenant("t0")
    return cluster


def feed(cluster, graph, tenant="t0"):
    """The first snapshot pushed, every later one ingested as events."""
    cluster.push(tenant, graph[0].copy())
    for batch in event_stream(graph):
        cluster.ingest(tenant, batch)


class TestTheAdmittedCopy:
    def test_its_arrays_refuse_in_place_writes(self, graph):
        cluster = cluster_of()
        feed(cluster, graph)
        history = cluster.history("t0")
        assert len(history) == graph.num_snapshots
        for admitted in history:
            assert admitted.read_only
            for name in ARRAYS:
                array = getattr(admitted, name)
                assert not array.flags.writeable
                with pytest.raises(ValueError, match="read-only"):
                    array[:1] = 0

    def test_the_caller_object_stays_writable_and_unaliased(self, graph):
        cluster = cluster_of()
        snap = graph[0].copy()
        before = digest(snap)
        cluster.push("t0", snap)
        (admitted,) = cluster.history("t0")
        assert admitted is not snap
        assert not snap.read_only
        for name in ARRAYS:
            mine, theirs = getattr(snap, name), getattr(admitted, name)
            assert mine.flags.writeable
            assert not np.shares_memory(mine, theirs)
            assert mine.tobytes() == theirs.tobytes()
        assert digest(snap) == before
        kept = digest(admitted)
        snap.features[0] += 1.0  # the caller keeps writing its own object
        assert digest(admitted) == kept

    def test_it_is_c_ordered_as_a_copy_is(self, graph):
        """The shards used to read ``snapshot.copy()``, which is
        C-ordered whatever the caller's layout; so is the admitted
        copy, and the BLAS path a layout picks stays the same."""
        cluster = cluster_of()
        snap = graph[0].copy()
        snap.features = np.asfortranarray(snap.features)
        cluster.push("t0", snap)
        (admitted,) = cluster.history("t0")
        assert admitted.features.flags.c_contiguous
        assert admitted.features.tobytes() == graph[0].features.tobytes()

    def test_every_shard_and_rollback_point_holds_the_one_object(self, graph):
        cluster = cluster_of()
        for snap in list(graph)[:WINDOW + 1]:
            cluster.push("t0", snap.copy())
        history = cluster.history("t0")
        for worker in cluster.workers:
            stream = worker.streams["t0"].stream
            # the carry is the rollback point: no window writes it
            assert stream.carry.snap_prev is history[WINDOW - 1]
            (buffered,) = stream.buffered
            assert buffered is history[WINDOW]


class TestTheHistoryOutlivesChaos:
    @pytest.mark.parametrize("shape", ["stream-faults", "shard-faults"])
    def test_every_admitted_snapshot_hashes_as_it_did_at_admission(
        self, graph, graph_b, shape, monkeypatch
    ):
        """Hash each snapshot as the first shard is handed it; after a
        four-shard campaign — engine faults rolled back, or shards
        crashed, stalled and recovered by replaying the history — every
        admitted snapshot is still read-only and hashes the same."""
        admitted = []
        enqueue = ShardWorker.enqueue

        def hashed_enqueue(worker, tenant, snapshot):
            if worker.index == 0:
                admitted.append((snapshot, digest(snapshot)))
            enqueue(worker, tenant, snapshot)

        monkeypatch.setattr(ShardWorker, "enqueue", hashed_enqueue)
        if shape == "stream-faults":
            graphs = graph
            plan = FaultPlan.generate(seed=7, num_steps=graph.num_snapshots)
        else:
            graphs = {"a": graph, "b": graph_b}
            plan = FaultPlan.generate_cluster(
                seed=7, num_steps=graph.num_snapshots, num_shards=SHARDS
            )
        report = run_chaos_campaign(
            factory, graphs, plan,
            num_shards=SHARDS, window_size=WINDOW, seed=SEED,
        )
        assert report.identical and report.lost == 0
        if shape == "stream-faults":
            assert report.metrics.fallback_windows > 0  # rollbacks ran
        else:
            assert report.restarts > 0  # history replays ran
        assert len(admitted) == sum(report.admitted.values())
        for snap, at_admission in admitted:
            assert snap.read_only
            assert digest(snap) == at_admission

    def test_a_rollback_replays_the_shared_window_bit_identically(
        self, graph
    ):
        """Every shard faults in the second window and rolls back to a
        carry that shares its snapshots; the exact engine's degraded
        windows then equal the uninterrupted cluster's bytes."""
        clean = cluster_of(exact_factory, enable_skipping=False)
        feed(clean, graph)
        clean.flush("t0")
        faulted = cluster_of(exact_factory, enable_skipping=False)
        faulted.push("t0", graph[0].copy())
        for t, batch in enumerate(event_stream(graph), start=1):
            if t == 2 * WINDOW - 1:  # fires while window 2 processes
                for worker in faulted.workers:
                    worker.streams["t0"].inject_fault(
                        RuntimeError("injected fault")
                    )
            faulted.ingest("t0", batch)
        faulted.flush("t0")
        assert faulted.metrics.fallback_windows == SHARDS
        got, want = faulted.released("t0"), clean.released("t0")
        assert len(got) == len(want) == graph.num_snapshots
        for a, b in zip(got, want):
            assert a.tobytes() == b.tobytes()


class TestValidatedOnce:
    def test_a_four_shard_push_checks_each_admitted_snapshot_once(
        self, graph, monkeypatch
    ):
        """The front door runs the structural checks on the admitted
        copy; every shard's supervisor then reads the cached verdict."""
        checked = []
        structure = ingest_mod._structure_violation

        def spy(snap):
            checked.append(snap)
            return structure(snap)

        monkeypatch.setattr(ingest_mod, "_structure_violation", spy)
        cluster = cluster_of()
        feed(cluster, graph)
        cluster.flush("t0")
        history = cluster.history("t0")
        assert len(checked) == len(history) == graph.num_snapshots
        assert all(a is b for a, b in zip(checked, history))

    def test_a_torn_snapshot_is_still_dead_lettered_with_its_reason(
        self, graph
    ):
        cluster = cluster_of()
        torn = graph[1].copy()
        torn.indices = torn.indices[: torn.num_edges // 2].copy()
        receipt = cluster.push("t0", torn)
        assert not receipt.accepted
        assert receipt.shed_reason == "poison-snapshot"
        assert "truncated CSR" in receipt.incident.detail
        assert cluster.dlq.letters[-1].payload is torn  # the caller's object
        assert cluster.history("t0") == []


@pytest.fixture
def merges(monkeypatch):
    """Count θ's neighbour merges (``csr_elmul_csr`` calls)."""
    calls = []
    merge = _sparsetools.csr_elmul_csr

    def spy(*args):
        calls.append(args[0])
        return merge(*args)

    monkeypatch.setattr(_sparsetools, "csr_elmul_csr", spy)
    return calls


class TestAWindowIsAnalysedOnce:
    """The four shards of a push, and a shard replaying the window into
    recovery, read one classification: its θ neighbour weights, churned
    rows and changed rows are computed once."""

    def test_a_push_merges_each_pair_once_not_once_per_shard(
        self, graph, merges
    ):
        cluster = cluster_of()
        feed(cluster, graph)
        cluster.flush("t0")
        windows = graph.num_snapshots // WINDOW
        assert graph.num_snapshots == windows * WINDOW
        assert cluster.metrics.windows_processed == SHARDS * windows
        assert len(merges) == windows * (WINDOW - 1)  # not SHARDS times

    def test_a_replay_into_recovery_adds_no_merge(self, graph, merges):
        """A shard that crashes and finds no checkpoint cold-starts and
        replays every window of the history: it reads the windows' facts
        from the classifications its peers made."""
        cluster = cluster_of()
        feed(cluster, graph)
        cluster.flush("t0")
        before = len(merges)
        worker = cluster.workers[1]
        worker.crash()
        worker.stores["t0"] = CheckpointStore()  # nothing survives
        history = cluster.history("t0")
        results, (note,) = worker.recover(
            0, {"t0": history}, policy=RetryPolicy(),
            metrics=ExecutionMetrics(),
        )
        assert note["outcome"] == "cold-start"
        assert note["replayed"] == len(history)
        assert len(results["t0"]) == graph.num_snapshots // WINDOW
        assert len(merges) == before

    def test_the_memoised_facts_refuse_in_place_writes(self, graph, merges):
        cluster = cluster_of()
        feed(cluster, graph)
        history = cluster.history("t0")
        cls = classify_window(DynamicGraph(history[:WINDOW]))
        before = len(merges)
        facts = [cls.neighbor_weights(t) for t in range(WINDOW - 1)]
        facts += cls.churned_rows()
        facts += cls.changed_rows(len(factory().gnn.layers))
        assert len(merges) == before  # the shards' reads, not fresh ones
        for array in facts:
            assert not array.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                array[:1] = 0

    def test_theta_and_releases_match_every_shard_count_and_one_engine(
        self, graph, monkeypatch
    ):
        """θ per (snapshot, vertex) and every released matrix are the
        same bytes at 1, 2 and 4 shards, and an unsharded
        ``ConcurrentEngine`` over the same graph computes them too."""
        score = concurrent_mod.similarity_scores
        thetas = {}

        def recorded(z, snaps, vertices, **kw):
            theta = score(z, snaps, vertices, **kw)  # every pair at once
            for pair, prev, cur in zip(theta, snaps, snaps[1:]):
                scored = prev.present[vertices] & cur.present[vertices]
                for v, value in zip(vertices[scored].tolist(), pair[scored]):
                    thetas[(cur.timestamp, v)] = value.tobytes()
            return theta

        monkeypatch.setattr(concurrent_mod, "similarity_scores", recorded)
        runs = {}
        for shards in (1, 2, 4):
            thetas = {}
            cluster = ShardCluster(
                factory, num_shards=shards, window_size=WINDOW, seed=SEED
            )
            cluster.register_tenant("t0")
            feed(cluster, graph)
            cluster.flush("t0")
            runs[shards] = (thetas, cluster.released("t0"))
        thetas = {}
        result = ConcurrentEngine(factory(), window_size=WINDOW).run(graph)
        runs["engine"] = (thetas, result.outputs)
        want_theta, want_out = runs["engine"]
        assert want_theta  # θ was scored
        assert len(want_out) == graph.num_snapshots
        for got_theta, got_out in runs.values():
            assert got_theta == want_theta
            assert len(got_out) == len(want_out)
            for a, b in zip(got_out, want_out):
                assert a.tobytes() == b.tobytes()
