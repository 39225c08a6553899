"""Tests for guarded ingestion: validation, dead-lettering, retry."""

import copy

import numpy as np
import pytest

import repro.resilience.ingest as ingest_mod
from repro.graphs import (
    CSRSnapshot,
    EventBatch,
    UpdateEvent,
    UpdateKind,
    apply_events,
    event_stream,
    load_dataset,
)
from repro.models import make_model
from repro.resilience import (
    DeadLetter,
    DeadLetterQueue,
    FaultKind,
    FaultPlan,
    FaultSpec,
    GuardedIngest,
    RetryExhaustedError,
    RetryPolicy,
    TransientStorageError,
    snapshot_violation,
    with_retry,
)
from repro.serving import ShardCluster

from ..graphs.test_batched_events_property import (
    assert_snapshots_identical,
    frozen_guard,
)


@pytest.fixture(scope="module")
def graph():
    return load_dataset("GT", num_snapshots=4, seed=3)


class TestSnapshotViolation:
    def test_clean_snapshot_passes(self, graph):
        assert snapshot_violation(graph[0]) is None

    def test_wrong_type(self):
        assert "not a CSRSnapshot" in snapshot_violation(object())

    def test_truncated_indices(self, graph):
        bad = copy.copy(graph[0])
        bad.indices = bad.indices[: bad.num_edges // 2]
        assert "truncated CSR" in snapshot_violation(bad)

    def test_non_finite_features(self, graph):
        bad = graph[0].copy()
        bad.features[0, 0] = np.nan
        assert "non-finite" in snapshot_violation(bad)

    def test_out_of_range_neighbour(self, graph):
        bad = graph[0].copy()
        bad.indices[0] = bad.num_vertices
        assert "out of range" in snapshot_violation(bad)

    def test_geometry_drift(self, graph):
        snap = graph[0]
        assert "vertex count" in snapshot_violation(
            snap, num_vertices=snap.num_vertices + 1
        )
        assert "feature dimension" in snapshot_violation(snap, dim=snap.dim + 1)


def _star(like):
    """A snapshot of ``like``'s geometry whose row 0 is ``1, 2, …, 29``
    (directed, every other row empty)."""
    edges = [[0, v] for v in range(1, 30)]
    return CSRSnapshot.from_edges(
        like.num_vertices, edges, like.features.copy(), undirected=False
    )


def _reversed_row(like):
    """Row 0 is ``29, 28, …, 1``: the same set, not ascending."""
    bad = _star(like)
    bad.indices[:29] = bad.indices[:29][::-1].copy()
    return bad


def _duplicated_row(like):
    """Row 0 is ``1, 1, 3, 4, …``: sorted, with a duplicate."""
    bad = _star(like)
    bad.indices[1] = bad.indices[0]
    return bad


class TestCanonicalRows:
    """The neighbour-list merge is exact list equality only on strictly
    ascending rows, and aggregation sums in CSR order, so a row that is
    unsorted or duplicated is refused at the front door."""

    def test_a_descent_between_rows_is_allowed(self, graph):
        """Undirected, row 0 ends at 29 and every later row holds 0."""
        edges = [[0, v] for v in range(1, 30)]
        star = CSRSnapshot.from_edges(
            graph.num_vertices, edges, graph[0].features.copy()
        )
        assert snapshot_violation(star) is None

    @pytest.mark.parametrize("make", [_reversed_row, _duplicated_row])
    def test_a_non_canonical_row_is_refused(self, graph, make):
        assert "not strictly ascending" in snapshot_violation(make(graph[0]))
        assert "not strictly ascending" in snapshot_violation(
            make(graph[0]).frozen_copy()
        )

    def test_the_cluster_dead_letters_them(self):
        small = load_dataset("GT", scale=0.05, num_snapshots=2, seed=3)
        cluster = ShardCluster(
            lambda: make_model("T-GCN", small.dim, 8, seed=3),
            num_shards=2, window_size=2, seed=3,
        )
        cluster.register_tenant("t0")
        assert cluster.push("t0", _star(small[0])).accepted
        bad = [_reversed_row(small[0]), _duplicated_row(small[0])]
        for snap in bad:
            receipt = cluster.push("t0", snap)
            assert not receipt.accepted
            assert receipt.shed_reason == "poison-snapshot"
            assert "not strictly ascending" in receipt.incident.detail
        letters = cluster.dlq.letters
        assert len(letters) == 2
        assert all(l.payload is b for l, b in zip(letters, bad))
        assert len(cluster.history("t0")) == 1


class TestCachedVerdict:
    """A read-only snapshot's structural verdict is computed once; the
    geometry is still checked on every call, and a writable snapshot is
    checked in full on every call."""

    @staticmethod
    def _counting(monkeypatch):
        checked = []
        structure = ingest_mod._structure_violation

        def spy(snap):
            checked.append(snap)
            return structure(snap)

        monkeypatch.setattr(ingest_mod, "_structure_violation", spy)
        return checked

    def test_a_frozen_snapshot_is_checked_once(self, graph, monkeypatch):
        checked = self._counting(monkeypatch)
        frozen = graph[0].frozen_copy()
        for _ in range(3):
            assert snapshot_violation(frozen) is None
        assert checked == [frozen]

    def test_a_cached_verdict_still_checks_the_geometry(self, graph):
        frozen = graph[0].frozen_copy()
        n, d = frozen.num_vertices, frozen.dim
        assert snapshot_violation(frozen, num_vertices=n, dim=d) is None
        assert snapshot_violation(frozen, num_vertices=n + 1) == (
            f"vertex count {n} != expected {n + 1}"
        )
        assert snapshot_violation(frozen, dim=d + 1) == (
            f"feature dimension {d} != expected {d + 1}"
        )

    def test_a_frozen_poison_verdict_is_cached_too(self, graph, monkeypatch):
        checked = self._counting(monkeypatch)
        bad = graph[0].copy()
        bad.features[0, 0] = np.inf
        frozen = bad.frozen_copy()
        assert "non-finite" in snapshot_violation(frozen)
        assert "non-finite" in snapshot_violation(frozen, dim=frozen.dim)
        assert checked == [frozen]

    def test_a_writable_snapshot_is_checked_on_every_call(
        self, graph, monkeypatch
    ):
        checked = self._counting(monkeypatch)
        snap = graph[0].copy()
        assert snapshot_violation(snap) is None
        snap.features[0, 0] = np.nan  # written in place after a clean check
        assert "non-finite" in snapshot_violation(snap)
        assert len(checked) == 2

    def test_a_verdict_covers_only_the_arrays_it_judged(self, graph):
        """A copy of a frozen snapshot with one array swapped for a torn
        one carries the verdict along; it no longer applies."""
        frozen = graph[0].frozen_copy()
        assert snapshot_violation(frozen) is None
        torn = copy.copy(frozen)
        torn.indices = frozen.indices[: frozen.num_edges // 2]
        assert "truncated CSR" in snapshot_violation(torn)
        assert snapshot_violation(frozen) is None


class TestDeadLetterQueue:
    def test_record_and_tally(self):
        dlq = DeadLetterQueue()
        dlq.record(1, "a")
        dlq.record(2, "a")
        dlq.record(2, "b", payload=object())
        assert len(dlq) == 3
        assert dlq.by_reason() == {"a": 2, "b": 1}

    def test_negative_step_rejected(self):
        with pytest.raises(ValueError, match="step"):
            DeadLetter(step=-1, reason="x")

    def test_save_load_keeps_each_letters_batch_row(self, graph, tmp_path):
        """A letter's batch row survives the capture round trip, and a
        letter without one (a snapshot, an opaque artefact) stays
        without."""
        plan = FaultPlan([], seed=0)
        legit = event_stream(graph)[0]
        batch = EventBatch.concat([
            legit,
            plan.poison_event(FaultSpec(FaultKind.NAN_FEATURE, 1), graph[1]),
            plan.poison_event(FaultSpec(FaultKind.UNKNOWN_KIND_EVENT, 1),
                              graph[1]),
        ])
        guard = GuardedIngest()
        guard.apply(graph[0], batch, step=1)
        guard.dlq.record(2, "opaque", payload=object())
        assert [x.row for x in guard.dlq.letters] == [
            len(legit), len(legit) + 1, None
        ]
        guard.dlq.save(tmp_path / "capture.npz")
        loaded = DeadLetterQueue.load(tmp_path / "capture.npz")
        assert [(x.step, x.row, x.reason) for x in loaded.letters] == [
            (x.step, x.row, x.reason) for x in guard.dlq.letters
        ]


class TestGuardedIngest:
    def test_quarantines_exactly_the_poison_events(self, graph):
        plan = FaultPlan([], seed=0)
        legit = event_stream(graph)[0]
        poisons = [
            plan.poison_event(FaultSpec(kind, 1), graph[1])
            for kind in sorted(
                {FaultKind.CORRUPT_EVENT, FaultKind.NAN_FEATURE,
                 FaultKind.DUPLICATE_EVENT},
                key=lambda k: k.value,
            )
        ]
        guard = GuardedIngest()
        rebuilt = guard.apply(
            graph[0], EventBatch.concat([legit, *poisons]), step=1
        )
        # poisons quarantined, clean remainder rebuilds the true successor
        assert len(guard.dlq) == len(poisons)
        assert [x.row for x in guard.dlq.letters] == [
            len(legit) + i for i in range(len(poisons))
        ]
        assert guard.metrics.dead_letter_events == len(poisons)
        assert guard.metrics.incidents == len(poisons)
        assert np.array_equal(rebuilt.indices, graph[1].indices)
        np.testing.assert_array_equal(rebuilt.features, graph[1].features)

    def test_clean_batch_passes_untouched(self, graph):
        guard = GuardedIngest()
        legit = event_stream(graph)[0]
        rebuilt = guard.apply(graph[0], legit, step=1)
        assert guard.dlq.letters == []
        assert guard.metrics.dead_letter_events == 0
        assert_snapshots_identical(rebuilt, apply_events(graph[0], legit))

    def test_survivors_apply_strictly(self, graph):
        """Whatever the guard passes must be accepted by strict replay."""
        guard = GuardedIngest()
        legit = event_stream(graph)[0].events()
        poison = [
            UpdateEvent(UpdateKind.EDGE_DELETE, 0, (0, 0)),
            UpdateEvent("garbage", 0),
        ]
        rebuilt = guard.apply(graph[0], legit + poison, step=1)
        assert len(guard.dlq.letters) == len(poison)
        assert all(
            letter.payload is ev
            for letter, ev in zip(guard.dlq.letters, poison)
        )
        # must not raise, and must be what the guard built
        assert_snapshots_identical(rebuilt, apply_events(graph[0], legit))

    @staticmethod
    def _counting(calls, mp):
        """Count calls to the named ``repro.graphs.updates`` functions."""
        import repro.graphs.updates as updates_mod

        for name in calls:
            real = getattr(updates_mod, name)

            def wrapper(*args, _name=name, _real=real, **kwargs):
                calls[_name] += 1
                return _real(*args, **kwargs)

            mp.setattr(updates_mod, name, wrapper)

    def test_clean_batch_is_validated_once_on_its_arrays(self, graph):
        """``apply`` lets the strict replay be the validator: a clean
        :class:`EventBatch` has its rows and its replay rules checked
        once, on its arrays, inside ``apply_events``; no event is
        validated and nothing is replayed."""
        calls = dict.fromkeys(
            ("_row_violation", "_state_violation", "event_violation",
             "apply_events_reference"), 0
        )
        legit = event_stream(graph)[0]
        guard = GuardedIngest()
        with pytest.MonkeyPatch.context() as mp:
            self._counting(calls, mp)
            rebuilt = guard.apply(graph[0], legit, step=1)
        assert calls == {"_row_violation": 1, "_state_violation": 1,
                         "event_violation": 0, "apply_events_reference": 0}
        assert len(guard.dlq) == 0
        assert_snapshots_identical(rebuilt, apply_events(graph[0], legit))
        assert np.array_equal(rebuilt.indices, graph[1].indices)

    def test_hostile_batch_is_checked_once_and_replayed_once(self, graph):
        """A batch with a poison row is checked once and replayed once:
        ``event_violation`` runs once per row, and no second pass
        applies the survivors."""
        plan = FaultPlan([], seed=0)
        legit = event_stream(graph)[0]
        dup = plan.poison_event(FaultSpec(FaultKind.DUPLICATE_EVENT, 1),
                                graph[0])
        batch = EventBatch.concat([legit, dup])
        calls = dict.fromkeys(
            ("_row_violation", "_state_violation", "event_violation",
             "apply_events_reference"), 0
        )
        guard = GuardedIngest()
        with pytest.MonkeyPatch.context() as mp:
            self._counting(calls, mp)
            rebuilt = guard.apply(graph[0], batch, step=1)
        assert calls == {"_row_violation": 1, "_state_violation": 1,
                         "event_violation": len(batch),
                         "apply_events_reference": 1}
        assert [(x.row, x.payload) for x in guard.dlq.letters] == [
            (len(legit), dup.events()[0])
        ]
        assert_snapshots_identical(rebuilt, apply_events(graph[0], legit))

    def test_poison_batch_matches_filter_then_apply(self, graph):
        """The oracle is the composition ``apply`` used to be: walk the
        batch, dead-lettering poison, then apply the survivors."""
        plan = FaultPlan([], seed=0)
        legit = event_stream(graph)[0].events()
        poisons = [
            plan.poison_event(FaultSpec(kind, 1), graph[1]).events()[0]
            for kind in (FaultKind.NAN_FEATURE, FaultKind.CORRUPT_EVENT,
                         FaultKind.DUPLICATE_EVENT)
        ]
        third = len(legit) // 3
        batch = (
            legit[:third] + poisons[:1] + legit[third:2 * third]
            + poisons[1:] + legit[2 * third:]
            + [UpdateEvent("garbage", 0), "not an event"]
        )
        expected, oracle_dlq, oracle_metrics = frozen_guard(
            graph[0], batch, step=4
        )
        assert len(oracle_dlq) == len(poisons) + 2

        guard = GuardedIngest()
        got = guard.apply(graph[0], batch, step=4)
        assert [(x.step, x.row, x.reason) for x in guard.dlq.letters] == [
            (x.step, x.row, x.reason) for x in oracle_dlq.letters
        ]
        assert all(
            a.payload is b.payload
            for a, b in zip(guard.dlq.letters, oracle_dlq.letters)
        )
        assert guard.metrics.as_dict() == oracle_metrics.as_dict()
        assert guard.metrics.dead_letter_events == len(oracle_dlq)
        assert_snapshots_identical(got, expected)


class TestRetryPolicy:
    def test_delay_is_deterministic_and_grows(self):
        p = RetryPolicy(max_attempts=4, base_delay_s=0.01, factor=2.0,
                        jitter=0.1, seed=9)
        assert p.delay_s(1) == p.delay_s(1)
        assert p.delay_s(2) > p.delay_s(1)
        assert 0.01 <= p.delay_s(1) <= 0.01 * 1.1

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError, match="max_attempts"):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError, match="base_delay_s"):
            RetryPolicy(base_delay_s=-1.0)
        with pytest.raises(ValueError, match="factor"):
            RetryPolicy(factor=0.5)
        with pytest.raises(ValueError, match="jitter"):
            RetryPolicy(jitter=2.0)
        with pytest.raises(ValueError, match="seed"):
            RetryPolicy(seed=-1)
        with pytest.raises(ValueError, match="attempt"):
            RetryPolicy().delay_s(0)


class TestWithRetry:
    def test_first_try_success(self):
        result, delays = with_retry(lambda: 42)
        assert result == 42
        assert delays == []

    def test_recovers_after_transient_failures(self):
        from repro.engine import ExecutionMetrics

        calls = {"n": 0}

        def flaky():
            calls["n"] += 1
            if calls["n"] <= 2:
                raise TransientStorageError("boom")
            return "ok"

        m = ExecutionMetrics()
        result, delays = with_retry(
            flaky, policy=RetryPolicy(max_attempts=3, seed=1), metrics=m
        )
        assert result == "ok"
        assert len(delays) == 2
        assert m.retries == 2

    def test_exhaustion_raises_chained(self):
        def always():
            raise TransientStorageError("down")

        with pytest.raises(RetryExhaustedError) as exc:
            with_retry(always, policy=RetryPolicy(max_attempts=2))
        assert isinstance(exc.value.__cause__, TransientStorageError)

    def test_non_retryable_propagates(self):
        def bad():
            raise KeyError("not transient")

        with pytest.raises(KeyError):
            with_retry(bad)


class TestRetryTelemetry:
    """with_retry surfaces attempt counts and backoff into metrics."""

    def test_counters_on_success_path(self):
        from repro.engine import ExecutionMetrics

        m = ExecutionMetrics()
        result, delays = with_retry(lambda: 7, metrics=m)
        assert result == 7
        assert m.retry_attempts == 1  # one attempt, no retries
        assert m.retries == 0
        assert m.retry_backoff_ns == 0

    def test_counters_accumulate_per_failure(self):
        from repro.engine import ExecutionMetrics

        calls = {"n": 0}

        def flaky():
            calls["n"] += 1
            if calls["n"] <= 2:
                raise TransientStorageError("blip")
            return "ok"

        m = ExecutionMetrics()
        policy = RetryPolicy(max_attempts=4, base_delay_s=0.001, seed=5)
        _, delays = with_retry(flaky, policy=policy, metrics=m)
        assert m.retry_attempts == 3  # 2 failures + 1 success
        assert m.retries == 2
        expected_ns = sum(int(d * 1e9) for d in delays)
        assert m.retry_backoff_ns == expected_ns
        assert m.retry_backoff_ns > 0

    def test_counters_on_exhaustion(self):
        from repro.engine import ExecutionMetrics

        def always():
            raise TransientStorageError("down")

        m = ExecutionMetrics()
        with pytest.raises(RetryExhaustedError):
            with_retry(
                always, policy=RetryPolicy(max_attempts=3, seed=2), metrics=m
            )
        assert m.retry_attempts == 3
        assert m.retries == 3
        assert m.retry_backoff_ns > 0

    def test_telemetry_merges_across_streams(self):
        from repro.engine import ExecutionMetrics

        a, b = ExecutionMetrics(), ExecutionMetrics()
        with pytest.raises(RetryExhaustedError):
            with_retry(
                lambda: (_ for _ in ()).throw(TransientStorageError("x")),
                policy=RetryPolicy(max_attempts=2, seed=3),
                metrics=a,
            )
        _, _ = with_retry(lambda: 1, metrics=b)
        merged = a.merge(b)
        assert merged.retry_attempts == a.retry_attempts + b.retry_attempts
        assert merged.retry_backoff_ns == a.retry_backoff_ns
