"""Tests for guarded ingestion: validation, dead-lettering, retry."""

import copy

import numpy as np
import pytest

from repro.graphs import (
    UpdateEvent,
    UpdateKind,
    apply_events,
    event_stream,
    load_dataset,
)
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
        rebuilt = guard.apply(graph[0], legit + poisons, step=1)
        # poisons quarantined, clean remainder rebuilds the true successor
        assert len(guard.dlq) == len(poisons)
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
        legit = list(event_stream(graph)[0])
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

    def test_clean_batch_is_decoded_and_validated_once(self, graph):
        """``apply`` lets the strict replay be the validator: one decode
        and one validation per clean batch, inside ``apply_events``."""
        calls = {"_decode_events": 0, "_decoded_violation": 0,
                 "event_violation": 0}
        legit = event_stream(graph)[0]
        guard = GuardedIngest()
        with pytest.MonkeyPatch.context() as mp:
            self._counting(calls, mp)
            rebuilt = guard.apply(graph[0], iter(legit), step=1)
        assert calls == {"_decode_events": 1, "_decoded_violation": 1,
                         "event_violation": 0}
        assert len(guard.dlq) == 0
        assert np.array_equal(rebuilt.indices, graph[1].indices)

    def test_hostile_batch_is_decoded_once_and_replayed_once(self, graph):
        """A batch with a poison event is decoded once and replayed once:
        ``event_violation`` runs once per event, and no second pass
        applies the survivors."""
        plan = FaultPlan([], seed=0)
        legit = list(event_stream(graph)[0])
        dup = plan.poison_event(FaultSpec(FaultKind.DUPLICATE_EVENT, 1),
                                graph[0])
        batch = legit[: len(legit) // 2] + [dup] + legit[len(legit) // 2:]
        calls = {"_decode_events": 0, "_decoded_violation": 0,
                 "event_violation": 0}
        guard = GuardedIngest()
        with pytest.MonkeyPatch.context() as mp:
            self._counting(calls, mp)
            rebuilt = guard.apply(graph[0], batch, step=1)
        assert calls == {"_decode_events": 1, "_decoded_violation": 1,
                         "event_violation": len(batch)}
        assert [x.payload for x in guard.dlq.letters] == [dup]
        assert_snapshots_identical(rebuilt, apply_events(graph[0], legit))

    def test_poison_batch_matches_filter_then_apply(self, graph):
        """The oracle is the composition ``apply`` used to be: walk the
        batch, dead-lettering poison, then apply the survivors."""
        plan = FaultPlan([], seed=0)
        legit = list(event_stream(graph)[0])
        poisons = [
            plan.poison_event(FaultSpec(kind, 1), graph[1])
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
        assert [(x.step, x.reason) for x in guard.dlq.letters] == [
            (x.step, x.reason) for x in oracle_dlq.letters
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
