"""Tests for the seeded fault injectors."""

import numpy as np
import pytest

from repro.check.sanitizer import SanitizerViolation
from repro.graphs import CSRSnapshot, load_dataset
from repro.resilience import (
    ENGINE_FAULTS,
    EVENT_FAULTS,
    FaultKind,
    FaultPlan,
    FaultSpec,
    FlakyHBM,
    GuardedIngest,
    SHARD_FAULTS,
    SNAPSHOT_FAULTS,
    STORAGE_FAULTS,
    STREAM_FAULTS,
    TransientStorageError,
    snapshot_violation,
)


@pytest.fixture(scope="module")
def graph():
    return load_dataset("GT", num_snapshots=4, seed=3)


class TestFaultSpec:
    def test_negative_step_rejected(self):
        with pytest.raises(ValueError, match="step"):
            FaultSpec(FaultKind.NAN_FEATURE, -1)

    def test_non_kind_rejected(self):
        with pytest.raises(ValueError, match="FaultKind"):
            FaultSpec("nan_feature", 1)

    def test_shard_kind_requires_shard_index(self):
        with pytest.raises(ValueError, match="shard index"):
            FaultSpec(FaultKind.WORKER_CRASH, 1)
        spec = FaultSpec(FaultKind.WORKER_CRASH, 1, 2)
        assert spec.shard == 2

    def test_bad_shard_rejected(self):
        with pytest.raises(ValueError, match="shard"):
            FaultSpec(FaultKind.WORKER_STALL, 1, -2)


class TestFaultPlan:
    def test_generation_is_deterministic(self):
        a = FaultPlan.generate(seed=5, num_steps=8)
        b = FaultPlan.generate(seed=5, num_steps=8)
        assert a.specs == b.specs
        assert len(a) == len(STREAM_FAULTS)

    def test_steps_in_range_and_counts(self):
        plan = FaultPlan.generate(seed=11, num_steps=6, per_kind=3)
        assert all(1 <= s.step < 6 for s in plan.specs)
        counts = plan.counts()
        assert set(counts) == {k.value for k in STREAM_FAULTS}
        assert all(v == 3 for v in counts.values())
        assert sum(counts.values()) == len(plan)

    def test_generate_rejects_shard_kinds(self):
        with pytest.raises(ValueError, match="generate_cluster"):
            FaultPlan.generate(
                seed=0, num_steps=4, kinds=[FaultKind.WORKER_CRASH]
            )

    def test_generate_cluster_covers_every_shard(self):
        plan = FaultPlan.generate_cluster(seed=9, num_steps=8, num_shards=4)
        again = FaultPlan.generate_cluster(seed=9, num_steps=8, num_shards=4)
        assert plan.specs == again.specs
        assert plan.shards_touched() == frozenset(range(4))
        assert len(plan) == 4 * len(SHARD_FAULTS)
        assert all(1 <= s.step < 8 for s in plan.specs)
        assert all(s.kind in SHARD_FAULTS for s in plan.specs)
        # every shard gets every shard-level kind at least once
        for shard in range(4):
            kinds = {s.kind for s in plan.specs if s.shard == shard}
            assert kinds == SHARD_FAULTS

    def test_generate_cluster_rejects_stream_kinds(self):
        with pytest.raises(ValueError, match="shard-level"):
            FaultPlan.generate_cluster(
                seed=0, num_steps=4, num_shards=2,
                kinds=[FaultKind.NAN_FEATURE],
            )

    def test_spec_accessors_partition_the_plan(self):
        plan = FaultPlan.generate(seed=2, num_steps=5)
        split = []
        for t in range(5):
            split += plan.event_specs(t)
            split += plan.snapshot_specs(t)
            split += plan.engine_specs(t)
        split += [s for s in plan.specs if s.kind in STORAGE_FAULTS]
        assert sorted(split, key=lambda s: (s.step, s.kind.value)) == plan.specs
        assert plan.storage_failures() == 1

    def test_too_few_steps_rejected(self):
        with pytest.raises(ValueError, match="at least 2"):
            FaultPlan.generate(seed=0, num_steps=1)
        with pytest.raises(ValueError, match="per_kind"):
            FaultPlan.generate(seed=0, num_steps=4, per_kind=0)

    def test_kind_partitions_cover_every_kind(self):
        assert STREAM_FAULTS == (
            EVENT_FAULTS | SNAPSHOT_FAULTS | ENGINE_FAULTS | STORAGE_FAULTS
        )
        assert STREAM_FAULTS | SHARD_FAULTS == frozenset(FaultKind)
        assert not STREAM_FAULTS & SHARD_FAULTS


class TestPoisonFactories:
    @pytest.mark.parametrize("kind", sorted(EVENT_FAULTS, key=lambda k: k.value))
    def test_every_poison_event_is_rejected(self, graph, kind):
        """Each event-level factory yields exactly one invalid event."""
        plan = FaultPlan([], seed=0)
        snap = graph[1]
        ev = plan.poison_event(FaultSpec(kind, 1), snap)
        guard = GuardedIngest()
        guard.apply(snap, [ev], step=1)
        assert [letter.payload for letter in guard.dlq.letters] == [ev]

    def test_poison_event_rejects_non_event_kind(self, graph):
        plan = FaultPlan([], seed=0)
        with pytest.raises(ValueError, match="not an event-level fault"):
            plan.poison_event(FaultSpec(FaultKind.TRUNCATED_SNAPSHOT, 1), graph[0])

    def test_corrupt_snapshot_is_caught_by_validation(self, graph):
        plan = FaultPlan([], seed=0)
        torn = plan.corrupt_snapshot(
            FaultSpec(FaultKind.TRUNCATED_SNAPSHOT, 1), graph[0]
        )
        assert snapshot_violation(torn) is not None
        # the original is untouched
        assert snapshot_violation(graph[0]) is None

    def test_corrupt_snapshot_edgeless_graph(self):
        n, dim = 4, 2
        snap = CSRSnapshot.from_edges(
            n, np.empty((0, 2), dtype=np.int64),
            features=np.zeros((n, dim), dtype=np.float32),
        )
        plan = FaultPlan([], seed=0)
        torn = plan.corrupt_snapshot(
            FaultSpec(FaultKind.TRUNCATED_SNAPSHOT, 1), snap
        )
        assert snapshot_violation(torn) is not None

    def test_corrupt_snapshot_rejects_wrong_kind(self, graph):
        plan = FaultPlan([], seed=0)
        with pytest.raises(ValueError, match="not a snapshot-level fault"):
            plan.corrupt_snapshot(FaultSpec(FaultKind.NAN_FEATURE, 1), graph[0])

    def test_violation_factory(self):
        plan = FaultPlan([], seed=0)
        v = plan.violation(FaultSpec(FaultKind.SANITIZER_VIOLATION, 3))
        assert isinstance(v, SanitizerViolation)
        assert "step3" in v.where
        assert v.component == "resilience"
        with pytest.raises(ValueError, match="not an engine-level fault"):
            plan.violation(FaultSpec(FaultKind.NAN_FEATURE, 3))


class TestFlakyHBM:
    def _inner(self):
        from repro.accel import TaGNNConfig

        return TaGNNConfig().hbm()

    def test_fails_first_n_then_delegates(self):
        inner = self._inner()
        flaky = FlakyHBM(inner, failures=2)
        for _ in range(2):
            with pytest.raises(TransientStorageError):
                flaky.cycles(words=10.0, randoms=1.0)
        assert flaky.cycles(words=10.0, randoms=1.0) == inner.cycles(
            words=10.0, randoms=1.0
        )
        assert flaky.calls == 3

    def test_zero_failures_is_transparent(self):
        inner = self._inner()
        flaky = FlakyHBM(inner, failures=0)
        assert flaky.cycles(words=5.0) == inner.cycles(words=5.0)

    def test_negative_failures_rejected(self):
        with pytest.raises(ValueError, match="failures"):
            FlakyHBM(self._inner(), failures=-1)
