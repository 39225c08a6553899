"""The scratch workspace never escapes a window and is never re-entered.

``ConcurrentEngine.step`` leases the process's one
:data:`~repro.engine.WORKSPACE` and writes the window's large
temporaries into its blocks (``engine/workspace.py``).  That is safe
when three things hold, and these tests pin them:

* nothing a window releases, carries or keeps aliases a block: the
  outputs, the successor carry's state, ``h_prev`` and ``z_prev``, and
  the delta baseline ``z_input``;
* a lease is never nested, and an exception inside ``step`` gives it
  back;
* the outputs are the skipping oracle's (``oracle.py``), or with
  skipping off the reference engine's, and after a window degraded to
  the reference engine they are those of a run whose every block taken
  is a fresh array.
"""

from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.adaptive import AdaptivePlanner, KernelChoice
from repro.analysis.classify import _feature_pairs
from repro.engine import (
    WORKSPACE,
    Carry,
    ConcurrentEngine,
    ExecutionMetrics,
    ReferenceEngine,
    StreamingInference,
    Workspace,
)
from repro.models import MODEL_ZOO, make_model
from repro.models.activations import ACTIVATIONS
from repro.models.layers import GCNLayer, _matmul_rows
from repro.resilience import ResilientStreamingInference
from repro.skipping.policy import SkipThresholds

from . import oracle
from .test_owned_rows import owner_map, released
from .test_window_work import random_window

SNAPSHOTS = 7  # windows of 3 and 4 leave a trailing partial window


def _alloc_matmul_rows(a, w):
    if len(a) == 1:
        return (np.concatenate([a, a]) @ w)[:1]
    return a @ w


def _alloc_combine(layer, x):
    return _alloc_matmul_rows(x, layer.weight) + layer.bias


def _fresh_take(self, name, shape, dtype=np.float32, *, reserve=None):
    return np.empty(shape, dtype)


# ----------------------------------------------------------------------
# what a window keeps
# ----------------------------------------------------------------------
def state_arrays(carry):
    return [v for k, v in vars(carry.state).items() if not k.startswith("_")]


def carried(carry):
    """The arrays a carry holds: ``h_prev``, ``z_prev``, the state and
    the delta baseline."""
    arrays = [carry.h_prev, carry.z_prev] + state_arrays(carry)
    if carry.cache is not None:
        arrays.append(carry.cache.z_input)
    return arrays


def assert_no_alias(arrays):
    for block in WORKSPACE.blocks():
        for a in arrays:
            assert not np.shares_memory(a, block)


@contextmanager
def checked_steps():
    """Check every concurrent step's kept arrays as it returns (a block
    that grows later would hide an alias of its old memory); yields the
    number of windows checked."""
    count = [0]
    real = ConcurrentEngine.step

    def step(self, *args, **kwargs):
        successor, outputs = real(self, *args, **kwargs)
        assert_no_alias(list(outputs) + carried(successor))
        count[0] += 1
        return successor, outputs

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ConcurrentEngine, "step", step)
        yield count


class _ProbeEveryWindow(AdaptivePlanner):
    """Thresholds off the defaults and a drift probe on every window:
    each window runs twice, and the replay's outputs are held while the
    real window runs."""

    def thresholds(self) -> SkipThresholds:
        return SkipThresholds(-0.2, 0.2)

    def wants_probe(self) -> bool:
        return True


PLANNERS = ["static", "delta-condensed", "batched-spmm", "probe"]


def make_planner(kind, forced_planner):
    if kind == "static":
        return None
    if kind == "probe":
        return _ProbeEveryWindow()
    return forced_planner(KernelChoice(kind))


def play(graph, make, owner, shards, **kwargs):
    """One stream per shard (``shards == 0``: one stream owning no rows
    in particular); every stream's released outputs and final carry."""
    played = []
    for shard in range(max(shards, 1)):
        rows = None if shards == 0 else np.flatnonzero(owner == shard)
        stream = StreamingInference(make(), rows=rows, **kwargs)
        played.append((released(stream, graph), stream.carry))
    return played


def reference(model, graph, window):
    """``ReferenceEngine.run``'s outputs, and its final carry."""
    engine = ReferenceEngine(model, window_size=window)
    carry, outputs = Carry(window_size=window), []
    for start in range(0, len(graph), window):
        carry, outs = engine.step(
            carry, graph.snapshots[start : start + window], ExecutionMetrics()
        )
        outputs += outs
    return outputs, carry


def assert_same_play(got, want):
    assert len(got) == len(want)
    for (outs, carry), (outs_w, carry_w) in zip(got, want):
        assert [o.tobytes() for o in outs] == [o.tobytes() for o in outs_w]
        assert [a.tobytes() for a in carried(carry)] == [
            a.tobytes() for a in carried(carry_w)
        ]


# ----------------------------------------------------------------------
class TestNothingEscapes:
    @given(
        seed=st.integers(0, 10_000),
        model_name=st.sampled_from(sorted(MODEL_ZOO)),
        skipping=st.booleans(),
        shards=st.sampled_from([0, 1, 4]),
        window=st.sampled_from([1, 3, 4]),
        planner=st.sampled_from(PLANNERS),
        hidden=st.sampled_from([2, 8, 16]),  # < dim: the first layer shrinks
    )
    @settings(max_examples=80, deadline=None)
    def test_outputs_are_the_oracles_and_alias_no_block(
        self, forced_planner, seed, model_name, skipping, shards, window,
        planner, hidden,
    ):
        graph = random_window(seed, 24, SNAPSHOTS, dim=12)
        owner = owner_map(seed, graph.num_vertices, max(shards, 1))

        def make():
            return make_model(model_name, graph.dim, hidden, seed=seed)

        with checked_steps() as windows:
            played = play(
                graph,
                make,
                owner,
                shards,
                window_size=window,
                enable_skipping=skipping,
                planner=make_planner(planner, forced_planner),
            )
        probes = 2 if planner == "probe" else 1
        streams = max(shards, 1)
        assert windows[0] == streams * probes * -(-SNAPSHOTS // window)
        if hidden < 8:  # a row-count-dependent product (ROADMAP item 5)
            return
        if skipping:
            thresholds = (-0.2, 0.2) if planner == "probe" else (-0.5, 0.5)
            want, _, want_carry, _ = oracle.run(
                make(), graph, window_size=window, thresholds=thresholds
            )
            kept = carried
        else:
            # the reference keeps no delta baseline
            want, want_carry = reference(make(), graph, window)

            def kept(carry):
                return [carry.z_prev] + state_arrays(carry)
        for shard, (outs, carry) in enumerate(played):
            rows = slice(None) if shards == 0 else owner == shard
            assert [a[rows].tobytes() for a in outs + kept(carry)] == [
                a[rows].tobytes() for a in want + kept(want_carry)
            ]


class TestLease:
    def test_a_nested_lease_raises(self):
        with WORKSPACE.lease():
            with pytest.raises(RuntimeError, match="already leased"):
                with WORKSPACE.lease():
                    pass
        with WORKSPACE.lease():  # and the outer one was given back
            pass

    def test_blocks_are_taken_under_a_lease_only(self):
        with pytest.raises(RuntimeError, match="under a lease"):
            WORKSPACE.take("x", (2, 2))

    def test_a_block_grows_and_is_never_shrunk(self):
        ws = Workspace()
        with ws.lease():
            small = ws.take("b", (2, 3))
            big = ws.take("b", (4, 3), np.float64)
            again = ws.take("b", (1, 3))
        assert small.flags.c_contiguous and big.flags.c_contiguous
        assert big.shape == (4, 3) and big.dtype == np.float64
        assert [b.nbytes for b in ws.blocks()] == [4 * 3 * 8]
        assert np.shares_memory(again, ws.blocks()[0])

    def test_a_reserved_block_grows_once(self):
        ws = Workspace()
        with ws.lease():
            small = ws.take("b", (2, 3), reserve=(10, 3))
            (block,) = ws.blocks()
            big = ws.take("b", (10, 3), reserve=(10, 3))
            bigger = ws.take("b", (11, 3), reserve=(10, 3))  # past it: fits
        assert block.nbytes == 10 * 3 * 4
        assert np.shares_memory(small, block) and np.shares_memory(big, block)
        assert bigger.shape == (11, 3)
        assert [b.nbytes for b in ws.blocks()] == [11 * 3 * 4]

    @pytest.mark.parametrize("model_name", ["GC-LSTM", "T-GCN"])
    def test_an_exception_inside_step_gives_the_lease_back(self, model_name):
        graph = random_window(3, 24, 8)
        stream = StreamingInference(make_model(model_name, graph.dim, 8, seed=3))

        def broken(*args, **kwargs):
            raise FloatingPointError("injected inside the window body")

        for snap in graph.snapshots[:3]:
            stream.push(snap.copy())
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(ConcurrentEngine, "_rnn_step", broken)
            with pytest.raises(FloatingPointError):
                stream.push(graph[3].copy())
        with WORKSPACE.lease():
            pass
        for snap in graph.snapshots[4:]:  # a fresh window runs on the workspace
            stream.push(snap.copy())

    @pytest.mark.parametrize("model_name", sorted(MODEL_ZOO))
    def test_a_window_degraded_to_the_reference_engine(self, model_name):
        """A fault inside the second window's body: the supervisor
        degrades it to ``ReferenceEngine``, and the windows after it
        run on the workspace again, with the bits of a run whose every
        block taken is a fresh array."""
        graph = random_window(11, 24, 12)
        real = ConcurrentEngine._rnn_step
        calls = [0]

        def faulty(self, *args, **kwargs):
            calls[0] += 1
            if calls[0] == 5:  # the second window's first snapshot
                raise RuntimeError("injected engine fault")
            return real(self, *args, **kwargs)

        def run():
            calls[0] = 0
            stream = ResilientStreamingInference(
                make_model(model_name, graph.dim, 8, seed=11), window_size=4
            )
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(ConcurrentEngine, "_rnn_step", faulty)
                outs = released(stream, graph)
            assert stream.metrics.fallback_windows == 1
            return [(outs, stream.stream.carry)]

        with checked_steps() as windows:
            got = run()
        assert windows[0] == 2  # the first and the third; the second raised
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(Workspace, "take", _fresh_take)
            want = run()
        assert_same_play(got, want)


class TestStageOracles:
    """The stages that changed, each against the code it replaced."""

    @given(
        seed=st.integers(0, 10_000),
        k=st.integers(1, 5),
    )
    @settings(max_examples=60, deadline=None)
    def test_pairwise_feature_compare_is_the_stacked_one(self, seed, k):
        snaps = random_window(seed, 30, k).snapshots
        feats = np.stack([s.features for s in snaps])  # (K, n, d)
        want = (feats[1:] == feats[:-1]).all(axis=(0, 2))
        got = np.ones(len(want), dtype=bool)
        for same in _feature_pairs(snaps):
            got &= same
        np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("rows", [0, 1, 2, 57])
    @pytest.mark.parametrize("inner", [8, 64])
    def test_matmul_and_combine_into_out(self, rows, inner):
        rng = np.random.default_rng(rows + inner)
        a = rng.standard_normal((rows, inner)).astype(np.float32)
        layer = GCNLayer.create(inner, 5, seed=rows)
        out = np.full((rows, 5), np.nan, dtype=np.float32)
        got = _matmul_rows(a, layer.weight, out=out)
        assert got is out
        assert got.tobytes() == _alloc_matmul_rows(a, layer.weight).tobytes()
        out = np.full((rows, 5), np.nan, dtype=np.float32)
        assert layer.combine(a, out=out) is out
        assert out.tobytes() == _alloc_combine(layer, a).tobytes()

    @pytest.mark.parametrize("name", sorted(ACTIVATIONS))
    def test_an_activation_in_place(self, name):
        act = ACTIVATIONS[name]
        x = np.random.default_rng(5).standard_normal((40, 7)).astype(np.float32)
        x[0, :3] = [np.nan, np.inf, -np.inf]
        want = act(x.copy())
        assert act(x, out=x) is x
        assert x.tobytes() == want.tobytes()
