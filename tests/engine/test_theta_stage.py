"""A window scores all its snapshot pairs in one θ stage.

``ConcurrentEngine.step`` decides every cell mode of a window between
its GNN and cell phases: one ``similarity_scores`` call over every
scored pair and one ``SkippingPolicy.decide``, whatever runs the window
(a batch run, a pushed stream, a cluster shard) and whether or not the
pair across the window boundary is scored.  A window that scores no
pair makes neither call.  The decisions still come one per pair, in
pair order, with the skipping oracle's bits.
"""

from contextlib import contextmanager

import numpy as np
import pytest

import repro.engine.concurrent as concurrent_mod
from repro.engine import ConcurrentEngine, StreamingInference
from repro.models import make_model
from repro.skipping.policy import SkippingPolicy

from . import oracle
from .test_engine_properties import cluster_released, random_graph
from .test_owned_rows import released

K = 4
#: two full windows and a trailing one of one snapshot
SNAPSHOTS = 2 * K + 1


@contextmanager
def stage_calls():
    """Per window run, ``[similarity calls, decide calls]``."""
    windows = []
    real_step = ConcurrentEngine.step
    real_score = concurrent_mod.similarity_scores
    real_decide = SkippingPolicy.decide

    def step(self, *args, **kwargs):
        windows.append([0, 0])
        return real_step(self, *args, **kwargs)

    def score(*args, **kwargs):
        windows[-1][0] += 1
        return real_score(*args, **kwargs)

    def decide(self, *args, **kwargs):
        windows[-1][1] += 1
        return real_decide(self, *args, **kwargs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ConcurrentEngine, "step", step)
        mp.setattr(concurrent_mod, "similarity_scores", score)
        mp.setattr(SkippingPolicy, "decide", decide)
        yield windows


def scored_pairs(refresh):
    """The pairs each window of the graph scores: K - 1 inside a full
    window, none inside the trailing one, and the pair across the
    boundary once a window has run, unless the window refreshes."""
    sizes = [K, K, SNAPSHOTS - 2 * K]
    return [
        k - 1 + (0 if refresh or w == 0 else 1) for w, k in enumerate(sizes)
    ]


def one_stage_each(pairs):
    """One θ stage in each window that scores a pair, none elsewhere."""
    return [[int(p > 0)] * 2 for p in pairs]


@pytest.fixture(scope="module")
def graph():
    return random_graph(5, t=SNAPSHOTS, churn_scale=3.0, turnover=0.05)


def make(graph):
    return make_model("GC-LSTM", graph.dim, 16, seed=5)


@pytest.mark.parametrize("refresh", [True, False], ids=["refresh", "carried"])
def test_a_batch_run_scores_each_window_once(graph, refresh):
    engine = ConcurrentEngine(make(graph), window_size=K,
                              refresh_each_window=refresh)
    with stage_calls() as windows:
        result = engine.run(graph)
    pairs = scored_pairs(refresh)
    assert windows == one_stage_each(pairs)
    # one decision per pair, in pair order, with the oracle's bits
    _, want, _, _ = oracle.run(
        make(graph), graph, window_size=K, refresh_each_window=refresh
    )
    got = result.extra["decisions"]
    assert len(got) == len(want) == sum(pairs)
    for decision, (vertices, modes, theta) in zip(got, want):
        np.testing.assert_array_equal(decision.vertices, vertices)
        np.testing.assert_array_equal(decision.modes, modes)
        assert decision.theta.tobytes() == theta.tobytes()


@pytest.mark.parametrize("refresh", [True, False], ids=["refresh", "carried"])
def test_a_pushed_stream_scores_each_window_once(graph, refresh):
    stream = StreamingInference(make(graph), window_size=K)
    stream._engine.refresh_each_window = refresh
    with stage_calls() as windows:
        released(stream, graph)
    assert windows == one_stage_each(scored_pairs(refresh))


@pytest.mark.parametrize("refresh", [True, False], ids=["refresh", "carried"])
def test_each_cluster_shard_scores_each_window_once(graph, refresh):
    with stage_calls() as windows:
        cluster_released(lambda: make(graph), graph, 2, K, refresh)
    # each of the two shards runs every window of the graph
    assert sorted(windows) == sorted(one_stage_each(scored_pairs(refresh)) * 2)


def test_skipping_off_scores_nothing(graph):
    engine = ConcurrentEngine(make(graph), window_size=K, enable_skipping=False)
    with stage_calls() as windows:
        engine.run(graph)
    assert windows == [[0, 0]] * 3
