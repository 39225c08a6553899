"""Each consecutive pair of a window is compared once.

``classify_window`` compares every consecutive pair's features and keeps
the masks (``WindowClassification.feature_pairs``); the cell phase reads
them for the window's later snapshots and compares only the pair across
the window boundary, and only when it scores the first snapshot
(``refresh_each_window`` off).  The oracle below is the compare the
cell phase made for every pair before, with θ's neighbour weights
merged per call instead of read from the classification's memo:
outputs must not change by a bit.
"""

import numpy as np
import pytest

from repro.adaptive import AdaptivePlanner
from repro.analysis import classify_window
from repro.engine import Carry, ExecutionMetrics, StreamingInference
from repro.engine.concurrent import ConcurrentEngine
from repro.graphs import CSRSnapshot, DynamicGraph, load_dataset
from repro.models import make_model

WINDOW = 4
HIDDEN = 8


@pytest.fixture(scope="module")
def graph():
    return load_dataset("GT", scale=0.1, num_snapshots=13, seed=5)


class _Counted(np.ndarray):
    """Snapshot features that count the ``==`` compares made between
    two of them."""

    compares = 0

    def __eq__(self, other):
        if isinstance(other, _Counted) and other.shape == self.shape:
            _Counted.compares += 1
        return np.equal(np.asarray(self), np.asarray(other))


def _counted(graph) -> DynamicGraph:
    return DynamicGraph([
        CSRSnapshot(s.indptr, s.indices, s.features.view(_Counted), s.present)
        for s in graph
    ])


@pytest.mark.parametrize("refresh", [True, False])
def test_the_cell_phase_compares_no_pair_inside_a_window(graph, refresh):
    g = _counted(graph)
    model = make_model("T-GCN", g.dim, HIDDEN, seed=2)
    engine = ConcurrentEngine(model, window_size=WINDOW)
    engine.refresh_each_window = refresh
    carry = Carry(window_size=WINDOW)
    m = ExecutionMetrics()
    for w, start in enumerate(range(0, 12, WINDOW)):
        window = g.window(start, WINDOW)
        _Counted.compares = 0
        cls = classify_window(window)
        assert _Counted.compares == WINDOW - 1  # classification's pairs
        _Counted.compares = 0
        carry, _ = engine.step(carry, window, cls, None, m)
        # only the pair across the boundary, when the first snapshot of
        # a window after the first is scored
        assert _Counted.compares == (0 if refresh or w == 0 else 1)


def _outputs(model_name, graph, *, rows=None, planner=None, refresh=True):
    stream = StreamingInference(
        make_model(model_name, graph.dim, HIDDEN, seed=2),
        window_size=WINDOW, rows=rows, planner=planner,
    )
    stream._engine.refresh_each_window = refresh
    outs = []
    for snap in graph:
        result = stream.push(snap.copy())
        if result is not None:
            outs += result.outputs
    result = stream.flush()
    if result is not None:
        outs += result.outputs
    return outs if rows is None else [o[rows] for o in outs]


@pytest.mark.parametrize(
    "model_name, how",
    [
        ("T-GCN", "static"),
        ("GC-LSTM", "static"),
        ("T-GCN", "no-refresh"),
        ("GC-LSTM", "no-refresh"),
        ("CD-GCN", "planned"),
        ("T-GCN", "owned-rows"),
        ("GC-LSTM", "owned-rows"),
    ],
)
def test_outputs_are_the_compare_every_pair_outputs(
    graph, model_name, how, monkeypatch
):
    kwargs = {
        "static": {},
        "no-refresh": {"refresh": False},
        "planned": {"planner": AdaptivePlanner()},
        "owned-rows": {"rows": np.arange(1, graph.num_vertices, 3)},
    }[how]
    got = _outputs(model_name, graph, **kwargs)
    step = ConcurrentEngine._rnn_step

    def compare_every_pair(self, *args, pair, **kw):
        return step(self, *args, pair=None, **kw)

    monkeypatch.setattr(ConcurrentEngine, "_rnn_step", compare_every_pair)
    if how == "planned":
        kwargs["planner"] = AdaptivePlanner()
    want = _outputs(model_name, graph, **kwargs)
    assert len(got) == len(want) == graph.num_snapshots
    for a, b in zip(got, want):
        assert a.tobytes() == b.tobytes()
