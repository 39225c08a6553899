"""An allocation budget per window, read by ``tracemalloc``.

NumPy reports its data buffers to ``tracemalloc``.  So the traced
high-water mark of the push that completes a window, above the level
that push started from, is the window's transient memory: everything it
allocates at once, kept or freed again.  The blocks of the process's
scratch workspace (``engine/workspace.py``) are allocated by the first
window only and never count again.

Each stage the workspace covers has a budget of its own.  The window's
mark is set by its largest stage (a FULL update of every row), so it
alone could not see another stage go back to allocating.  Every budget
is a formula in the stream's sizes, counted in ``(n, h)`` float32
matrices, and the allocating code each stage replaced is over it:
reverting any one stage alone fails its budget (docs/performance.md,
"A window that reuses its own memory").
"""

import tracemalloc
from contextlib import contextmanager
from dataclasses import replace

import numpy as np
import pytest

import repro.engine.concurrent as concurrent
import repro.engine.streaming as streaming
from repro.adaptive import KernelChoice
from repro.adaptive.planner import RECOMPUTE_SHARE
from repro.analysis.classify import classify_window
from repro.engine import StreamingInference
from repro.graphs import dataset_spec, generate_dynamic_graph
from repro.models import make_model
from repro.models.layers import GCNStack

N, K, H = 1000, 4, 32
#: a first-layer input four times the hidden width: a per-snapshot copy
#: of it is four (n, h) matrices, not one
D = 4 * H
WINDOWS = 6
MODEL = "GC-LSTM"  # two GCN layers and a graph-convolutional LSTM cell


def budgets(n, k, d, h, layers):
    """Upper bounds in bytes on the transient high-water mark of one
    window and of the stages inside it."""
    block = 4 * n * h  # one (n, h) float32 matrix
    return {
        # the K GNN outputs, a FULL update of every row, and the
        # successor's delta baseline: the window's own copy of the
        # carried one, which a carry that is a value cannot share
        "window": (k + 14) * block,
        # a FULL update of every row: the drive, the row state, the four
        # gates and their temporaries, about a dozen matrices; the two
        # (n, 4h) products are workspace blocks
        "full_update": 12 * block,
        # less than the (K, n, d) stack of the window's features
        "classify_window": 4 * k * n * d,
        # the GNN phase: the stacked kernel below, plus the changed-set
        # accounting's row sets
        "gnn_window": (k + 2 * layers + 3) * block,
        # the stacked kernel: the K outputs and one snapshot's
        # aggregation; the stacked blocks of the layers below are
        # workspace blocks
        "forward_window": (k + 5) * block,
    }


STAGES = {
    "full_update": (concurrent, "_full_update"),
    "classify_window": (streaming, "classify_window"),
    "gnn_window": (concurrent.ConcurrentEngine, "_gnn_window"),
    "forward_window": (GCNStack, "forward_window"),
}


@contextmanager
def traced_stages():
    """Trace allocations; yields ``marks``, which :func:`window_marks`
    fills with each stage's transient above its own entry level."""
    marks: dict = {"_max": 0}

    def wrap(fn, name):
        def measured(*args, **kwargs):
            entry, peak = tracemalloc.get_traced_memory()
            marks["_max"] = max(marks["_max"], peak)
            tracemalloc.reset_peak()
            try:
                return fn(*args, **kwargs)
            finally:
                peak = tracemalloc.get_traced_memory()[1]
                marks["_max"] = max(marks["_max"], peak)
                marks[name] = max(marks.get(name, 0), peak - entry)

        return measured

    was_tracing = tracemalloc.is_tracing()
    tracemalloc.start()
    try:
        with pytest.MonkeyPatch.context() as mp:
            for name, (owner, attr) in STAGES.items():
                mp.setattr(owner, attr, wrap(getattr(owner, attr), name))
            yield marks
    finally:
        if not was_tracing:
            tracemalloc.stop()


def window_marks(stream, snapshots, marks):
    """Push ``snapshots``; one ``{mark: bytes}`` per completed window."""
    out = []
    for snap in snapshots:
        completes = stream.pending + 1 == stream.window_size
        if completes:
            marks.clear()
            marks["_max"] = 0
            start = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
        stream.push(snap)
        if completes:
            peak = max(tracemalloc.get_traced_memory()[1], marks.pop("_max"))
            out.append(dict(marks, window=peak - start))
    return out


def _graph(scale):
    spec = dataset_spec("GT", num_snapshots=K * WINDOWS, seed=3, dim=D)
    churn = replace(
        spec.churn.scaled(scale), vertex_arrival_frac=0.0, vertex_departure_frac=0.0
    )
    graph = generate_dynamic_graph(replace(spec, churn=churn))
    assert (graph.num_vertices, graph.dim) == (N, D)
    return graph


def changed_shares(graph):
    return [
        np.count_nonzero(classify_window(graph.window(t, K)).labels) / N
        for t in range(0, graph.num_snapshots, K)
    ]


@pytest.mark.parametrize(
    "churn, kernel",
    [(0.25, None), (0.25, KernelChoice.BATCHED_SPMM), (3.0, None)],
    ids=["changed-set", "recompute", "high-churn"],
)
def test_each_window_stays_in_its_budget(churn, kernel, forced_planner):
    graph = _graph(churn)
    # an unplanned window is counted as the changed-set dataflow below
    # the share; every window runs the stacked kernel
    shares = changed_shares(graph)
    if churn < 1.0:
        assert max(shares) < RECOMPUTE_SHARE, shares
    else:
        assert min(shares) >= RECOMPUTE_SHARE, shares
    model = make_model(MODEL, D, H, seed=3)
    stream = StreamingInference(
        model,
        window_size=K,
        planner=None if kernel is None else forced_planner(kernel),
    )
    with traced_stages() as marks:
        # the first window allocates the carry, the delta cache and the
        # workspace's blocks: it is not a steady-state window
        later = window_marks(stream, graph.snapshots, marks)[1:]
    assert len(later) == WINDOWS - 1

    block = 4 * N * H
    windows = [m["window"] for m in later]
    # the same in every window: Python's own bookkeeping moves it by a
    # few hundred bytes, under one hundredth of a matrix (a passing
    # contract check formats no message: the repr of its arguments once
    # moved it by over a kilobyte, depending on what ran before)
    assert max(windows) - min(windows) < block / 100, windows
    bounds = budgets(N, K, D, H, len(model.gnn.layers))
    for name in bounds:
        worst = max(m[name] for m in later)
        assert worst <= bounds[name], (name, worst / block, bounds[name] / block)
