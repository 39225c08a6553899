"""Each consecutive pair of a window is compared once.

``classify_window`` compares every consecutive pair's features and keeps
the masks (``WindowClassification.feature_pairs``) and the neighbour
counts they weigh, which θ's weights divide; the θ stage compares only
the pair across the window boundary, and only when it scores the first
snapshot (``refresh_each_window`` off).  That the outputs are those of a
compare of every pair is the skipping oracle's property
(``test_engine_properties.py``).
"""

import numpy as np
import pytest

from repro.analysis import classify_window
from repro.engine import Carry, ExecutionMetrics
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
