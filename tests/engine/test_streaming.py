"""Tests for push-based streaming inference."""

import re

import numpy as np
import pytest

from repro.engine import ConcurrentEngine, StreamingInference
from repro.graphs import load_dataset
from repro.models import MODEL_ZOO, make_model


@pytest.fixture(scope="module")
def graph():
    return load_dataset("GT", num_snapshots=10)


def run_stream(model, graph, window=4, **kw):
    stream = StreamingInference(model, window_size=window, **kw)
    outs, stamps = [], []
    for snap in graph:
        r = stream.push(snap)
        if r:
            outs.extend(r.outputs)
            stamps.extend(r.timestamps)
    r = stream.flush()
    if r:
        outs.extend(r.outputs)
        stamps.extend(r.timestamps)
    return outs, stamps, stream


class TestStreamingEquivalence:
    @pytest.mark.parametrize("name", sorted(MODEL_ZOO))
    def test_stream_equals_batch(self, graph, name):
        """Pushing snapshot-by-snapshot must reproduce the batch engine's
        outputs bit-for-bit (including the trailing partial window)."""
        batch = ConcurrentEngine(
            make_model(name, graph.dim, 16, seed=1), window_size=4
        ).run(graph)
        outs, stamps, _ = run_stream(
            make_model(name, graph.dim, 16, seed=1), graph
        )
        assert stamps == list(range(10))
        for a, b in zip(outs, batch.outputs):
            np.testing.assert_array_equal(a, b)

    def test_stream_equals_batch_no_skipping(self, graph):
        batch = ConcurrentEngine(
            make_model("T-GCN", graph.dim, 16, seed=1),
            window_size=3,
            enable_skipping=False,
        ).run(graph)
        outs, _, _ = run_stream(
            make_model("T-GCN", graph.dim, 16, seed=1), graph,
            window=3, enable_skipping=False,
        )
        for a, b in zip(outs, batch.outputs):
            np.testing.assert_array_equal(a, b)


class TestStreamingAPI:
    def test_results_only_on_full_windows(self, graph):
        stream = StreamingInference(
            make_model("T-GCN", graph.dim, 16, seed=1), window_size=4
        )
        assert stream.push(graph[0]) is None
        assert stream.pending == 1
        assert stream.push(graph[1]) is None
        assert stream.push(graph[2]) is None
        r = stream.push(graph[3])
        assert r is not None and len(r.outputs) == 4
        assert stream.pending == 0

    def test_flush_partial_window(self, graph):
        stream = StreamingInference(
            make_model("T-GCN", graph.dim, 16, seed=1), window_size=4
        )
        stream.push(graph[0])
        stream.push(graph[1])
        r = stream.flush()
        assert r is not None and len(r.outputs) == 2
        assert stream.flush() is None  # nothing left

    def test_metrics_accumulate(self, graph):
        _, _, stream = run_stream(
            make_model("T-GCN", graph.dim, 16, seed=1), graph
        )
        assert stream.metrics.snapshots_processed == 10
        assert stream.metrics.windows_processed == 3  # 4 + 4 + 2

    def test_vertex_count_change_rejected(self, graph):
        from repro.graphs import CSRSnapshot

        stream = StreamingInference(
            make_model("T-GCN", graph.dim, 16, seed=1), window_size=2
        )
        stream.push(graph[0])
        stream.push(graph[1])
        bad = CSRSnapshot.from_edges(graph.num_vertices + 5,
                                     np.array([[0, 1]]), dim=graph.dim)
        with pytest.raises(ValueError, match="vertex count"):
            stream.push(bad)

    def test_an_absent_row_holding_edges_is_refused(self, graph):
        """A snapshot outside the canonical form — a present vertex that
        holds edges flipped absent — never enters the window, whose
        changed-row counters would miss the hop through it; the refusal
        names the rule's one definition."""
        from repro.graphs import CSRSnapshot
        from repro.graphs.snapshot import absent_row_violation

        snap = graph[1]
        held = np.flatnonzero(snap.present & (np.diff(snap.indptr) > 0))
        present = snap.present.copy()
        present[held[0]] = False
        flipped = CSRSnapshot(
            snap.indptr, snap.indices, snap.features, present, snap.timestamp
        )
        reason = absent_row_violation(flipped.indptr, flipped.present)
        assert reason.startswith(f"absent vertex {held[0]} holds")
        stream = StreamingInference(
            make_model("T-GCN", graph.dim, 16, seed=1), window_size=2
        )
        stream.push(graph[0])
        with pytest.raises(ValueError, match=f"^{re.escape(reason)}$"):
            stream.push(flipped)
        assert stream.pending == 1  # the window did not take it
        assert stream.push(graph[1]) is not None

    def test_invalid_window(self, graph):
        with pytest.raises(ValueError):
            StreamingInference(
                make_model("T-GCN", graph.dim, 16), window_size=0
            )
