"""Crash consistency when the stream is fed by batched event replay.

The checkpoint tests in test_checkpoint.py replay materialised
snapshots; here the snapshots are *reconstructed* through the vectorised
:func:`~repro.graphs.updates.apply_events` ingest path (via
:class:`~repro.resilience.ingest.GuardedIngest`), so a crash/restore
exercises checkpointing and batched ingestion together: kill the
pipeline at any event-batch boundary, rebuild the snapshot stream from
the surviving events on the other side — from the restored
``timestamp``, since a checkpoint holds no snapshot — and the combined
outputs must be bit-identical to the uninterrupted run.
"""

import io

import numpy as np
import pytest

from repro.engine import StreamingInference
from repro.graphs import load_dataset
from repro.graphs.updates import event_stream
from repro.models import make_model
from repro.resilience import load_checkpoint, save_checkpoint
from repro.resilience.ingest import GuardedIngest

WINDOW = 3
SEED = 3


@pytest.fixture(scope="module")
def graph():
    return load_dataset("GT", num_snapshots=7, seed=SEED)


@pytest.fixture(scope="module")
def rebuilt_stream(graph):
    """Snapshots reconstructed through the batched ingest path."""
    ingest = GuardedIngest()
    snaps = [graph[0].copy()]
    for events in event_stream(graph):
        snaps.append(ingest.apply(snaps[-1], events))
    assert len(ingest.dlq) == 0  # generator streams carry no poison
    return snaps


def _model(graph):
    return make_model("T-GCN", graph.dim, hidden_dim=16, seed=SEED)


def _run(stream, snapshots):
    outs = []
    for snap in snapshots:
        r = stream.push(snap.copy())
        if r is not None:
            outs.extend(r.outputs)
    r = stream.flush()
    if r is not None:
        outs.extend(r.outputs)
    return outs


def test_rebuilt_snapshots_match_materialised(graph, rebuilt_stream):
    """Batched replay reconstructs the exact materialised snapshots."""
    for t, (got, want) in enumerate(zip(rebuilt_stream, graph)):
        np.testing.assert_array_equal(got.indptr, want.indptr, err_msg=f"t={t}")
        np.testing.assert_array_equal(got.indices, want.indices, err_msg=f"t={t}")
        np.testing.assert_array_equal(got.present, want.present, err_msg=f"t={t}")
        np.testing.assert_array_equal(got.features, want.features, err_msg=f"t={t}")


def test_crash_at_every_batch_boundary(graph, rebuilt_stream):
    expected = _run(
        StreamingInference(_model(graph), window_size=WINDOW), rebuilt_stream
    )
    for crash_at in range(len(rebuilt_stream) + 1):
        first = StreamingInference(_model(graph), window_size=WINDOW)
        early = []
        for snap in rebuilt_stream[:crash_at]:
            r = first.push(snap.copy())
            if r is not None:
                early.extend(r.outputs)
        buf = io.BytesIO()
        save_checkpoint(first, buf)
        del first  # the crash
        buf.seek(0)
        resumed = StreamingInference(_model(graph), window_size=WINDOW)
        resumed.restore_carry(load_checkpoint(buf))
        start = resumed.timestamp  # the last window boundary
        assert start == crash_at - crash_at % WINDOW
        # the post-crash process re-derives its snapshots through the
        # same batched ingest path before replaying the tail
        ingest = GuardedIngest()
        tail = []
        if start > 0:
            prev = rebuilt_stream[start - 1]
            for events in event_stream(graph)[start - 1 :]:
                prev = ingest.apply(prev, events)
                tail.append(prev)
        else:
            tail = rebuilt_stream
        late = _run(resumed, tail)
        replayed = early + late
        assert len(replayed) == len(expected)
        for a, b in zip(expected, replayed):
            np.testing.assert_array_equal(a, b, err_msg=f"crash_at={crash_at}")
