"""Bit-identity of the batched multi-snapshot GNN forward.

``gnn_forward_window`` hoists the per-snapshot per-layer loop: the
elementwise activation runs once on the stacked ``(K*n, d)`` block while
the gemm-backed combine deliberately stays at per-snapshot shape (BLAS
rounding depends on the row count).  The contract is *exact* equality
with the per-snapshot oracle — engine outputs must be invariant to how
the stream is partitioned into windows, so any drift here would surface
as window-size-dependent results.
"""

import numpy as np
import pytest

from repro.graphs import load_dataset
from repro.models import make_model
from repro.models.zoo import MODEL_ZOO

SEED = 3
HIDDEN = 32


@pytest.fixture(scope="module")
def graph():
    return load_dataset("GT", scale=0.3, num_snapshots=8, seed=SEED)


@pytest.mark.parametrize("model_name", sorted(MODEL_ZOO))
@pytest.mark.parametrize("window", [1, 2, 3, 4])
def test_forward_window_matches_per_snapshot(graph, model_name, window):
    model = make_model(model_name, graph.dim, HIDDEN, seed=SEED)
    snaps = graph.snapshots[:window]
    batched = model.gnn_forward_window(snaps)
    assert len(batched) == window
    for snap, z in zip(snaps, batched):
        expected = model.gnn_forward(snap)
        assert z.dtype == expected.dtype
        assert z.shape == expected.shape
        np.testing.assert_array_equal(z, expected)


@pytest.mark.parametrize("model_name", sorted(MODEL_ZOO))
def test_forward_window_invariant_to_partitioning(graph, model_name):
    """Stacking [s0..s3] as one window, two pairs, or four singletons
    must produce the same bits for every snapshot."""
    model = make_model(model_name, graph.dim, HIDDEN, seed=SEED)
    snaps = graph.snapshots[:4]
    whole = model.gnn_forward_window(snaps)
    pairs = model.gnn_forward_window(snaps[:2]) + model.gnn_forward_window(
        snaps[2:]
    )
    singles = [z for s in snaps for z in model.gnn_forward_window([s])]
    for a, b, c in zip(whole, pairs, singles):
        np.testing.assert_array_equal(a, b)
        np.testing.assert_array_equal(a, c)


def test_forward_window_rejects_width_mismatch(graph):
    model = make_model("T-GCN", graph.dim, HIDDEN, seed=SEED)
    snaps = graph.snapshots[:2]
    bad = [s.features for s in snaps]
    bad[1] = np.zeros((snaps[1].num_vertices, graph.dim + 1), dtype=np.float32)
    with pytest.raises(ValueError, match="in_dim"):
        model.gnn.forward_window(snaps, bad)
