"""A row-restricted product must carry the bits of the full-height one.

BLAS multiplies a single row through gemv, whose rounding differs from
the gemm every taller product gets once the inner dimension reaches 64,
so ``a[[r]] @ w`` is not ``(a @ w)[[r]]``.  Every product the engines'
row-restricted paths share with a full-height pass goes through
``models.layers._matmul_rows``, which never issues a one-row product.
"""

import numpy as np
import pytest

from repro.engine import ConcurrentEngine, ReferenceEngine
from repro.graphs import CSRSnapshot, DynamicGraph
from repro.models import make_model
from repro.models.layers import _matmul_rows

ROW_COUNTS = (1, 2, 3, 5, 64, 65)
INNER_DIMS = (16, 32, 48, 64, 128)


class TestRowsOfAProduct:
    @pytest.mark.parametrize("k", INNER_DIMS)
    @pytest.mark.parametrize("m", ROW_COUNTS)
    def test_subset_product_equals_rows_of_full_product(self, m, k):
        """``(A[rows] @ W).tobytes() == (A @ W)[rows].tobytes()``."""
        for seed in range(8):
            rng = np.random.default_rng(1000 * k + 10 * m + seed)
            n = int(rng.choice([250, 1000]))
            width = int(rng.choice([32, 96, 128]))
            a = rng.standard_normal((n, k)).astype(np.float32)
            w = rng.standard_normal((k, width)).astype(np.float32)
            rows = rng.choice(n, size=m, replace=False)
            got = _matmul_rows(a[rows], w)
            want = _matmul_rows(a, w)[rows]
            assert got.shape == want.shape == (m, width)
            assert got.tobytes() == want.tobytes()

    def test_empty_and_single_row_shapes(self):
        w = np.ones((4, 3), dtype=np.float32)
        assert _matmul_rows(np.ones((0, 4), dtype=np.float32), w).shape == (0, 3)
        assert _matmul_rows(np.ones((1, 4), dtype=np.float32), w).shape == (1, 3)


def one_churned_row_graph(seed: int, in_dim: int, n: int = 300) -> DynamicGraph:
    """Fixed topology; exactly one vertex's features change per later
    snapshot, so every row-restricted combine is a one-row product."""
    rng = np.random.default_rng(seed)
    edges = rng.integers(0, n, size=(4 * n, 2))
    edges = edges[edges[:, 0] != edges[:, 1]]
    feats = rng.standard_normal((n, in_dim)).astype(np.float32)
    snaps = [CSRSnapshot.from_edges(n, edges, feats)]
    for t in range(1, 8):
        feats = feats.copy()
        feats[rng.integers(n)] += rng.standard_normal(in_dim).astype(np.float32)
        snaps.append(CSRSnapshot.from_edges(n, edges, feats, timestamp=t))
    return DynamicGraph(snaps, name="one-churned-row")


@pytest.mark.parametrize("in_dim", [64, 128])
@pytest.mark.parametrize("name", ["T-GCN", "GC-LSTM", "CD-GCN"])
def test_one_churned_row_per_snapshot_stays_bit_identical(name, in_dim):
    """The case that differed in the last bit while the one-row combine
    went through gemv (every seed, from ``in_dim`` 64 up)."""
    for seed in range(3):
        graph = one_churned_row_graph(seed, in_dim)
        ref = ReferenceEngine(
            make_model(name, in_dim, 32, seed=1), window_size=4
        ).run(graph)
        conc = ConcurrentEngine(
            make_model(name, in_dim, 32, seed=1),
            window_size=4,
            enable_skipping=False,
        ).run(graph)
        for a, b in zip(ref.outputs, conc.outputs):
            assert a.tobytes() == b.tobytes()
