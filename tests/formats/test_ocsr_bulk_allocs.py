"""Regression tests: O-CSR bulk splices stay O(1) allocations per batch.

``mutation_allocs`` counts array (re)allocations performed by the
mutation kernels.  The bulk-splice guarantee is that one batch costs a
*constant* number of allocations however many edges or feature versions
it carries — a 1-row batch and a 500-row batch must bump the counter by
exactly the same amount.  A per-element loop sneaking back into the
kernels would break these tests immediately.
"""

import numpy as np

from repro.formats import OCSRStorage, WindowSelection
from repro.graphs import CSRSnapshot, DynamicGraph

from ..storage import all_edges

N = 64
K = 3
DIM = 2


def make_store(seed=0, stable_features=False):
    rng = np.random.default_rng(seed)
    base = rng.standard_normal((N, DIM)).astype(np.float32)
    snaps = []
    for _ in range(K):
        edges = rng.integers(0, N, size=(40, 2))
        edges = edges[edges[:, 0] != edges[:, 1]]
        feats = (
            base if stable_features
            else rng.standard_normal((N, DIM)).astype(np.float32)
        )
        snaps.append(CSRSnapshot.from_edges(N, edges, feats, undirected=False))
    return OCSRStorage(WindowSelection(DynamicGraph(snaps), np.arange(N)))


def fresh_edges(store, rng, count):
    """(src, tgt, ts) rows not currently stored."""
    have = {tuple(e) for e in all_edges(store).tolist()}
    out = []
    while len(out) < count:
        cand = (int(rng.integers(N)), int(rng.integers(N)), int(rng.integers(K)))
        if cand not in have:
            have.add(cand)
            out.append(cand)
    return np.asarray(out, dtype=np.int64)


def alloc_delta(store, fn):
    before = store.mutation_allocs
    fn()
    return store.mutation_allocs - before


class TestBulkAllocationBudget:
    def test_insert_allocs_independent_of_batch_size(self):
        rng = np.random.default_rng(1)
        small = make_store(seed=1)
        big = make_store(seed=1)
        d_small = alloc_delta(
            small, lambda: small.insert_edges(fresh_edges(small, rng, 1))
        )
        d_big = alloc_delta(
            big, lambda: big.insert_edges(fresh_edges(big, rng, 500))
        )
        assert d_small == d_big
        assert d_small > 0

    def test_delete_allocs_independent_of_batch_size(self):
        small = make_store(seed=2)
        big = make_store(seed=2)
        stored = all_edges(small)
        assert stored.shape[0] >= 20
        d_small = alloc_delta(
            small, lambda: small.delete_edges(stored[:1])
        )
        d_big = alloc_delta(big, lambda: big.delete_edges(stored[:20]))
        assert d_small == d_big
        assert d_small > 0

    def test_feature_splice_allocs_independent_of_batch_size(self):
        rng = np.random.default_rng(3)
        # stable features: each vertex holds one version (start 0), so a
        # snapshot K-1 upsert is a genuinely fresh splice
        small = make_store(seed=3, stable_features=True)
        big = make_store(seed=3, stable_features=True)
        verts = np.arange(N, dtype=np.int64)

        def upsert(store, m):
            store.update_features(
                verts[:m],
                np.full(m, K - 1, dtype=np.int64),
                rng.standard_normal((m, DIM)).astype(np.float32),
            )

        d_small = alloc_delta(small, lambda: upsert(small, 1))
        d_big = alloc_delta(big, lambda: upsert(big, N))
        assert d_small == d_big
        assert d_small > 0

    def test_noop_batches_allocate_nothing(self):
        store = make_store(seed=4)
        stored = all_edges(store)
        # duplicate insert, absent delete, in-place overwrite: all 0 allocs
        assert alloc_delta(store, lambda: store.insert_edges(stored[:5])) == 0
        gone = fresh_edges(store, np.random.default_rng(4), 5)
        assert alloc_delta(store, lambda: store.delete_edges(gone)) == 0
        v = int(store.fv_vertex[0])
        s = int(store.fv_start[0])
        val = np.zeros((1, DIM), dtype=np.float32)
        assert (
            alloc_delta(
                store,
                lambda: store.update_features(
                    np.array([v]), np.array([s]), val
                ),
            )
            == 0
        )

    def test_empty_batches_allocate_nothing(self):
        store = make_store(seed=5)
        empty = np.empty((0, 3), dtype=np.int64)
        assert alloc_delta(store, lambda: store.insert_edges(empty)) == 0
        assert alloc_delta(store, lambda: store.delete_edges(empty)) == 0
        assert (
            alloc_delta(
                store,
                lambda: store.update_features(
                    np.empty(0, dtype=np.int64),
                    np.empty(0, dtype=np.int64),
                    np.empty((0, DIM), dtype=np.float32),
                ),
            )
            == 0
        )
