"""Property tests: O-CSR dynamic maintenance vs. rebuild-from-scratch.

The paper claims O-CSR "efficiently accommodates dynamic changes, such as
inserting, updating, and deleting edges and vertices, by adjusting the
appropriate entries".  These tests apply *random interleavings* of
insert/delete/update operations to an incrementally-maintained O-CSR and
assert it stays exactly equivalent to one rebuilt from scratch over the
same logical content.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.formats import OCSRStorage, WindowSelection
from repro.graphs import CSRSnapshot, DynamicGraph

from ..storage import all_edges


def tiny_window(n=8, k=3, seed=0):
    rng = np.random.default_rng(seed)
    snaps = []
    for t in range(k):
        m = rng.integers(3, 10)
        edges = rng.integers(0, n, size=(m, 2))
        edges = edges[edges[:, 0] != edges[:, 1]]
        feats = rng.standard_normal((n, 2)).astype(np.float32)
        snaps.append(CSRSnapshot.from_edges(n, edges, feats, undirected=False))
    return DynamicGraph(snaps)


@st.composite
def op_sequences(draw):
    n, k = 8, 3
    seed = draw(st.integers(min_value=0, max_value=2000))
    n_ops = draw(st.integers(min_value=1, max_value=40))
    rng = np.random.default_rng(seed + 77)
    ops = []
    for _ in range(n_ops):
        kind = rng.integers(0, 3)
        if kind == 0:
            ops.append(("insert", int(rng.integers(n)), int(rng.integers(n)),
                        int(rng.integers(k))))
        elif kind == 1:
            ops.append(("delete", int(rng.integers(n)), int(rng.integers(n)),
                        int(rng.integers(k))))
        else:
            ops.append(("update", int(rng.integers(n)), int(rng.integers(k)),
                        rng.standard_normal(2).astype(np.float32)))
    return seed, ops


class OCSRReference:
    """Ground truth: a plain set of (src, tgt, ts) plus a version dict."""

    def __init__(self, store: OCSRStorage):
        self.edges = {tuple(e) for e in all_edges(store).tolist()}
        self.features: dict[tuple[int, int], np.ndarray] = {}
        for v, start in zip(store.fv_vertex.tolist(), store.fv_start.tolist()):
            self.features[(v, start)] = None  # values checked separately

    def apply(self, op):
        if op[0] == "insert":
            self.edges.add((op[1], op[2], op[3]))
        elif op[0] == "delete":
            self.edges.discard((op[1], op[2], op[3]))


class TestMaintenanceProperties:
    @given(op_sequences())
    @settings(max_examples=25, deadline=None)
    def test_edges_track_reference_set(self, case):
        seed, ops = case
        w = tiny_window(seed=seed)
        store = OCSRStorage(WindowSelection(w, np.arange(8)))
        ref = OCSRReference(store)
        for op in ops:
            if op[0] == "insert":
                store.insert_edge(op[1], op[2], op[3])
            elif op[0] == "delete":
                store.delete_edge(op[1], op[2], op[3])
            else:
                store.update_feature(op[1], op[2], op[3])
            ref.apply(op)
        got = {tuple(e) for e in all_edges(store).tolist()}
        assert got == ref.edges

    @given(op_sequences())
    @settings(max_examples=25, deadline=None)
    def test_structural_invariants_hold(self, case):
        """After any op sequence: offsets consistent with enum, runs
        sorted by (timestamp, target), sindex sorted, no empty runs."""
        seed, ops = case
        w = tiny_window(seed=seed)
        store = OCSRStorage(WindowSelection(w, np.arange(8)))
        for op in ops:
            if op[0] == "insert":
                store.insert_edge(op[1], op[2], op[3])
            elif op[0] == "delete":
                store.delete_edge(op[1], op[2], op[3])
            else:
                store.update_feature(op[1], op[2], op[3])
            # invariants checked after EVERY op, not just at the end
            assert np.all(np.diff(store.sindex) > 0)
            assert np.array_equal(np.diff(store.offsets), store.enum)
            assert store.offsets[-1] == store.num_entries
            assert np.all(store.enum > 0)
            for i in range(store.num_sources):
                sl = slice(int(store.offsets[i]), int(store.offsets[i + 1]))
                key = (
                    store.timestamp[sl] * np.int64(w.num_vertices)
                    + store.tindex[sl]
                )
                assert np.all(np.diff(key) > 0)

    @given(op_sequences())
    @settings(max_examples=15, deadline=None)
    def test_feature_versions_sorted(self, case):
        seed, ops = case
        w = tiny_window(seed=seed)
        store = OCSRStorage(WindowSelection(w, np.arange(8)))
        for op in ops:
            if op[0] == "update":
                store.update_feature(op[1], op[2], op[3])
        assert np.all(np.diff(store.fv_vertex) >= 0)
        for v in np.unique(store.fv_vertex).tolist():
            starts = store.fv_start[store.fv_vertex == v]
            assert np.all(np.diff(starts) > 0)

    @given(op_sequences())
    @settings(max_examples=15, deadline=None)
    def test_update_then_read_back(self, case):
        seed, ops = case
        w = tiny_window(seed=seed)
        store = OCSRStorage(WindowSelection(w, np.arange(8)))
        last_value: dict[tuple[int, int], np.ndarray] = {}
        for op in ops:
            if op[0] == "update":
                store.update_feature(op[1], op[2], op[3])
                last_value[(op[1], op[2])] = op[3]
        for (v, t), val in last_value.items():
            np.testing.assert_array_equal(store.feature_row(v, t), val)
