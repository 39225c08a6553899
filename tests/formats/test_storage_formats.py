"""Cross-format tests: CSR, O-CSR, and PMA must store identical content
with the ordering of costs the paper reports (Fig. 13(b))."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.formats import (
    FORMATS,
    OCSRStorage,
    PMAStorage,
    SnapshotCSRStorage,
    WindowSelection,
)
from repro.graphs import DynamicGraphSpec, generate_dynamic_graph, load_dataset

from ..storage import all_edges


@pytest.fixture(scope="module")
def selection():
    g = load_dataset("GT", num_snapshots=4)
    rng = np.random.default_rng(3)
    sources = rng.choice(g.num_vertices, size=150, replace=False)
    return WindowSelection(g.window(0, 4), sources)


@pytest.fixture(scope="module")
def built(selection):
    return {name: cls(selection) for name, cls in FORMATS.items()}


class TestSelection:
    def test_sources_sorted_unique(self, selection):
        s = selection.sources
        assert np.all(np.diff(s) > 0)

    def test_out_of_range_source_rejected(self, selection):
        with pytest.raises(ValueError):
            WindowSelection(selection.window, np.array([10**9]))

    def test_edges_sorted_canonically(self, selection):
        e = selection.edges()
        order = np.lexsort((e[:, 1], e[:, 2], e[:, 0]))
        assert np.array_equal(order, np.arange(len(e)))

    def test_whole_graph_selection(self):
        g = load_dataset("GT", num_snapshots=2)
        sel = WindowSelection.whole_graph(g.window(0, 2))
        assert len(sel.sources) == g.num_vertices
        assert len(sel.edges()) == g[0].num_edges + g[1].num_edges

    def test_feature_versions_start_at_zero(self, selection):
        for v, versions in selection.feature_versions().items():
            assert versions[0] == 0
            assert versions == sorted(versions)


class TestContentEquivalence:
    def test_all_formats_store_same_edges(self, selection, built):
        ref = selection.edges()
        for name, fmt in built.items():
            assert np.array_equal(all_edges(fmt), ref), name

    def test_gather_ordering(self, selection, built):
        """gather() must return (timestamp, target)-ordered entries."""
        for name, fmt in built.items():
            for s in selection.sources[:20].tolist():
                tgt, ts = fmt.gather(s)
                key = ts * 10**9 + tgt
                assert np.all(np.diff(key) >= 0), name

    def test_gather_missing_source_empty(self, built, selection):
        absent = int(selection.sources.max()) + 1
        if absent < selection.window.num_vertices:
            for name, fmt in built.items():
                tgt, ts = fmt.gather(absent)
                assert tgt.size == 0 and ts.size == 0, name


class TestCostOrdering:
    @pytest.fixture(scope="class")
    def built_wide(self):
        """A feature-dominated selection (paper-scale feature width) —
        the regime Fig. 13(b)'s storage comparison is measured in."""
        g = load_dataset("GT", num_snapshots=4, dim=160)
        rng = np.random.default_rng(3)
        sources = rng.choice(g.num_vertices, size=150, replace=False)
        sel = WindowSelection(g.window(0, 4), sources)
        return {name: cls(sel) for name, cls in FORMATS.items()}

    def test_storage_ordering_feature_dominated(self, built_wide):
        """At production feature widths: CSR (full duplication) > PMA
        (dedup structure, indexed features) > O-CSR."""
        assert (
            built_wide["CSR"].storage_bytes()
            > built_wide["PMA"].storage_bytes()
            > built_wide["O-CSR"].storage_bytes()
        )

    def test_csr_always_largest(self, built):
        """Even at narrow feature widths, per-snapshot CSR is the most
        redundant format (PMA vs O-CSR can flip there: PMA deduplicates
        per-timestamp structure entries that O-CSR stores per snapshot)."""
        assert built["CSR"].storage_bytes() > built["O-CSR"].storage_bytes()
        assert built["CSR"].storage_bytes() > built["PMA"].storage_bytes()

    def test_scan_cost_ordering(self, built):
        """O-CSR's contiguous runs must beat both baselines, and PMA's
        single search must beat CSR's K row lookups + per-feature randoms."""
        c = {n: f.scan_cost().cycles() for n, f in built.items()}
        assert c["O-CSR"] < c["PMA"] < c["CSR"]

    def test_ocsr_compression_positive(self, built, built_wide):
        assert built["O-CSR"].compression_vs(built["CSR"]) > 0.3
        assert built_wide["O-CSR"].compression_vs(built_wide["PMA"]) > 0.2

    def test_access_cost_arithmetic(self, built):
        a = built["O-CSR"].scan_cost()
        b = built["CSR"].scan_cost()
        total = a + b
        assert total.random_accesses == a.random_accesses + b.random_accesses
        assert total.cycles() == pytest.approx(a.cycles() + b.cycles())


class TestOCSRSpecifics:
    def test_enum_matches_run_lengths(self, selection):
        ocsr = OCSRStorage(selection)
        assert ocsr.enum.sum() == ocsr.num_entries
        assert np.array_equal(np.diff(ocsr.offsets), ocsr.enum)

    def test_paper_example_layout(self):
        """Reproduce the paper's O-CSR walkthrough: v4 has neighbours
        v5,v6 at t-1, v5 at t, v6 at t+1 -> Tindex=[5,6,5,6],
        Timestamp=[0,0,1,2], Enum=4."""
        from repro.graphs import CSRSnapshot, DynamicGraph

        n, d = 8, 2
        feats = np.zeros((n, d), dtype=np.float32)
        s0 = CSRSnapshot.from_edges(n, np.array([[4, 5], [4, 6]]), feats.copy(),
                                    undirected=False)
        s1 = CSRSnapshot.from_edges(n, np.array([[4, 5]]), feats.copy(),
                                    undirected=False)
        s2 = CSRSnapshot.from_edges(n, np.array([[4, 6]]), feats.copy(),
                                    undirected=False)
        w = DynamicGraph([s0, s1, s2])
        ocsr = OCSRStorage(WindowSelection(w, np.array([4])))
        assert ocsr.sindex.tolist() == [4]
        assert ocsr.tindex.tolist() == [5, 6, 5, 6]
        assert ocsr.timestamp.tolist() == [0, 0, 1, 2]
        assert ocsr.enum.tolist() == [4]

    def test_stable_feature_stored_once(self):
        """A vertex whose feature never changes contributes exactly one
        feature-table row regardless of window length."""
        from repro.graphs import CSRSnapshot, DynamicGraph

        n, d = 4, 3
        feats = np.ones((n, d), dtype=np.float32)
        snaps = [
            CSRSnapshot.from_edges(n, np.array([[0, 1]]), feats.copy())
            for _ in range(4)
        ]
        w = DynamicGraph(snaps)
        ocsr = OCSRStorage(WindowSelection(w, np.array([0])))
        assert (ocsr.fv_vertex == 0).sum() == 1
        assert (ocsr.fv_vertex == 1).sum() == 1

    def test_changed_feature_versioned(self):
        from repro.graphs import CSRSnapshot, DynamicGraph

        n, d = 4, 3
        f0 = np.ones((n, d), dtype=np.float32)
        f1 = f0.copy()
        f1[1] = 2.0
        s0 = CSRSnapshot.from_edges(n, np.array([[0, 1]]), f0)
        s1 = CSRSnapshot.from_edges(n, np.array([[0, 1]]), f1)
        w = DynamicGraph([s0, s1])
        ocsr = OCSRStorage(WindowSelection(w, np.array([0])))
        assert (ocsr.fv_vertex == 1).sum() == 2
        np.testing.assert_array_equal(ocsr.feature_row(1, 0), f0[1])
        np.testing.assert_array_equal(ocsr.feature_row(1, 1), f1[1])

    def test_feature_row_unknown_vertex(self, selection):
        ocsr = OCSRStorage(selection)
        with pytest.raises(KeyError):
            # a vertex guaranteed not stored: use an isolated absent id
            ocsr.feature_row(-1, 0)


class TestOCSRDynamicMaintenance:
    def _tiny(self):
        from repro.graphs import CSRSnapshot, DynamicGraph

        n, d = 6, 2
        feats = np.zeros((n, d), dtype=np.float32)
        s0 = CSRSnapshot.from_edges(n, np.array([[0, 1], [2, 3]]), feats.copy(),
                                    undirected=False)
        s1 = CSRSnapshot.from_edges(n, np.array([[0, 1]]), feats.copy(),
                                    undirected=False)
        w = DynamicGraph([s0, s1])
        return OCSRStorage(WindowSelection(w, np.array([0, 2])))

    def test_insert_edge(self):
        ocsr = self._tiny()
        ocsr.insert_edge(0, 4, 1)
        tgt, ts = ocsr.gather(0)
        assert (4 in tgt.tolist()) and ocsr.enum[0] == 3

    def test_insert_new_source(self):
        ocsr = self._tiny()
        ocsr.insert_edge(5, 1, 0)
        assert 5 in ocsr.sindex.tolist()
        tgt, _ = ocsr.gather(5)
        assert tgt.tolist() == [1]

    def test_insert_duplicate_noop(self):
        ocsr = self._tiny()
        before = ocsr.num_entries
        ocsr.insert_edge(0, 1, 0)
        assert ocsr.num_entries == before

    def test_insert_out_of_window_raises(self):
        ocsr = self._tiny()
        with pytest.raises(ValueError):
            ocsr.insert_edge(0, 1, 7)

    def test_delete_edge(self):
        ocsr = self._tiny()
        assert ocsr.delete_edge(2, 3, 0)
        assert not ocsr.delete_edge(2, 3, 0)
        # source 2's run became empty and was removed entirely
        assert 2 not in ocsr.sindex.tolist()

    def test_delete_keeps_offsets_consistent(self):
        ocsr = self._tiny()
        ocsr.delete_edge(0, 1, 1)
        assert np.array_equal(np.diff(ocsr.offsets), ocsr.enum)
        assert ocsr.offsets[-1] == ocsr.num_entries

    def test_update_feature_new_version(self):
        ocsr = self._tiny()
        vec = np.array([5.0, 6.0], dtype=np.float32)
        ocsr.update_feature(1, 1, vec)
        np.testing.assert_array_equal(ocsr.feature_row(1, 1), vec)
        # version at snapshot 0 unchanged
        assert ocsr.feature_row(1, 0)[0] == 0.0

    def test_update_feature_overwrite(self):
        ocsr = self._tiny()
        vec = np.array([7.0, 8.0], dtype=np.float32)
        ocsr.update_feature(1, 0, vec)
        np.testing.assert_array_equal(ocsr.feature_row(1, 0), vec)

    def test_update_feature_dim_mismatch(self):
        ocsr = self._tiny()
        with pytest.raises(ValueError):
            ocsr.update_feature(1, 0, np.zeros(5))

    def test_insert_then_delete_roundtrip(self):
        ocsr = self._tiny()
        before_t = ocsr.tindex.copy()
        ocsr.insert_edge(0, 5, 1)
        ocsr.delete_edge(0, 5, 1)
        assert np.array_equal(ocsr.tindex, before_t)


class TestFormatsProperty:
    @given(seed=st.integers(min_value=0, max_value=3000),
           k=st.integers(min_value=2, max_value=5))
    @settings(max_examples=10, deadline=None)
    def test_equivalence_on_random_graphs(self, seed, k):
        g = generate_dynamic_graph(
            DynamicGraphSpec(
                name="prop", num_vertices=80, num_edges=250, dim=3,
                num_snapshots=k, seed=seed,
            )
        )
        rng = np.random.default_rng(seed)
        sources = rng.choice(80, size=25, replace=False)
        sel = WindowSelection(g.window(0, k), sources)
        ref = sel.edges()
        for cls in (SnapshotCSRStorage, OCSRStorage, PMAStorage):
            assert np.array_equal(all_edges(cls(sel)), ref), cls.name
