"""Tests for DGNNModel base methods: row-restricted cell updates,
recurrent drives, and the state handed across windows."""

import numpy as np
import pytest

from repro.engine import ReferenceEngine
from repro.graphs import load_dataset
from repro.models import make_model
from repro.skipping import DeltaCellCache


@pytest.fixture(scope="module")
def graph():
    return load_dataset("GT", num_snapshots=6)


class TestCellStepRows:
    @pytest.mark.parametrize("name", ["T-GCN", "CD-GCN"])
    def test_rows_match_full_step(self, graph, name):
        """Updating a row subset must agree exactly with the same rows of
        a full-batch update (plain cells are row-independent)."""
        model = make_model(name, graph.dim, 16, seed=2)
        z = model.gnn_forward(graph[0])
        state = model.init_state(graph.num_vertices)
        _, state = model.cell_step(z, state, graph[0])  # warm
        z1 = model.gnn_forward(graph[1])
        h_full, _ = model.cell_step(z1, state, graph[1])
        rows = np.array([3, 17, 250, 800])
        h_rows, st_rows = model.cell_step_rows(z1, state, rows, graph[1])
        np.testing.assert_allclose(h_rows, h_full[rows], rtol=1e-5, atol=1e-6)
        np.testing.assert_allclose(st_rows.h, h_full[rows], rtol=1e-5, atol=1e-6)

    def test_gclstm_rows_match_full_step(self, graph):
        """GC-LSTM's recurrent convolution uses the *whole* state, so the
        row-restricted path must still see it."""
        model = make_model("GC-LSTM", graph.dim, 16, seed=2)
        z = model.gnn_forward(graph[0])
        state = model.init_state(graph.num_vertices)
        _, state = model.cell_step(z, state, graph[0])
        z1 = model.gnn_forward(graph[1])
        h_full, _ = model.cell_step(z1, state, graph[1])
        rows = np.array([3, 17, 250, 800])
        h_rows, _ = model.cell_step_rows(z1, state, rows, graph[1])
        np.testing.assert_allclose(h_rows, h_full[rows], rtol=1e-5, atol=1e-6)

    @pytest.mark.parametrize("name", ["CD-GCN", "GC-LSTM", "T-GCN", "GCRN"])
    @pytest.mark.parametrize("rows", [[3, 17, 250, 800], [17]], ids=["rows", "row"])
    def test_a_full_update_takes_the_products_the_cache_stored(
        self, graph, name, rows
    ):
        """``pre`` — what ``DeltaCellCache.refresh`` multiplied, stored
        and returned — gives the update's bits without multiplying again
        (a single row goes through ``_matmul_rows``'s two-row product)."""
        model = make_model(name, graph.dim, 16, seed=2)
        state = model.init_state(graph.num_vertices)
        _, state = model.cell_step(model.gnn_forward(graph[0]), state, graph[0])
        z1 = model.gnn_forward(graph[1])
        rows = np.array(rows)
        drive = model.recurrent_drive(state, graph[1], rows)
        cache = DeltaCellCache(model.cell, graph.num_vertices)
        zx, zh = cache.refresh(rows, z1, drive)
        assert cache.zx[rows].tobytes() == zx.tobytes()
        assert cache.zh[rows].tobytes() == zh.tobytes()
        assert cache.z_input[rows].tobytes() == z1[rows].tobytes()
        want_h, want_st = model.cell_step_rows(z1, state, rows, graph[1], drive)
        got_h, got_st = model.cell_step_rows(
            z1, state, rows, graph[1], drive, (zx, zh)
        )
        assert got_h.dtype == want_h.dtype == np.float32
        assert got_h.tobytes() == want_h.tobytes()
        for field in vars(want_st):
            assert getattr(got_st, field).tobytes() == getattr(want_st, field).tobytes()


class TestRecurrentDrive:
    def test_plain_cells_return_state(self, graph):
        model = make_model("T-GCN", graph.dim, 16, seed=2)
        state = model.init_state(graph.num_vertices)
        assert model.recurrent_drive(state, graph[0]) is state.h

    def test_gclstm_aggregates(self, graph):
        model = make_model("GC-LSTM", graph.dim, 16, seed=2)
        state = model.init_state(graph.num_vertices)
        state.h += 1.0
        drive = model.recurrent_drive(state, graph[0])
        assert drive is not state.h
        # aggregation of a constant field is the constant (mean norm)
        present = graph[0].present
        np.testing.assert_allclose(drive[present], 1.0, rtol=1e-5)

    @pytest.mark.parametrize("name", ["T-GCN", "GC-LSTM"])
    def test_rows_are_rows_of_the_full_drive(self, graph, name):
        """``rows=`` returns exactly those rows of the full drive — of
        ``state.h`` for plain cells, of the convolved state for GC-LSTM."""
        model = make_model(name, graph.dim, 16, seed=2)
        state = model.init_state(graph.num_vertices)
        _, state = model.cell_step(model.gnn_forward(graph[0]), state, graph[0])
        rows = np.array([0, 3, 17, 250, 800])
        got = model.recurrent_drive(state, graph[1], rows)
        want = model.recurrent_drive(state, graph[1])[rows]
        assert got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()
        if name == "T-GCN":
            assert want.tobytes() == state.h[rows].tobytes()

    def test_gclstm_rows_take_the_row_local_drive(self, graph):
        """``cell_step_rows`` given the row-local drive == computing it."""
        model = make_model("GC-LSTM", graph.dim, 16, seed=2)
        state = model.init_state(graph.num_vertices)
        _, state = model.cell_step(model.gnn_forward(graph[0]), state, graph[0])
        z1 = model.gnn_forward(graph[1])
        rows = np.array([3, 17, 250, 800])
        drive = model.recurrent_drive(state, graph[1], rows)
        assert drive.shape == (len(rows), model.out_dim)
        passed, _ = model.cell_step_rows(z1, state, rows, graph[1], drive)
        computed, _ = model.cell_step_rows(z1, state, rows, graph[1])
        assert passed.tobytes() == computed.tobytes()


class TestForwardWindow:
    def test_state_chaining(self, graph):
        """The recurrent state handed across a window boundary continues
        exactly where the previous window stopped: windows of 3 release
        the bits one window of 6 does."""
        whole, split = (
            ReferenceEngine(make_model("T-GCN", graph.dim, 16, seed=2), window_size=k)
            .run(graph)
            .outputs
            for k in (6, 3)
        )
        assert [o.tobytes() for o in whole] == [o.tobytes() for o in split]

    def test_flop_helpers(self, graph):
        model = make_model("T-GCN", graph.dim, 16, seed=2)
        assert model.gnn_flops(100, 500) > 0
        assert model.cell_flops(100) == 100 * model.cell.flops_per_vertex()
