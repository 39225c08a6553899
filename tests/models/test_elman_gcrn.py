"""Tests for the Elman cell and the GCRN model across the whole stack."""

import numpy as np
import pytest

from repro.engine import ConcurrentEngine, ReferenceEngine
from repro.graphs import load_dataset
from repro.models import ElmanCell, make_model
from repro.skipping import APPROXIMATORS, DeltaCellCache


@pytest.fixture(scope="module")
def graph():
    return load_dataset("GT", num_snapshots=8)


class TestElmanCell:
    def test_step_shapes_and_bounds(self):
        cell = ElmanCell(5, 3, seed=0)
        x = np.random.default_rng(0).standard_normal((7, 5)).astype(np.float32)
        h, state = cell.step(x, cell.init_state(7))
        assert h.shape == (7, 3)
        assert np.all(np.abs(h) <= 1.0)  # tanh-bounded
        np.testing.assert_array_equal(state.h, h)

    def test_flops(self):
        assert ElmanCell(5, 3).flops_per_vertex() == 2 * (5 + 3) * 3

    def test_contractive_default(self):
        damped = ElmanCell(4, 4, seed=0)
        plain = ElmanCell(4, 4, seed=0, recurrent_scale=1.0)
        np.testing.assert_allclose(plain.w_h, damped.w_h * 2.0, rtol=1e-6)

    def test_delta_cache_support(self):
        """An Elman cell keeps a delta baseline as wide as its input: a
        FULL update sets it, and an unchanged input counts no delta."""
        cell = ElmanCell(5, 4, seed=0)
        cache = DeltaCellCache.zeros(cell, 6)
        cache.check(cell)
        assert cache.z_input.shape == (6, 5)
        x = np.random.default_rng(1).standard_normal((6, 5)).astype(np.float32)
        cache.reset(np.arange(6), x)
        assert cache.advance(np.arange(6), x) == 0
        assert cache.z_input.tobytes() == x.tobytes()

    @pytest.mark.parametrize("name", ["TaGNN-DR", "TaGNN-AM", "TaGNN-AS"])
    def test_approximators_support_elman(self, name):
        cell = ElmanCell(5, 4, seed=0)
        approx = APPROXIMATORS[name]()
        approx.start(cell, 6)
        x = np.random.default_rng(0).standard_normal((6, 5)).astype(np.float32)
        h, state = approx.cell_step(cell, x, cell.init_state(6))
        assert h.shape == (6, 4)
        assert np.isfinite(h).all()


class TestGCRN:
    def test_two_layers(self):
        m = make_model("GCRN", 8, 16)
        assert m.num_layers == 2
        assert isinstance(m.cell, ElmanCell)

    def test_engine_bit_exact(self, graph):
        ref = ReferenceEngine(
            make_model("GCRN", graph.dim, 16, seed=1), window_size=4
        ).run(graph)
        conc = ConcurrentEngine(
            make_model("GCRN", graph.dim, 16, seed=1),
            window_size=4,
            enable_skipping=False,
        ).run(graph)
        for a, b in zip(ref.outputs, conc.outputs):
            np.testing.assert_array_equal(a, b)

    def test_skipping_bounded(self, graph):
        ref = ReferenceEngine(
            make_model("GCRN", graph.dim, 16, seed=1), window_size=4
        ).run(graph)
        skip = ConcurrentEngine(
            make_model("GCRN", graph.dim, 16, seed=1), window_size=4
        ).run(graph)
        assert skip.metrics.cells_skipped > 0
        err = np.mean(
            [np.abs(a - b).mean() for a, b in zip(skip.outputs, ref.outputs)]
        )
        assert err < 0.1

    def test_simulator_accepts_gcrn(self, graph):
        from repro.accel import TaGNNSimulator

        rep = TaGNNSimulator().simulate(
            make_model("GCRN", graph.dim, 16, seed=1), graph, "GT"
        )
        assert rep.seconds > 0 and rep.joules > 0
