"""Tests for the model zoo and the accuracy-evaluation protocol."""

import numpy as np
import pytest

from repro.engine import ReferenceEngine
from repro.graphs import load_dataset
from repro.models import (
    CDGCN,
    GCLSTM,
    MODEL_ZOO,
    TGCN,
    RidgeReadout,
    evaluate_accuracy,
    make_model,
    make_teacher_labels,
    split_vertices,
)


@pytest.fixture(scope="module")
def graph():
    return load_dataset("GT", num_snapshots=5)


class TestZoo:
    def test_layer_counts_match_paper(self):
        """Paper Section 5.1: CD-GCN four layers, GC-LSTM three, T-GCN two."""
        assert CDGCN(8).num_layers == 4
        assert GCLSTM(8).num_layers == 3
        assert TGCN(8).num_layers == 2

    def test_make_model(self):
        m = make_model("T-GCN", 8, 16)
        assert m.name == "T-GCN"
        assert m.in_dim == 8 and m.out_dim == 16
        with pytest.raises(KeyError, match="unknown model"):
            make_model("GPT", 8)

    def test_zoo_registry(self):
        assert set(MODEL_ZOO) == {"CD-GCN", "GC-LSTM", "T-GCN", "EvolveGCN", "GCRN"}

    @pytest.mark.parametrize("name", sorted(MODEL_ZOO))
    def test_forward_window_shapes(self, graph, name):
        m = make_model(name, graph.dim, 16, seed=0)
        outs = ReferenceEngine(m).run(graph).outputs
        assert len(outs) == graph.num_snapshots
        for h in outs:
            assert h.shape == (graph.num_vertices, 16)
            assert np.isfinite(h).all()

    @pytest.mark.parametrize("name", sorted(MODEL_ZOO))
    def test_deterministic(self, graph, name):
        def run():
            return ReferenceEngine(make_model(name, graph.dim, 16, seed=0)).run(graph)

        for x, y in zip(run().outputs, run().outputs):
            np.testing.assert_array_equal(x, y)

    def test_gclstm_uses_graph_in_cell(self, graph):
        """GC-LSTM's recurrent convolution must make its cell output
        depend on the snapshot topology."""
        m = make_model("GC-LSTM", graph.dim, 16, seed=0)
        z = m.gnn_forward(graph[1])
        state = m.init_state(graph.num_vertices)
        # warm the state so the recurrent path is non-trivial
        _, state = m.cell_step(m.gnn_forward(graph[0]), state, graph[0])
        h_with_g1, _ = m.cell_step(z, state, graph[1])
        h_with_g2, _ = m.cell_step(z, state, graph[3])
        assert not np.allclose(h_with_g1, h_with_g2)

    def test_dim_mismatch_rejected(self):
        from repro.models import GCNStack, LSTMCell
        from repro.models.base import DGNNModel

        class Bad(DGNNModel):
            name = "bad"

        with pytest.raises(ValueError, match="input_dim"):
            Bad(GCNStack([4, 8]), LSTMCell(16, 16))


class TestRidgeReadout:
    def test_separable_data_perfect(self):
        rng = np.random.default_rng(0)
        x = np.concatenate([rng.normal(-3, 0.1, (50, 4)), rng.normal(3, 0.1, (50, 4))])
        y = np.array([0] * 50 + [1] * 50)
        r = RidgeReadout().fit(x, y)
        assert r.accuracy(x, y) == 1.0

    def test_unfit_raises(self):
        with pytest.raises(RuntimeError):
            RidgeReadout().decision(np.zeros((1, 3)))

    def test_classes_preserved(self):
        x = np.random.default_rng(0).standard_normal((30, 4))
        y = np.array([3, 7, 9] * 10)
        r = RidgeReadout().fit(x, y)
        assert set(r.predict(x)) <= {3, 7, 9}

    def test_regularisation_effect(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal((20, 30))  # underdetermined
        y = rng.integers(0, 2, 20)
        r_hi = RidgeReadout(reg=100.0).fit(x, y)
        r_lo = RidgeReadout(reg=1e-6).fit(x, y)
        # low reg overfits (train acc >= high-reg train acc)
        assert r_lo.accuracy(x, y) >= r_hi.accuracy(x, y)


class TestAccuracyProtocol:
    def test_split_disjoint_and_complete(self):
        tr, te = split_vertices(100, 0.6, seed=1)
        assert len(tr) == 60 and len(te) == 40
        assert len(np.intersect1d(tr, te)) == 0

    def test_labels_shape_and_absent(self, graph):
        labels = make_teacher_labels(graph, 4)
        assert labels.shape == (graph.num_snapshots, graph.num_vertices)
        for t, snap in enumerate(graph):
            assert np.all(labels[t][~snap.present] == -1)
            assert np.all(labels[t][snap.present] >= 0)
            assert labels[t].max() < 4

    def test_labels_deterministic(self, graph):
        a = make_teacher_labels(graph, 4, seed=2)
        b = make_teacher_labels(graph, 4, seed=2)
        np.testing.assert_array_equal(a, b)

    def test_exact_embeddings_beat_noise(self, graph):
        """The protocol must rank exact inference above heavily-corrupted
        inference — otherwise Table 5 would be meaningless."""
        m = make_model("T-GCN", graph.dim, 48, seed=0)
        outs = ReferenceEngine(m).run(graph).outputs
        labels = make_teacher_labels(graph, 4)
        acc_exact = evaluate_accuracy(outs, labels, graph)
        rng = np.random.default_rng(0)
        noisy = [h + rng.standard_normal(h.shape).astype(np.float32) * 2 for h in outs]
        acc_noisy = evaluate_accuracy(noisy, labels, graph)
        assert acc_exact > acc_noisy + 0.05
        assert acc_exact > 0.4  # well above 4-class chance

    def test_mismatched_lengths_raise(self, graph):
        labels = make_teacher_labels(graph, 4)
        with pytest.raises(ValueError):
            evaluate_accuracy([np.zeros((graph.num_vertices, 4))], labels, graph)
