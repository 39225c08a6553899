"""Tests for the per-window workload profiler."""

import pytest

from repro.adaptive import (
    CostModel,
    KernelChoice,
    WindowProfile,
    profile_window,
)
from repro.analysis import classify_window
from repro.graphs import load_dataset
from repro.models import make_model


@pytest.fixture(scope="module")
def graph():
    return load_dataset("GT", num_snapshots=8, seed=3)


@pytest.fixture(scope="module")
def profile(graph):
    window = graph.window(0, 4)
    model = make_model("T-GCN", graph.dim, 16, seed=3)
    return profile_window(window, classify_window(window), model)


class TestProfileWindow:
    def test_geometry(self, graph, profile):
        assert profile.num_vertices == graph.num_vertices
        assert profile.num_snapshots == 4
        assert profile.edges_total == sum(
            graph[t].num_edges for t in range(4)
        )
        assert profile.edges_first == graph[0].num_edges

    def test_class_fractions_partition_unity(self, profile):
        total = (
            profile.unaffected_frac
            + profile.stable_frac
            + profile.affected_frac
        )
        assert total == pytest.approx(1.0)
        assert profile.changed_frac == pytest.approx(
            profile.stable_frac + profile.affected_frac
        )

    def test_derived_quantities_bounded(self, profile):
        assert 0.0 < profile.changed_frac <= 1.0

    def test_model_shape_capture(self, graph, profile):
        model = make_model("T-GCN", graph.dim, 16, seed=3)
        assert profile.layer_dims == tuple(
            (layer.in_dim, layer.out_dim) for layer in model.gnn.layers
        )
        assert profile.cell_flops_per_vertex == model.cell.flops_per_vertex()

    def test_as_dict_is_json_scalars(self, profile):
        d = profile.as_dict()
        assert d["num_vertices"] == profile.num_vertices
        assert all(isinstance(v, (int, float)) for v in d.values())

    def test_deterministic(self, graph):
        window = graph.window(0, 4)
        model = make_model("T-GCN", graph.dim, 16, seed=3)
        cls = classify_window(window)
        a = profile_window(window, cls, model)
        b = profile_window(window, cls, model)
        assert a == b

    def test_zero_vertices_degenerate(self):
        """An empty window is still priced: no division by its size."""
        p = WindowProfile(
            num_vertices=0,
            num_snapshots=1,
            edges_total=0,
            edges_first=0,
            unaffected_frac=0.0,
            stable_frac=0.0,
            affected_frac=0.0,
            layer_dims=((4, 8),),
            cell_flops_per_vertex=10,
        )
        assert p.changed_frac == 0.0
        model = CostModel()
        fixed = model.table.window_fixed_seconds
        for kernel in KernelChoice:
            assert model.predict_kernel_seconds(p, kernel) >= fixed
