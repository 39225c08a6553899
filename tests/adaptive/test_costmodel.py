"""Tests for the calibrated cost model and its offline calibration."""

import pytest

from repro.adaptive import (
    CostModel,
    KernelChoice,
    calibrate_cost_model,
    profile_window,
)
from repro.analysis import classify_window
from repro.graphs import load_dataset
from repro.models import make_model


@pytest.fixture(scope="module")
def profile():
    graph = load_dataset("GT", num_snapshots=8, seed=3)
    window = graph.window(0, 4)
    model = make_model("T-GCN", graph.dim, 16, seed=3)
    return profile_window(window, classify_window(window), model)


class TestKernelPredictions:
    def test_all_kernels_priced_positive(self, profile):
        model = CostModel()
        for kernel in KernelChoice:
            assert model.predict_kernel_seconds(profile, kernel) > 0.0


class TestCalibration:
    def test_calibrated_table_positive_and_sourced(self):
        table = calibrate_cost_model(
            seed=3, num_vertices=256, avg_degree=4, dim=8, repeats=1
        )
        assert table.source == "calibrated"
        assert table.scatter_seconds_per_edge_dim > 0.0
        assert table.combine_seconds_per_mac > 0.0
        assert table.cell_seconds_per_flop > 0.0
        assert table.classify_seconds_per_vertex > 0.0
        assert table.mask_seconds_per_vertex > 0.0
