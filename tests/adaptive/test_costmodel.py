"""Tests for the calibrated cost model and its offline calibration."""

import pytest

from repro.adaptive import (
    CalibrationTable,
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

    def test_ewma_overrides_prediction(self, profile):
        model = CostModel(ewma_alpha=0.5)
        k = KernelChoice.BATCHED_SPMM
        model.observe(k, 1.0)
        assert model.kernel_seconds(profile, k) == 1.0
        model.observe(k, 2.0)
        assert model.kernel_seconds(profile, k) == pytest.approx(1.5)
        assert model.observation_count(k) == 2
        # other kernels still use the closed form
        other = KernelChoice.DELTA_CONDENSED
        assert model.observed_seconds(other) is None
        assert model.kernel_seconds(
            profile, other
        ) == model.predict_kernel_seconds(profile, other)

    def test_alpha_validated(self):
        with pytest.raises(ValueError):
            CostModel(ewma_alpha=0.0)
        with pytest.raises(ValueError):
            CostModel(ewma_alpha=1.5)

    def test_snapshot_serializable(self, profile):
        import json

        model = CostModel()
        model.observe(KernelChoice.DELTA_CONDENSED, 0.01)
        snap = model.snapshot()
        json.dumps(snap)
        assert snap["table_source"] == "default"
        assert snap["observations"] == {"delta-condensed": 1}


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

    def test_with_source(self):
        table = CalibrationTable().with_source("calibrated")
        assert table.source == "calibrated"
        assert (
            table.scatter_seconds_per_edge_dim
            == CalibrationTable().scatter_seconds_per_edge_dim
        )
