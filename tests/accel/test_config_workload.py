"""Tests for the accelerator configuration and workload analysis."""

import numpy as np
import pytest

from repro.accel import TaGNNConfig, WorkloadStats
from repro.graphs import load_dataset
from repro.models import make_model


class TestConfig:
    def test_table4_defaults(self):
        cfg = TaGNNConfig()
        assert cfg.total_macs == 4096  # 16 DCUs x 256 CPEs
        assert cfg.total_apes == 16 * 128
        assert cfg.frequency_mhz == 225.0
        assert cfg.window_size == 4

    def test_memory_subsystem_sizes(self):
        ms = TaGNNConfig().memory_subsystem()
        assert ms.buffers["feature_memory"].capacity_bytes == 2 * 1024 * 1024

    def test_with_dcus(self):
        cfg = TaGNNConfig().with_dcus(8)
        assert cfg.num_dcus == 8
        assert cfg.total_macs == 8 * 256

    def test_with_macs(self):
        cfg = TaGNNConfig().with_macs(8192)
        assert cfg.total_macs == 8192
        with pytest.raises(ValueError):
            TaGNNConfig().with_macs(1000)  # not divisible by 16

    def test_with_window(self):
        assert TaGNNConfig().with_window(6).window_size == 6

    def test_ablated(self):
        cfg = TaGNNConfig().ablated(oadl=False)
        assert not cfg.enable_oadl and cfg.enable_adsc
        cfg2 = TaGNNConfig().ablated(adsc=False, dispatcher=False)
        assert cfg2.enable_oadl and not cfg2.enable_adsc
        assert not cfg2.enable_dispatcher

    def test_validation(self):
        with pytest.raises(ValueError):
            TaGNNConfig(num_dcus=0)
        with pytest.raises(ValueError):
            TaGNNConfig(window_size=0)
        with pytest.raises(ValueError):
            TaGNNConfig(frequency_mhz=-1)


class TestWorkloadStats:
    @pytest.fixture(scope="class")
    def workload(self):
        g = load_dataset("GT", num_snapshots=8)
        model = make_model("T-GCN", g.dim, 32, seed=3)
        return WorkloadStats.analyze(g, model, 4)

    def test_window_count(self, workload):
        assert len(workload.windows) == 2

    def test_window_stats_consistent(self, workload):
        for w in workload.windows:
            assert w.unaffected + w.stable + w.affected == workload.graph.num_vertices
            assert w.subgraph_vertices == w.stable + w.affected
            assert w.subgraph_edges <= w.edges_total

    def test_random_access_orders(self, workload):
        """O-CSR's contiguous layout must need far fewer latency-bound
        accesses than per-edge CSR gathering."""
        assert workload.random_accesses_ocsr() < workload.random_accesses_csr() / 5

    def test_scored_vertices_positive(self, workload):
        assert 0 < workload.scored_vertices()

    def test_avg_degree(self, workload):
        assert 5 < workload.avg_degree() < 100

    def test_load_imbalance_balanced_better(self, workload):
        bal = workload.load_imbalance(16, balanced=True)
        unbal = workload.load_imbalance(16, balanced=False)
        assert 1.0 <= bal < unbal

    def test_load_imbalance_single_unit(self, workload):
        assert workload.load_imbalance(1, balanced=True) == 1.0
