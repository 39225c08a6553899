"""End-to-end integration tests across the whole stack.

These chain every subsystem the way the benches and examples do:
generator -> classification -> subgraph -> O-CSR -> engines -> simulator
-> platforms -> accuracy protocol, and assert the cross-module contracts.
"""

import numpy as np
import pytest

from repro.accel import (
    ACCELERATOR_BASELINES,
    TAGNN_S,
    DGL_CPU,
    PIPAD,
    TaGNNConfig,
    TaGNNSimulator,
    WorkloadStats,
    estimate_resources,
)
from repro.analysis import classify_window, extract_affected_subgraph
from repro.engine import ConcurrentEngine, ReferenceEngine
from repro.formats import OCSRStorage, SnapshotCSRStorage, WindowSelection
from repro.graphs import load_dataset
from repro.models import (
    evaluate_accuracy,
    fit_readout,
    make_model,
    make_teacher_labels,
)

from .storage import all_edges


@pytest.fixture(scope="module")
def stack():
    graph = load_dataset("GT", num_snapshots=8)
    model = make_model("T-GCN", graph.dim, 32, seed=0)
    reference = ReferenceEngine(model, window_size=4).run(graph)
    concurrent = ConcurrentEngine(model, window_size=4).run(graph)
    return graph, model, reference, concurrent


class TestFullPipeline:
    def test_subgraph_feeds_ocsr(self, stack):
        graph, *_ = stack
        window = graph.window(0, 4)
        sg = extract_affected_subgraph(window)
        store = OCSRStorage(sg.selection())
        csr = SnapshotCSRStorage(sg.selection())
        assert np.array_equal(all_edges(store), all_edges(csr))
        assert store.storage_bytes() < csr.storage_bytes()

    def test_engines_agree_semantically(self, stack):
        graph, model, reference, concurrent = stack
        err = np.mean(
            [
                np.abs(a - b).mean()
                for a, b in zip(concurrent.outputs, reference.outputs)
            ]
        )
        assert err < 0.05

    def test_savings_flow_to_simulator(self, stack):
        graph, model, reference, concurrent = stack
        wl = WorkloadStats.analyze(graph, model, 4)
        tagnn = TaGNNSimulator().simulate(model, graph, "GT", workload=wl)
        # functional savings must appear in the hardware numbers
        assert tagnn.metrics.cells_skipped == concurrent.metrics.cells_skipped
        assert tagnn.extra["words"] < reference.metrics.total_words

    def test_all_platforms_report(self, stack):
        graph, model, reference, _ = stack
        wl = WorkloadStats.analyze(graph, model, 4)
        reports = {"TaGNN": TaGNNSimulator().simulate(model, graph, "GT", workload=wl)}
        for name, p in {**ACCELERATOR_BASELINES, "DGL-CPU": DGL_CPU, "PiPAD": PIPAD}.items():
            reports[name] = p.simulate(
                model, graph, "GT", metrics=reference.metrics, workload=wl
            )
        reports["TaGNN-S"] = TAGNN_S.simulate(model, graph, "GT", workload=wl)
        # TaGNN wins everywhere, on both axes
        for name, r in reports.items():
            if name == "TaGNN":
                continue
            assert reports["TaGNN"].seconds < r.seconds, name
            assert reports["TaGNN"].joules < r.joules, name

    def test_accuracy_protocol_end_to_end(self, stack):
        graph, model, reference, concurrent = stack
        labels = make_teacher_labels(graph, 4)
        readout = fit_readout(reference.outputs, labels, graph)
        acc_ref = evaluate_accuracy(reference.outputs, labels, graph, readout=readout)
        acc_skip = evaluate_accuracy(concurrent.outputs, labels, graph, readout=readout)
        assert acc_ref > 0.35  # learnable task
        assert acc_ref - acc_skip < 0.02  # skipping costs < 2 points

    def test_resources_fit_for_all_models(self, stack):
        graph, *_ = stack
        for name in ("CD-GCN", "GC-LSTM", "T-GCN"):
            model = make_model(name, graph.dim, 32)
            assert estimate_resources(model).fits()

    def test_window_sweep_consistency(self, stack):
        """Larger windows monotonically reduce loader traffic per
        snapshot under OADL (more overlap exploited)."""
        graph, model, *_ = stack
        words = []
        for k in (1, 2, 4, 8):
            cfg = TaGNNConfig().with_window(k)
            rep = TaGNNSimulator(cfg).simulate(
                model, graph, "GT",
                workload=WorkloadStats.analyze(graph, model, k),
            )
            words.append(rep.extra["words"])
        assert words[0] > words[1] > words[2] > words[3]

    def test_classification_drives_engine_savings(self, stack):
        """The unaffected fraction bounds the GNN compute savings: the
        engine must compute at most (1 + changed share) of the reference
        aggregation work (within the representative-pass overhead)."""
        graph, model, reference, concurrent = stack
        c = classify_window(graph.window(0, 4))
        changed_share = 1.0 - c.unaffected_ratio()
        ratio = (
            concurrent.metrics.aggregation_macs
            / reference.metrics.aggregation_macs
        )
        assert ratio < 0.3 + changed_share  # 0.3 covers the rep pass
