"""The TaGNN accelerator simulator (paper Section 4).

The simulator executes the workload *functionally* through the TaGNN-S
engine (so skipping decisions, delta densities, and MAC counts are real,
not estimated) and then prices it on the hardware model:

* **MSDL** — the 6-stage classification/loading pipeline plus the 5-stage
  TFSM traversal, with the replicated fetch stages of Fig. 6;
* **Task Dispatcher** — degree-balanced task assignment across DCUs
  (disabling it exposes the contiguous-chunk imbalance);
* **DCU array** — CPE MAC arrays for combination + cell updates, APE
  adder trees for aggregation;
* **Adaptive RNN Unit** — SCU similarity scoring, Condense Unit packing,
  activation pipeline;
* **memory** — off-chip HBM traffic under overlap-aware loading: each
  distinct (vertex, version) feature crosses the pins once per window in
  O-CSR's contiguous runs, weights once per window, outputs once per
  changed row.  With OADL disabled the loader degenerates to per-event
  traffic with per-gather random accesses, like the baselines.

All units run in dataflow style (paper Fig. 5): with pipeline overlap
enabled the window's span is the slowest of {load, compute, RNN} plus
pipeline fill; disabling overlap serialises them.
"""

from __future__ import annotations

from ..check.sanitizer import check_energy_composition, sanitizer_enabled
from ..engine.concurrent import ConcurrentEngine
from ..engine.reference import EngineResult
from ..graphs.dynamic import DynamicGraph
from ..hardware.energy import FPGA_U280
from ..hardware.memory import HBMModel
from ..hardware.pipeline import Pipeline, PipelineStage
from ..hardware.units import AdderTree, MACArray, SimilarityCore
from ..models.base import DGNNModel
from .config import TaGNNConfig
from .report import SimulationReport
from .workload import WorkloadStats

__all__ = ["TaGNNSimulator"]

_RANDOM_NS = 45.0


class TaGNNSimulator:
    """Cycle/energy simulator for the TaGNN accelerator."""

    def __init__(self, config: TaGNNConfig | None = None):
        self.config = config or TaGNNConfig()

    # ------------------------------------------------------------------
    def run_engine(self, model: DGNNModel, graph: DynamicGraph) -> EngineResult:
        """The functional half: TaGNN-S with this config's feature flags."""
        cfg = self.config
        return ConcurrentEngine(
            model,
            window_size=cfg.window_size,
            enable_overlap=cfg.enable_oadl,
            enable_skipping=cfg.enable_adsc,
        ).run(graph)

    # ------------------------------------------------------------------
    def simulate(
        self,
        model: DGNNModel,
        graph: DynamicGraph,
        dataset: str = "?",
        *,
        engine_result: EngineResult | None = None,
        workload: WorkloadStats | None = None,
        hbm: HBMModel | None = None,
    ) -> SimulationReport:
        # ``hbm`` overrides the config's memory model; the resilience
        # fault injector passes a wrapper that raises transient storage
        # errors on selected requests.
        cfg = self.config
        # only the run made here is known to be this graph's under
        # cfg.window_size: a result handed in is priced from fresh labels
        classifications = None
        if engine_result is None:
            engine_result = self.run_engine(model, graph)
            classifications = engine_result.extra["classifications"]
        if workload is None:
            workload = WorkloadStats.analyze(
                graph, model, cfg.window_size, classifications
            )
        metrics = engine_result.metrics
        if hbm is None:
            hbm = cfg.hbm()

        # --- off-chip traffic -------------------------------------------
        words, randoms, gspm_windows = self._offchip_traffic(
            model, graph, workload, metrics
        )
        hbm_cycles = hbm.cycles(words=words) + (
            randoms * _RANDOM_NS * 1e-9 * cfg.frequency_mhz * 1e6
        ) / 32.0  # deep MSDL pipelining keeps ~32 requests in flight

        # --- MSDL pipelines ----------------------------------------------
        msdl_cycles = self._msdl_cycles(graph, workload)

        # --- DCU compute ----------------------------------------------
        imbalance = workload.load_imbalance(
            cfg.num_dcus, balanced=cfg.enable_dispatcher
        )
        mac_array = MACArray(cfg.total_macs, efficiency=cfg.mac_efficiency)
        adders = AdderTree(width=8, count=max(1, cfg.total_apes // 8))
        comb_cycles = mac_array.cycles(metrics.combination_macs)
        agg_cycles = adders.cycles(metrics.aggregation_macs)
        cell_cycles = mac_array.cycles(metrics.cell_macs) * imbalance
        gnn_cycles = (comb_cycles + agg_cycles) * imbalance

        # --- Adaptive RNN Unit ------------------------------------------
        scu = SimilarityCore(lanes=cfg.scu_lanes, count=cfg.scu_count)
        scored = workload.scored_vertices() if cfg.enable_adsc else 0
        scu_cycles = scu.cycles(scored, model.gnn.out_dim, workload.avg_degree())
        condense_cycles = metrics.cells_delta * model.gnn.out_dim / 16.0
        act_rows = metrics.cells_full + metrics.cells_delta
        act_cycles = act_rows * model.out_dim / 64.0
        # the dispatcher also feeds the ARU's SCUs, so imbalance stalls
        # them the same way it stalls the DCUs
        aru_cycles = (scu_cycles + condense_cycles + act_cycles) * imbalance
        rnn_cycles = cell_cycles + aru_cycles
        dcu_cycles = gnn_cycles + cell_cycles  # reported breakdown

        # --- composition ------------------------------------------------
        # ADSC is what relaxes the inter-snapshot and GNN->RNN temporal
        # dependencies (most cell updates are skipped or reduced to
        # independent delta patches, so the RNN phase streams in dataflow
        # with the rest).  Without it, the full cell updates serialise
        # behind the GNN phase, exactly the dependency stall of Section 2.2.
        fill = 64.0 * metrics.windows_processed  # pipeline fill/drain
        if not cfg.enable_pipeline_overlap:
            total = hbm_cycles + msdl_cycles + gnn_cycles + rnn_cycles + fill
        elif cfg.enable_adsc:
            total = max(hbm_cycles, msdl_cycles, gnn_cycles, rnn_cycles) + fill
        else:
            total = max(hbm_cycles, msdl_cycles, gnn_cycles) + rnn_cycles + fill

        seconds = total / (cfg.frequency_mhz * 1e6)

        # --- energy ------------------------------------------------------
        # event-level words are on-chip (SRAM) traffic; off-chip is `words`
        e_macs = FPGA_U280.dynamic_joules(
            macs=metrics.total_macs + metrics.overhead_ops
        )
        e_sram = FPGA_U280.dynamic_joules(
            # deliberate cross-unit heuristic: SRAM traffic estimated as
            # 2 words/feature-word moved + 0.5 words/MAC operand reuse
            sram_words=2.0 * metrics.total_words + 0.5 * metrics.total_macs  # repro: noqa R003
        )
        e_dram = FPGA_U280.dynamic_joules(dram_words=words)
        e_static = FPGA_U280.static_joules(total)
        joules = e_macs + e_sram + e_dram + e_static
        energy_breakdown = {
            "compute_j": e_macs,
            "sram_j": e_sram,
            "dram_j": e_dram,
            "static_j": e_static,
        }
        if sanitizer_enabled():
            check_energy_composition(joules, energy_breakdown)

        return SimulationReport(
            platform="TaGNN",
            model=model.name,
            dataset=dataset,
            cycles=total,
            seconds=seconds,
            joules=joules,
            breakdown={
                "memory": hbm_cycles,
                "msdl": msdl_cycles,
                "dcu": dcu_cycles,
                "aru": aru_cycles,
                "fill": fill,
            },
            metrics=metrics,
            extra={
                "words": words,
                "randoms": randoms,
                "gspm_windows": gspm_windows,
                "energy_breakdown": energy_breakdown,
                "imbalance": imbalance,
                "utilization": min(1.0, dcu_cycles / total) if total else 0.0,
                "skip_ratio": metrics.skip_ratio(),
                "partition_strategy": cfg.partition_strategy,
            },
        )

    # ------------------------------------------------------------------
    def _offchip_traffic(
        self,
        model,
        graph,
        workload: WorkloadStats,
        metrics,
    ) -> tuple[float, float, int]:
        """Off-chip (words, random accesses, windows that needed GSPM
        partitioning) under the configured loader."""
        cfg = self.config
        dim = graph.dim
        weight_words = sum(
            l.weight.size + l.bias.size for l in model.gnn.layers
        ) + model.cell.w_x.size + model.cell.w_h.size

        if not cfg.enable_oadl:
            # WO/OADL ablation: event-level loading with per-gather
            # randoms.  The ablated design keeps its Feature Memory, which
            # captures intra-snapshot reuse of much of the gather traffic.
            return (
                float(metrics.total_words),
                float(0.4 * workload.random_accesses_csr()),
                0,
            )

        words = 0.0
        gspm_windows = 0
        budget = (
            cfg.memory_subsystem().buffers["feature_memory"].usable_bytes // 4
        )
        for wi, w in enumerate(workload.windows):
            base = w.unaffected + w.stable + w.affected
            versions = w.affected * (w.num_snapshots - 1)
            window_words = (base + versions) * dim  # each version once
            words += window_words
            # O-CSR structure: tindex + timestamp(byte) + sindex/enum
            words += w.subgraph_edges * 1.25 + 2 * w.subgraph_vertices
            # union structure scanned once for classification
            words += w.edges_total / w.num_snapshots + graph.num_vertices
            words += weight_words  # weights once per window
            # GSPM: working sets beyond the Feature Memory are streamed
            # partition by partition; cross-partition edges re-fetch the
            # remote endpoint's feature (see repro.accel.partition)
            if window_words > budget:
                from .partition import GSPM, PartitionStrategy

                gspm_windows += 1
                start = wi * cfg.window_size
                win = graph.window(
                    start, min(cfg.window_size, graph.num_snapshots - start)
                )
                plan = GSPM(win, budget_words=budget).plan(
                    PartitionStrategy(cfg.partition_strategy)
                )
                words += plan.extra_words(dim)
        words += metrics.output_words
        return words, float(workload.random_accesses_ocsr()), gspm_windows

    def _msdl_cycles(self, graph, workload: WorkloadStats) -> float:
        """The 6-stage loader + 5-stage TFSM + O-CSR fill, per window."""
        cfg = self.config
        avg_deg = workload.avg_degree()
        total = 0.0
        for w in workload.windows:
            loader = Pipeline(
                "msdl-loader",
                [
                    PipelineStage("fetch_vertex", 1),
                    PipelineStage("fetch_snapshot", 1),
                    PipelineStage("fetch_offsets", 1),
                    PipelineStage(
                        "fetch_neighbors",
                        max(1.0, avg_deg * w.num_snapshots / 32.0),
                        replication=2,
                    ),
                    PipelineStage("fetch_features", 1, replication=2),
                    PipelineStage("identify_vertices", 1),
                ],
            )
            tfsm = Pipeline(
                "tfsm",
                [
                    PipelineStage("fetch_root", 1),
                    PipelineStage("fetch_neighbors", max(1.0, avg_deg / 16.0)),
                    PipelineStage("type_detection", 1),
                    PipelineStage("offsets_fetching", 1),
                    PipelineStage("neighbors_selection", 1),
                ],
            )
            total += loader.cycles(graph.num_vertices)
            total += tfsm.cycles(w.subgraph_vertices)
            total += w.subgraph_edges / 64.0  # O-CSR fill (4 banks x 16 w/cyc)
        return total
