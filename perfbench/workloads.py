"""The six workloads: what each builds, drives and verifies.

Every workload generates its input from the seed alone
(``dataset_spec`` + scaled churn + ``generate_dynamic_graph``); the
program under test only ever receives the generated snapshots and event
batches.  A *round* is one fresh pipeline: ``build`` constructs it and
runs its warm-up windows (charged to ``setup_s``), ``drive`` issues the
timed operations one after another — a closed loop with one client, the
only traffic a synchronous library has.

Why each workload exists is recorded in ``BENCHMARK.json`` and
``perfbench/README.md``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, fields, replace

import numpy as np

import repro.adaptive as adaptive
from repro.accel.tagnn import TaGNNSimulator
from repro.engine.concurrent import ConcurrentEngine
from repro.engine.metrics import ExecutionMetrics
from repro.engine.reference import ReferenceEngine
from repro.engine.streaming import StreamingInference
from repro.graphs import dataset_spec, generate_dynamic_graph
from repro.graphs.dynamic import DynamicGraph
from repro.graphs.updates import event_stream
from repro.models import make_model
from repro.serving import ShardCluster

from .recorder import Round

__all__ = ["HIDDEN", "WINDOW", "WORKLOADS", "make_workload", "metrics_since"]

WINDOW = 4
HIDDEN = 32
DATASET = "GT"
#: a stream's agreement with the exact engine is taken over this many
#: timed windows of every lane: the exact run costs as much as the
#: stream itself, every run pays it, and a lane's later windows say
#: little that its first ones did not
DRIFT_WINDOWS = 4


def _lane_seeds(seed: int, lanes: int) -> list[int]:
    """Seeds of a run's independent inputs.  Runs with neighbouring
    ``--seed`` values must not share a graph, or their results would
    agree for that reason."""
    return [1000 * seed + lane for lane in range(lanes)]


def _graph(
    seed: int,
    snapshots: int,
    *,
    scale: float = 1.0,
    churn: float = 1.0,
    turnover: bool = False,
    skip: int = 0,
):
    """The seeded input graph, from its ``skip``-th snapshot on.

    Vertex arrival/departure is off unless ``turnover``: the generator
    holds back a reserve of absent ids that grows with the stream length
    (a third of all ids for a 104-snapshot stream), and which hubs land
    in it swings the edge count, and with it every timing, by +-15 %
    from seed to seed.
    """
    spec = dataset_spec(
        DATASET, scale=scale, num_snapshots=skip + snapshots, seed=seed
    )
    config = spec.churn.scaled(churn)
    if not turnover:
        config = replace(
            config, vertex_arrival_frac=0.0, vertex_departure_frac=0.0
        )
    graph = generate_dynamic_graph(replace(spec, churn=config))
    if skip:
        graph = DynamicGraph(graph.snapshots[skip:], name=graph.name)
    return graph


def metrics_since(after: ExecutionMetrics, before: ExecutionMetrics):
    """Counters accumulated between two readings (the timed phase only)."""
    out = ExecutionMetrics()
    for f in fields(ExecutionMetrics):
        a = getattr(after, f.name)
        if not isinstance(a, list):  # per-window trajectories stay empty
            setattr(out, f.name, a - getattr(before, f.name))
    return out


def _timed(outputs, first: int, lane) -> dict:
    """``(lane, timestamp) -> matrix`` for the timestamps from ``first``."""
    return {
        (lane, ts): matrix
        for ts, matrix in enumerate(outputs[first:], start=first)
    }


def _released(lane, result):
    """``((lane, timestamp), matrix)`` pairs of one ``StreamResult``."""
    return (
        ((lane, ts), matrix)
        for ts, matrix in zip(result.timestamps, result.outputs)
    )


def _drift(exact: dict, rnd: Round) -> float:
    """``relative_drift`` of a round's released matrices against the
    exact (``ReferenceEngine``, no skipping) ones for the same keys — the
    accuracy the paper trades for speed."""
    keys = sorted(exact)
    return adaptive.relative_drift(
        [exact[k] for k in keys], [rnd.released[k] for k in keys]
    )


# ----------------------------------------------------------------------
# streaming
# ----------------------------------------------------------------------
@dataclass
class _StreamInput:
    seeds: list  # one per lane
    graphs: list


@dataclass
class _StreamPipe:
    streams: list  # one StreamingInference per lane
    warm: list  # each lane's ExecutionMetrics after its warm-up
    calibrate_s: float = 0.0


class StreamWorkload:
    """``StreamingInference`` fed one snapshot at a time.

    A round plays ``lanes`` independent streams one after another, each
    over its own graph and model weights: how a stream's window times
    are spread differs from graph to graph by more than the machine's
    noise, and one run should not stand on one graph.
    """

    replicated = False

    def __init__(
        self, name, *, model, churn, lanes, warm, timed, skip=0, planned=False
    ):
        self.name = name
        self.model = model
        self.churn = churn
        self.skip = skip
        self.lanes = lanes
        self.warm_windows = warm
        self.timed_windows = timed
        self.planned = planned

    def make_input(self, seed: int):
        snapshots = WINDOW * (self.warm_windows + self.timed_windows)
        seeds = _lane_seeds(seed, self.lanes)
        return _StreamInput(
            seeds,
            [
                _graph(s, snapshots, churn=self.churn, skip=self.skip)
                for s in seeds
            ],
        )

    def _model(self, inp, lane: int):
        return make_model(
            self.model, inp.graphs[lane].dim, HIDDEN, seed=inp.seeds[lane]
        )

    def build(self, inp) -> _StreamPipe:
        table = None
        calibrate_s = 0.0
        if self.planned:
            t0 = time.perf_counter()
            table = adaptive.calibrate_cost_model(seed=inp.seeds[0])
            calibrate_s = time.perf_counter() - t0
        pipe = _StreamPipe([], [], calibrate_s)
        for lane, graph in enumerate(inp.graphs):
            planner = None
            if table is not None:
                planner = adaptive.AdaptivePlanner(
                    cost_model=adaptive.CostModel(table)
                )
            stream = StreamingInference(
                self._model(inp, lane), window_size=WINDOW, planner=planner
            )
            for snap in graph.snapshots[: WINDOW * self.warm_windows]:
                stream.push(snap)
            pipe.streams.append(stream)
            pipe.warm.append(ExecutionMetrics(**stream.metrics.as_dict()))
        return pipe

    def drive(self, pipe, inp, rnd: Round) -> None:
        for lane, (stream, graph) in enumerate(zip(pipe.streams, inp.graphs)):
            for snap in graph.snapshots[WINDOW * self.warm_windows :]:
                result = rnd.call(stream.push, snap)
                if result is not None:
                    rnd.release(_released(lane, result), window=True)
            result = rnd.call(stream.flush)
            if result is not None:
                rnd.release(_released(lane, result))

    def _timed_outputs(self, inp, engine, windows: int) -> dict:
        """A batch engine's outputs over the first ``windows`` timed
        windows of every lane."""
        first = WINDOW * self.warm_windows
        out = {}
        for lane, graph in enumerate(inp.graphs):
            head = DynamicGraph(
                graph.snapshots[: first + WINDOW * windows], name=graph.name
            )
            outputs = engine(self._model(inp, lane), window_size=WINDOW).run(
                head
            ).outputs
            out.update(_timed(outputs, first, lane))
        return out

    def expected(self, inp, pipe) -> dict:
        if self.planned:
            # threshold tuning has no independent exact path; the drift
            # budget is its contract (see invariants)
            return {}
        return self._timed_outputs(inp, ConcurrentEngine, self.timed_windows)

    def invariants(self, inp, pipe, rnd: Round) -> list[str]:
        bad = []
        pushed = self.lanes * WINDOW * self.timed_windows
        if len(rnd.released) != pushed:
            bad.append(f"pushed {pushed} snapshots, released {len(rnd.released)}")
        for lane, stream in enumerate(pipe.streams):
            planner = stream.planner
            if planner is not None and (
                planner.max_observed_drift > planner.config.drift_budget
            ):
                bad.append(
                    f"lane {lane}: probed drift {planner.max_observed_drift}"
                    f" over budget {planner.config.drift_budget}"
                )
        return bad

    def drift(self, inp, pipe, rnd: Round) -> float:
        windows = min(DRIFT_WINDOWS, self.timed_windows)
        return _drift(self._timed_outputs(inp, ReferenceEngine, windows), rnd)

    def counters(self, pipe, rnd: Round) -> dict:
        merged = ExecutionMetrics()
        for stream, warm in zip(pipe.streams, pipe.warm):
            merged = merged.merge(metrics_since(stream.metrics, warm))
        out = {"exec": merged}
        if self.planned:
            planners = [stream.planner for stream in pipe.streams]
            timed = [
                rec
                for planner in planners
                for rec in planner.records[self.warm_windows :]
            ]
            out["calibrate_s"] = pipe.calibrate_s
            out["kernel_switches"] = sum(p.kernel_switches for p in planners)
            out["kernels"] = [rec.plan.kernel.value for rec in timed]
            out["cost_residuals"] = [
                abs(
                    rec.plan.expected_kernel_seconds[rec.plan.kernel.value]
                    - rec.observed_seconds
                )
                / rec.observed_seconds
                for rec in timed
                if rec.observed_seconds
            ]
            out["max_drift"] = max(p.max_observed_drift for p in planners)
        return out


# ----------------------------------------------------------------------
# sharded serving
# ----------------------------------------------------------------------
@dataclass
class _ClusterInput:
    seed: int
    graphs: dict  # tenant -> DynamicGraph
    batches: dict  # tenant -> event batches, batches[t] evolves t -> t+1
    faults: dict  # timed ingest index -> (kind, shard)


@dataclass
class _ClusterPipe:
    cluster: ShardCluster
    warm: ExecutionMetrics
    torn_before: int


#: three faults per eight timed windows, in this proportion: plain
#: crashes feed the pooled recovery latency, one crash in six also tears
#: the newest checkpoint, one in six also makes the next load flake
_FAULT_KINDS = ("crash", "crash", "torn", "crash", "crash", "flaky")
_SCALE = 0.25


class ClusterWorkload:
    """``ShardCluster`` fed event batches, tenants alternating."""

    model = "T-GCN"

    def __init__(self, name, *, tenants, shards, warm, timed, chaos=False):
        self.name = name
        self.tenants = tuple(f"tenant{i}" for i in range(tenants))
        self.shards = shards
        self.warm_windows = warm
        self.timed_windows = timed
        self.chaos = chaos
        #: the traced run replays the input through one shard to price
        #: the replication (not under faults: they would hit one shard)
        self.replicated = shards > 1 and not chaos

    def make_input(self, seed: int):
        # one snapshot more than whole windows: the final flush has a
        # trailing partial window to release
        snapshots = WINDOW * (self.warm_windows + self.timed_windows) + 1
        graphs = {
            tenant: _graph(lane_seed, snapshots, scale=_SCALE)
            for tenant, lane_seed in zip(
                self.tenants, _lane_seeds(seed, len(self.tenants))
            )
        }
        batches = {t: event_stream(g) for t, g in graphs.items()}
        faults = {}
        if self.chaos:
            rng = np.random.default_rng(seed)
            count = 3 * self.timed_windows // 8
            hit = np.sort(
                rng.choice(self.timed_windows, size=count, replace=False)
            )
            kinds = rng.permutation(
                [_FAULT_KINDS[i % len(_FAULT_KINDS)] for i in range(count)]
            )
            for i, (window, kind) in enumerate(zip(hit, kinds)):
                # strike before the ingest that completes the window, so
                # every recovery replays the same three buffered snapshots
                faults[WINDOW * int(window) + WINDOW - 1] = (
                    str(kind),
                    i % self.shards,
                )
        return _ClusterInput(seed, graphs, batches, faults)

    def _model(self, inp):
        dim = next(iter(inp.graphs.values())).dim
        return make_model(self.model, dim, HIDDEN, seed=inp.seed)

    def _cluster(self, inp, shards: int) -> ShardCluster:
        cluster = ShardCluster(
            lambda: self._model(inp),
            num_shards=shards,
            window_size=WINDOW,
            seed=inp.seed,
        )
        for tenant in self.tenants:
            cluster.register_tenant(tenant)
        return cluster

    def build(self, inp, shards: int | None = None) -> _ClusterPipe:
        cluster = self._cluster(inp, self.shards if shards is None else shards)
        for tenant in self.tenants:
            cluster.push(tenant, inp.graphs[tenant][0])
        for step in range(WINDOW * self.warm_windows - 1):
            for tenant in self.tenants:
                cluster.ingest(tenant, inp.batches[tenant][step])
        return _ClusterPipe(
            cluster, cluster.metrics, _torn_incidents(cluster)
        )

    def drive(self, pipe, inp, rnd: Round) -> None:
        cluster = pipe.cluster
        first = WINDOW * self.warm_windows - 1
        for step in range(WINDOW * self.timed_windows + 1):
            fault = inp.faults.get(step)
            if fault is not None:
                kind, shard = fault
                worker = cluster.workers[shard]
                worker.crash()
                if kind == "torn":
                    worker.tear_checkpoints()
                elif kind == "flaky":
                    worker.flake_storage(1)
            for tenant in self.tenants:
                restarts = cluster.supervisor.restarts
                receipt = rnd.call(
                    cluster.ingest, tenant, inp.batches[tenant][first + step]
                )
                if receipt is None:
                    continue
                if not receipt.accepted:
                    rnd.fail(f"ingest shed: {receipt.shed_reason}")
                rnd.release(
                    (((tenant, ts), m) for ts, m in receipt.released),
                    window=True,
                )
                if cluster.supervisor.restarts > restarts and fault:
                    rnd.recovered(fault[0])
                rnd.backlog_max = max(
                    rnd.backlog_max,
                    max(w.total_depth() for w in cluster.workers),
                )
                if not self.chaos and cluster.released(tenant):
                    rnd.call(cluster.query, tenant)
        for tenant in self.tenants:
            tail = rnd.call(cluster.flush, tenant)
            rnd.release(((tenant, ts), m) for ts, m in tail or ())

    def expected(self, inp, pipe) -> dict:
        """Every released matrix against an unsharded stream over the
        admitted history."""
        out = {}
        for tenant in self.tenants:
            stream = StreamingInference(self._model(inp), window_size=WINDOW)
            outputs = []
            for snap in pipe.cluster.history(tenant):
                result = stream.push(snap.copy())
                if result is not None:
                    outputs.extend(result.outputs)
            result = stream.flush()
            if result is not None:
                outputs.extend(result.outputs)
            out.update(_timed(outputs, WINDOW * self.warm_windows, tenant))
        return out

    def invariants(self, inp, pipe, rnd: Round) -> list[str]:
        bad = []
        cluster = pipe.cluster
        for tenant in self.tenants:
            admitted = len(cluster.history(tenant))
            released = len(cluster.released(tenant))
            if admitted != released or admitted != len(inp.graphs[tenant]):
                bad.append(
                    f"{tenant}: {len(inp.graphs[tenant])} sent,"
                    f" {admitted} admitted, {released} released"
                )
        if self.chaos:
            want = len(inp.faults)
            got = metrics_since(cluster.metrics, pipe.warm).shard_restarts
            if got != want:
                bad.append(f"{want} faults injected, {got} restarts")
        return bad

    def drift(self, inp, pipe, rnd: Round) -> float:
        out = {}
        for tenant in self.tenants:
            outputs = ReferenceEngine(self._model(inp), window_size=WINDOW).run(
                inp.graphs[tenant]
            ).outputs
            out.update(_timed(outputs, WINDOW * self.warm_windows, tenant))
        return _drift(out, rnd)

    def counters(self, pipe, rnd: Round) -> dict:
        return {
            "exec": metrics_since(pipe.cluster.metrics, pipe.warm),
            "torn_skipped": _torn_incidents(pipe.cluster) - pipe.torn_before,
            "backlog_max": rnd.backlog_max,
        }


def _torn_incidents(cluster: ShardCluster) -> int:
    return sum(1 for inc in cluster.incidents if inc.kind == "torn-checkpoint")


# ----------------------------------------------------------------------
# batch simulation
# ----------------------------------------------------------------------
@dataclass
class _BatchInput:
    seed: int
    graphs: list


@dataclass
class _BatchPipe:
    simulator: TaGNNSimulator
    models: dict
    reports: list = field(default_factory=list)


class BatchWorkload:
    """The paper-reproducer's path: ``simulate`` and the reference run.

    A job is one model over one graph; there are 3 models x 4 graphs so
    that the median latency stands on the four jobs of the middle model,
    not on which of two similar models happens to be the middle one of
    three.
    """

    models = ("CD-GCN", "GC-LSTM", "T-GCN")
    num_graphs = 4
    replicated = False

    def __init__(self, name, *, timed):
        self.name = name
        self.timed_windows = timed  # windows per engine run

    def make_input(self, seed: int):
        # the registry's stream length, so its own vertex turnover stays on
        return _BatchInput(
            seed,
            [
                _graph(s, WINDOW * self.timed_windows, turnover=True)
                for s in _lane_seeds(seed, self.num_graphs)
            ],
        )

    def build(self, inp) -> _BatchPipe:
        models = {
            name: make_model(name, inp.graphs[0].dim, HIDDEN, seed=inp.seed)
            for name in self.models
        }
        return _BatchPipe(TaGNNSimulator(), models)

    def _jobs(self, inp, pipe):
        for name, model in pipe.models.items():
            for g, graph in enumerate(inp.graphs):
                yield (name, g), model, graph

    def drive(self, pipe, inp, rnd: Round) -> None:
        for job, model, graph in self._jobs(inp, pipe):
            report = rnd.call(pipe.simulator.simulate, model, graph, DATASET)
            if report is not None:
                pipe.reports.append(report)
                summary = np.array(
                    [report.cycles, report.seconds, report.joules]
                    + [
                        v
                        for v in report.metrics.as_dict().values()
                        if not isinstance(v, list)
                    ],
                    dtype=np.float64,
                )
                rnd.released[job + ("sim",)] = summary
                rnd.snapshots += graph.num_snapshots
                rnd.window_ops.append(rnd.ops - 1)
                rnd.windows += report.metrics.windows_processed
            result = rnd.call(
                ReferenceEngine(model, window_size=WINDOW).run, graph
            )
            if result is not None:
                rnd.release(
                    (job + ("ref", t), m) for t, m in enumerate(result.outputs)
                )
                rnd.windows += result.metrics.windows_processed

    def expected(self, inp, pipe) -> dict:
        """With skipping off the concurrent engine is exact: it must
        reproduce the reference engine bit for bit."""
        out = {}
        for job, model, graph in self._jobs(inp, pipe):
            outputs = ConcurrentEngine(
                model, window_size=WINDOW, enable_skipping=False
            ).run(graph).outputs
            for t, matrix in enumerate(outputs):
                out[job + ("ref", t)] = matrix
        return out

    def invariants(self, inp, pipe, rnd: Round) -> list[str]:
        return []

    def drift(self, inp, pipe, rnd: Round) -> float:
        baseline, outputs = [], []
        for job, model, graph in self._jobs(inp, pipe):
            got = ConcurrentEngine(model, window_size=WINDOW).run(graph).outputs
            for t, matrix in enumerate(got):
                baseline.append(rnd.released[job + ("ref", t)])
                outputs.append(matrix)
        return adaptive.relative_drift(baseline, outputs)

    def counters(self, pipe, rnd: Round) -> dict:
        merged = ExecutionMetrics()
        for report in pipe.reports:
            merged = merged.merge(report.metrics)
        return {
            "exec": merged,
            "reference_snapshots": len(pipe.models)
            * self.num_graphs
            * WINDOW
            * self.timed_windows,
            "sim_cycles": sum(r.cycles for r in pipe.reports),
        }


#: name -> (class, arguments); sizes put 3-4 rounds of about 3.2 s in a
#: 10 s run and 32 or more window positions in a round of every
#: streaming/serving workload
WORKLOADS = {
    "stream-lowchurn": (
        StreamWorkload,
        dict(model="GC-LSTM", churn=0.25, lanes=4, warm=2, timed=8),
    ),
    "stream-highchurn": (
        StreamWorkload,
        dict(model="GC-LSTM", churn=3.0, lanes=4, warm=2, timed=8),
    ),
    "stream-adaptive": (
        StreamWorkload,
        dict(
            model="CD-GCN", churn=1.0, skip=192, lanes=3, warm=8, timed=40,
            planned=True,
        ),
    ),
    "cluster-serve": (
        ClusterWorkload, dict(tenants=2, shards=4, warm=1, timed=16)
    ),
    "cluster-chaos": (
        ClusterWorkload,
        dict(tenants=1, shards=4, warm=2, timed=32, chaos=True),
    ),
    "batch-sim": (BatchWorkload, dict(timed=2)),
}

SMOKE_WINDOWS = 8


def make_workload(name: str, *, smoke: bool = False):
    """A fresh workload object; ``smoke`` caps the timed windows at 8."""
    cls, kwargs = WORKLOADS[name]
    if smoke:
        kwargs = dict(kwargs, timed=min(kwargs["timed"], SMOKE_WINDOWS))
    return cls(name, **kwargs)
