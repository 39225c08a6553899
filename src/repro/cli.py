"""Command-line interface: ``python -m repro <command> ...``.

Commands
--------
``datasets``
    Print the Table-2 registry (paper stats + synthetic stand-ins).
``classify``
    Vertex classification / affected-subgraph statistics for a window.
``simulate``
    Run the TaGNN simulator on one (model, dataset) cell and print the
    latency/energy report with the component breakdown.
``compare``
    Simulate every platform on one cell and print the speedup/energy
    table (one row of Figs. 9-11).
``accuracy``
    Exact vs cell-skipping accuracy on one cell (one cell of Table 5).
``stats``
    Temporal profile of a dataset (overlap, churn, unaffected ratios).
``generate``
    Generate a synthetic dataset and save it as a ``.npz`` archive.
``check``
    Run the repo's static-analysis pass (rules R001-R008, see
    docs/static_analysis.md); exits non-zero on any finding.
``perf``
    Run the hot-path performance suite (event-application throughput,
    streaming window latency, peak RSS; ``--adaptive`` adds the
    static-vs-planner streaming comparison) and archive a
    schema-versioned ``BENCH_<timestamp>.json`` (see
    docs/performance.md).
``plan``
    Run one streaming cell under the adaptive planner and print the
    per-window decision audit (``--explain`` adds the latest plan's full
    rationale and the cost-model state).
``chaos``
    Run a seeded fault-injection campaign through the sharded serving
    layer, print the incident report and verify bit-identity against
    the unsharded stream (see docs/resilience.md, docs/serving.md).
    The plan carries stream faults (poison events, torn snapshots,
    engine faults, storage flakes); ``--cluster`` schedules shard
    faults instead (crashes / stalls / slow shards / torn checkpoints).
``dlq``
    Inspect a ``DeadLetterQueue`` capture (written by ``--dlq-out`` or
    :meth:`DeadLetterQueue.save`) and optionally re-drain it back
    through guarded ingestion against a dataset's snapshots.

All commands are deterministic for fixed arguments.
"""

from __future__ import annotations

import argparse
import sys

__all__ = [
    "COMMANDS",
    "build_parser",
    "cmd_accuracy",
    "cmd_chaos",
    "cmd_check",
    "cmd_classify",
    "cmd_compare",
    "cmd_datasets",
    "cmd_dlq",
    "cmd_generate",
    "cmd_perf",
    "cmd_plan",
    "cmd_simulate",
    "cmd_stats",
    "main",
]


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="repro",
        description="TaGNN reproduction command-line interface",
    )
    sub = p.add_subparsers(dest="command", required=True)

    sub.add_parser("datasets", help="print the dataset registry")

    c = sub.add_parser("classify", help="window classification statistics")
    _common(c)
    c.add_argument("--window", type=int, default=4)

    s = sub.add_parser("simulate", help="run the TaGNN simulator")
    _common(s)
    s.add_argument("--model", default="T-GCN")
    s.add_argument("--window", type=int, default=4)
    s.add_argument("--dcus", type=int, default=16)
    s.add_argument("--macs", type=int, default=4096)
    s.add_argument("--no-oadl", action="store_true")
    s.add_argument("--no-adsc", action="store_true")

    cmp_ = sub.add_parser("compare", help="compare all platforms on one cell")
    _common(cmp_)
    cmp_.add_argument("--model", default="T-GCN")

    a = sub.add_parser("accuracy", help="accuracy cost of cell skipping")
    _common(a)
    a.add_argument("--model", default="T-GCN")
    a.add_argument("--classes", type=int, default=4)

    st_ = sub.add_parser("stats", help="temporal profile of a dataset")
    _common(st_)
    st_.add_argument("--window", type=int, default=4)

    gen = sub.add_parser("generate", help="generate a dataset and save it")
    _common(gen)
    gen.add_argument("--scale", type=float, default=1.0)
    gen.add_argument("--out", required=True, help="output .npz path")

    ch = sub.add_parser("chaos", help="seeded fault-injection campaign")
    _common(ch)
    ch.add_argument("--model", default="T-GCN")
    ch.add_argument("--window", type=int, default=4)
    ch.add_argument("--faults-per-kind", type=int, default=1)
    ch.add_argument("--fault-seed", type=int, default=7)
    ch.add_argument("--cluster", action="store_true",
                    help="schedule shard faults (worker crash/stall/slow/"
                         "torn-checkpoint) instead of stream faults")
    ch.add_argument("--shards", type=int, default=4,
                    help="shard count (default 4)")
    ch.add_argument("--tenants", type=int, default=1,
                    help="tenant count (default 1)")
    ch.add_argument("--smoke", action="store_true",
                    help="short CI-sized campaign (small model, few"
                         " snapshots)")
    ch.add_argument("--report-out", metavar="JSON",
                    help="write the campaign report as a JSON artefact")
    ch.add_argument("--dlq-out", metavar="NPZ",
                    help="write the dead-letter queue as an .npz capture")

    dlq = sub.add_parser("dlq", help="inspect / re-drain a dead-letter"
                                     " capture")
    dlq.add_argument("capture", help="path to a DeadLetterQueue .npz"
                                     " capture")
    _common(dlq)
    dlq.add_argument("--redrain", action="store_true",
                     help="re-validate event letters against the"
                          " dataset's snapshots through guarded ingestion")
    dlq.add_argument("--out", metavar="NPZ",
                     help="with --redrain: write the still-poison"
                          " remainder to this capture")

    perf = sub.add_parser("perf", help="run the hot-path performance suite")
    perf.add_argument("--smoke", action="store_true",
                      help="30-second CI subset (smaller cells, 3 repeats)")
    perf.add_argument("--repeats", type=int, default=7,
                      help="timed passes per cell (best/pooled, default 7)")
    perf.add_argument("--out", default=".",
                      help="directory for BENCH_<timestamp>.json (default .)")
    perf.add_argument("--no-write", action="store_true",
                      help="print tables only, skip the JSON artefact")
    perf.add_argument("--baseline", metavar="JSON",
                      help="prior BENCH_*.json to diff against (report-only)")
    perf.add_argument("--adaptive", action="store_true",
                      help="also run the static-vs-adaptive streaming "
                           "comparison (calibrates the cost model first)")

    pl = sub.add_parser("plan", help="adaptive planner decision audit")
    _common(pl)
    pl.add_argument("--model", default="T-GCN")
    pl.add_argument("--window", type=int, default=4)
    pl.add_argument("--repeats", type=int, default=2,
                    help="stream passes sharing one planner (default 2)")
    pl.add_argument("--calibrate", action="store_true",
                    help="micro-benchmark the cost model on this machine "
                         "instead of using the baked defaults")
    pl.add_argument("--explain", action="store_true",
                    help="print the per-window audit and the latest plan's "
                         "full rationale")

    chk = sub.add_parser("check", help="run the static-analysis pass")
    chk.add_argument("paths", nargs="*", default=["src"],
                     help="files or directories to scan (default: src)")
    chk.add_argument("--select", action="append", metavar="CODE",
                     help="run only these rule codes (repeatable)")
    chk.add_argument("--root", default=".",
                     help="repo root for relative paths and config lookup")
    chk.add_argument("--list-rules", action="store_true",
                     help="print the registered rules and exit")
    chk.add_argument("--format", choices=("text", "json", "sarif"),
                     default="text", dest="output_format",
                     help="output format (json/sarif for tooling; the"
                     " exit-code gate is identical)")
    chk.add_argument("--statistics", action="store_true",
                     help="print per-rule finding counts and wall time"
                     " to stderr")

    return p


def _common(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--dataset", default="GT", help="HP|GT|ML|EP|FK")
    sp.add_argument("--snapshots", type=int, default=8)
    sp.add_argument("--hidden", type=int, default=32)
    sp.add_argument("--seed", type=int, default=3)


# ----------------------------------------------------------------------
def cmd_datasets(args) -> int:
    from .bench.report import render_table
    from .graphs import DATASET_NAMES, dataset_spec, paper_stats

    rows = []
    for name in DATASET_NAMES:
        ps = paper_stats(name)
        spec = dataset_spec(name)
        rows.append(
            [ps.abbrev, ps.name, f"{ps.num_vertices:,}", f"{ps.num_edges:,}",
             ps.dim, ps.num_snapshots, spec.num_vertices, spec.num_edges,
             spec.dim]
        )
    print(
        render_table(
            "Datasets (paper | synthetic stand-in)",
            ["key", "name", "#V", "#E", "dim", "#snaps",
             "synth #V", "synth #E", "synth dim"],
            rows,
        )
    )
    return 0


def cmd_classify(args) -> int:
    from .analysis import classify_window, extract_affected_subgraph
    from .graphs import load_dataset

    g = load_dataset(args.dataset, num_snapshots=args.snapshots, seed=args.seed)
    window = g.window(0, min(args.window, g.num_snapshots))
    c = classify_window(window)
    sg = extract_affected_subgraph(window, c)
    print(f"dataset {args.dataset}: {g.num_vertices} vertices, "
          f"window of {window.num_snapshots} snapshots")
    for k, v in c.counts().items():
        print(f"  {k:>10}: {v:6d}  ({100 * v / g.num_vertices:.1f}%)")
    st = sg.stats()
    print(f"  affected subgraph: {st['subgraph_vertices']} vertices "
          f"({100 * st['subgraph_fraction']:.1f}%), {st['roots']} stable roots")
    return 0


def _make(args):
    from .graphs import load_dataset
    from .models import make_model

    g = load_dataset(args.dataset, num_snapshots=args.snapshots, seed=args.seed)
    m = make_model(args.model, g.dim, args.hidden, seed=args.seed)
    return g, m


def cmd_simulate(args) -> int:
    from .accel import TaGNNConfig, TaGNNSimulator

    g, m = _make(args)
    cfg = TaGNNConfig(
        num_dcus=args.dcus,
        cpes_per_dcu=max(1, args.macs // args.dcus),
        window_size=args.window,
        enable_oadl=not args.no_oadl,
        enable_adsc=not args.no_adsc,
    )
    rep = TaGNNSimulator(cfg).simulate(m, g, args.dataset)
    print(f"TaGNN ({cfg.total_macs} MACs, {cfg.num_dcus} DCUs, "
          f"window {cfg.window_size}) on {args.model}/{args.dataset}:")
    print(f"  latency : {rep.seconds * 1e6:10.1f} us  ({rep.cycles:,.0f} cycles)")
    print(f"  energy  : {rep.joules * 1e3:10.3f} mJ  (avg {rep.watts:.1f} W)")
    print(f"  off-chip: {rep.extra['words']:,.0f} words, "
          f"{rep.extra['randoms']:,.0f} random accesses")
    print("  breakdown (cycles):")
    for k, v in rep.breakdown.items():
        print(f"    {k:>8}: {v:12,.0f}")
    print(f"  skip ratio {rep.extra['skip_ratio']:.2f}, "
          f"imbalance {rep.extra['imbalance']:.2f}")
    return 0


def cmd_compare(args) -> int:
    from .accel import (
        ACCELERATOR_BASELINES,
        DGL_CPU,
        PIPAD,
        TAGNN_S,
        TaGNNSimulator,
        WorkloadStats,
    )
    from .bench.report import render_table
    from .engine import ReferenceEngine

    g, m = _make(args)
    ref = ReferenceEngine(m, window_size=4).run(g)
    wl = WorkloadStats.analyze(g, m, 4)
    tagnn = TaGNNSimulator().simulate(m, g, args.dataset, workload=wl)
    rows = []
    platforms = {
        **ACCELERATOR_BASELINES, "DGL-CPU": DGL_CPU, "PiPAD": PIPAD,
    }
    for name, p in platforms.items():
        r = p.simulate(m, g, args.dataset, metrics=ref.metrics, workload=wl)
        rows.append([name, r.seconds * 1e6, tagnn.speedup_over(r),
                     r.joules * 1e3, tagnn.energy_saving_over(r)])
    r = TAGNN_S.simulate(m, g, args.dataset, workload=wl)
    rows.append(["TaGNN-S", r.seconds * 1e6, tagnn.speedup_over(r),
                 r.joules * 1e3, tagnn.energy_saving_over(r)])
    rows.append(["TaGNN", tagnn.seconds * 1e6, 1.0, tagnn.joules * 1e3, 1.0])
    print(
        render_table(
            f"All platforms — {args.model} on {args.dataset}",
            ["platform", "time (us)", "TaGNN speedup", "energy (mJ)",
             "TaGNN saving"],
            rows,
        )
    )
    return 0


def cmd_accuracy(args) -> int:
    from .engine import ConcurrentEngine, ReferenceEngine
    from .models import evaluate_accuracy, fit_readout, make_teacher_labels

    g, m = _make(args)
    ref = ReferenceEngine(m, window_size=4).run(g)
    skip = ConcurrentEngine(m, window_size=4).run(g)
    labels = make_teacher_labels(g, args.classes)
    readout = fit_readout(ref.outputs, labels, g)
    a_ref = evaluate_accuracy(ref.outputs, labels, g, readout=readout)
    a_skip = evaluate_accuracy(skip.outputs, labels, g, readout=readout)
    print(f"{args.model} on {args.dataset} ({args.classes}-class teacher task):")
    print(f"  exact inference : {a_ref:.1%}")
    print(f"  with skipping   : {a_skip:.1%}  "
          f"(loss {100 * (a_ref - a_skip):+.2f} points, "
          f"skip ratio {skip.metrics.skip_ratio():.2f})")
    return 0


def cmd_stats(args) -> int:
    from .analysis import temporal_profile
    from .graphs import load_dataset

    g = load_dataset(args.dataset, num_snapshots=args.snapshots, seed=args.seed)
    profile = temporal_profile(g, window=args.window)
    print(f"temporal profile of {args.dataset}:")
    for k, v in profile.items():
        if k == "unaffected_ratio_by_window":
            for w, r in v.items():
                print(f"  unaffected ratio (window {w}): {r:.1%}")
        else:
            print(f"  {k}: {v}")
    return 0


def cmd_generate(args) -> int:
    from .graphs import load_dataset, save_dynamic_graph

    g = load_dataset(
        args.dataset,
        scale=args.scale,
        num_snapshots=args.snapshots,
        seed=args.seed,
    )
    save_dynamic_graph(g, args.out)
    print(f"wrote {args.out}: {g.stats()}")
    return 0


def cmd_chaos(args) -> int:
    import json

    from .graphs import load_dataset
    from .models import make_model
    from .resilience import DeadLetterQueue, FaultPlan
    from .serving import run_chaos_campaign

    snapshots = 6 if args.smoke else args.snapshots
    hidden = 8 if args.smoke else args.hidden
    graphs = {
        f"tenant-{i}": load_dataset(
            args.dataset, num_snapshots=snapshots, seed=args.seed + i
        )
        for i in range(max(1, args.tenants))
    }
    dim = next(iter(graphs.values())).dim

    def factory():
        return make_model(args.model, dim, hidden, seed=args.seed)

    if args.cluster:
        plan = FaultPlan.generate_cluster(
            seed=args.fault_seed,
            num_steps=snapshots,
            num_shards=args.shards,
            per_shard=args.faults_per_kind,
        )
    else:
        plan = FaultPlan.generate(
            seed=args.fault_seed,
            num_steps=snapshots,
            per_kind=args.faults_per_kind,
        )
    report = run_chaos_campaign(
        factory,
        graphs,
        plan,
        num_shards=args.shards,
        window_size=args.window,
        seed=args.seed,
    )
    print(f"{args.model} on {args.dataset} x{len(graphs)} tenants:"
          f" {len(plan)} {'shard' if args.cluster else 'stream'} faults"
          f" across {args.shards} shards (fault seed {args.fault_seed})")
    print(report.summary())
    if args.report_out:
        with open(args.report_out, "w") as fh:
            json.dump(report.to_json(), fh, indent=2, sort_keys=True)
        print(f"wrote {args.report_out}")
    if args.dlq_out:
        capture = DeadLetterQueue()
        capture.letters = list(report.dead_letters)
        capture.save(args.dlq_out)
        print(f"wrote {args.dlq_out}: {len(capture)} dead letters")
    return 0 if report.identical else 1


def cmd_dlq(args) -> int:
    from .graphs import load_dataset
    from .resilience import DeadLetterQueue, redrain_dead_letters

    queue = DeadLetterQueue.load(args.capture)
    print(f"{args.capture}: {len(queue)} dead letters")
    tally = queue.by_reason()
    for reason in sorted(tally):
        print(f"  {reason:<24}: {tally[reason]}")
    for letter in queue.letters:
        print(f"  step {letter.step:>4}: {letter.reason}"
              f" ({type(letter.payload).__name__})")
    if not args.redrain:
        return 0
    g = load_dataset(args.dataset, num_snapshots=args.snapshots,
                     seed=args.seed)
    readmitted, still_poison = redrain_dead_letters(queue, g)
    print(f"re-drain against {args.dataset}: {len(readmitted)} readmitted,"
          f" {len(still_poison)} still poison")
    if args.out:
        remainder = DeadLetterQueue()
        remainder.letters = list(still_poison)
        remainder.save(args.out)
        print(f"wrote {args.out}: {len(remainder)} still-poison letters")
    return 0


def cmd_plan(args) -> int:
    from .adaptive import AdaptivePlanner, CostModel, calibrate_cost_model
    from .engine.streaming import StreamingInference

    g, m = _make(args)
    table = calibrate_cost_model(seed=args.seed) if args.calibrate else None
    planner = AdaptivePlanner(cost_model=CostModel(table))
    for _ in range(args.repeats):
        stream = StreamingInference(
            m, window_size=args.window, planner=planner
        )
        for snap in g:
            stream.push(snap)
        stream.flush()
    print(f"{args.model} on {args.dataset}: {len(planner.records)} windows "
          f"planned across {args.repeats} passes "
          f"(cost model: {planner.cost_model.table.source})")
    if args.explain:
        print(planner.explain())
    else:
        kernels: dict[str, int] = {}
        for rec in planner.records:
            k = rec.plan.kernel.value
            kernels[k] = kernels.get(k, 0) + 1
        thr = planner.thresholds()
        for k, v in sorted(kernels.items(), key=lambda kv: -kv[1]):
            print(f"  kernel {k:>16}: {v} windows")
        print(f"  thresholds: ({thr.theta_s:+.2f}, {thr.theta_e:+.2f})"
              f"  aggressiveness {planner.aggressiveness:.2f}")
        print(f"  probes: {planner.probes_done}, max drift "
              f"{planner.max_observed_drift:.5f} "
              f"(budget {planner.config.drift_budget})")
        print("  (use --explain for the per-window audit)")
    return 0


def cmd_perf(args) -> int:
    import json

    from .bench.perf import (
        PerfConfig,
        render_delta_table,
        render_perf_tables,
        run_perf,
        write_result,
    )

    config = PerfConfig(
        smoke=args.smoke, repeats=args.repeats, adaptive=args.adaptive
    )
    result = run_perf(config)
    print(render_perf_tables(result))
    if args.baseline:
        with open(args.baseline) as fh:
            baseline = json.load(fh)
        print(render_delta_table(result, baseline))
    if not args.no_write:
        path = write_result(result, args.out)
        print(f"wrote {path}")
    return 0


def cmd_check(args) -> int:
    from .check.runner import main as check_main

    argv = list(args.paths) + ["--root", args.root]
    for code in args.select or []:
        argv += ["--select", code]
    if args.list_rules:
        argv.append("--list-rules")
    if args.output_format != "text":
        argv += ["--format", args.output_format]
    if args.statistics:
        argv.append("--statistics")
    return check_main(argv)


COMMANDS = {
    "datasets": cmd_datasets,
    "classify": cmd_classify,
    "simulate": cmd_simulate,
    "compare": cmd_compare,
    "accuracy": cmd_accuracy,
    "generate": cmd_generate,
    "stats": cmd_stats,
    "perf": cmd_perf,
    "plan": cmd_plan,
    "check": cmd_check,
    "chaos": cmd_chaos,
    "dlq": cmd_dlq,
}


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return COMMANDS[args.command](args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
