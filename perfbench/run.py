"""One run of one workload — the command ``BENCHMARK.json`` names.

    python3 perfbench/run.py --workload stream-lowchurn --seed 3 \\
        --seconds 10 --trace 0

prints every metric by name with its unit, then, as the last line of
standard output, one JSON object ``{"correct", "attempted", "failed",
"metrics"}``: the end-to-end metrics with ``--trace 0``, the per-layer
metrics with ``--trace 1``.  Exits non-zero when verification fails.
"""

from __future__ import annotations

import sys
import time

_T0 = time.perf_counter()  # setup_s starts here, before any heavy import

import argparse
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parse_args(argv, workloads) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        prog="perfbench/run.py", description=__doc__.split("\n\n")[0]
    )
    parser.add_argument("--workload", required=True, choices=workloads)
    parser.add_argument("--seed", type=int, default=3)
    parser.add_argument(
        "--seconds", type=float, required=True,
        help="length of the timed phases, all rounds together",
    )
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--smoke", action="store_true",
        help="one round of 8 windows: checks the plumbing, not the speed",
    )
    parser.add_argument(
        "--out", type=Path, default=None,
        help="also write the full result (and the spans of a traced run)",
    )
    return parser.parse_args(argv)


def main(argv=None) -> int:
    if not (ROOT / "src" / "repro").is_dir():
        print(
            f"perfbench: no program to measure: {ROOT / 'src' / 'repro'}"
            " is missing",
            file=sys.stderr,
        )
        return 2
    for entry in (str(ROOT / "src"), str(ROOT)):
        if entry not in sys.path:
            sys.path.insert(0, entry)

    from perfbench.host import fingerprint, pin_blas_threads

    pin_blas_threads()
    from perfbench.bench import run_workload
    from perfbench.workloads import WORKLOADS, make_workload

    import_s = time.perf_counter() - _T0
    args = parse_args(argv, list(WORKLOADS))
    result = run_workload(
        make_workload(args.workload, smoke=args.smoke),
        args.seed,
        args.seconds,
        trace=bool(args.trace),
        smoke=args.smoke,
        import_s=import_s,
    )

    detail = result.detail
    print(
        f"{result.workload}  seed {result.seed}  rounds {detail['rounds']}"
        f"  window samples {detail['window_samples']}"
        f"  canary {min(detail['canary_ms']):.2f}-{max(detail['canary_ms']):.2f} ms"
    )
    measured = {} if result.trace else detail["as_measured"]
    for name, entry in result.metrics.items():
        beside = (
            f"   (reference time; as measured {measured[name]:.6g})"
            if name in measured else ""
        )
        print(f"  {name:<46} {entry['value']:>16.6g} {entry['unit']}{beside}")
    if not result.trace:
        drift = 1.0 - result.metrics["output_agreement"]["value"]
        print(f"  output_drift = 1 - output_agreement: {drift:.6g}")
    print(
        f"  verified: {result.attempted} attempted, {result.failed} failed"
        f" (failed_share {result.failed / result.attempted:.6f})"
    )
    for why in detail["failures"]:
        print(f"  FAILED: {why}", file=sys.stderr)

    if args.out is not None:
        document = {
            "schema": "perfbench-run/1",
            "host": fingerprint(ROOT),
            "workload": result.workload,
            "seed": result.seed,
            "trace": result.trace,
            **result.contract_line(),
            "detail": detail,
            "spans": [
                [s.name, s.layer, s.start, s.end, s.parent, s.request, s.count]
                for s in result.spans
            ],
        }
        args.out.write_text(json.dumps(document) + "\n")
    print(json.dumps(result.contract_line()))
    return 0 if result.correct else 1


if __name__ == "__main__":
    sys.exit(main())
