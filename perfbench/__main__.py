"""``python -m perfbench`` — the suite for people.

    python -m perfbench run   [--seed 3] [--out FILE]
    python -m perfbench trace [--seed 3] [--out FILE]
    python -m perfbench compare A.json B.json
    python -m perfbench aa

``run`` prints every end-to-end metric of every workload, ``trace`` the
per-layer metrics of the separate traced run, ``compare`` judges two
``run`` files against the bounds in ``BENCHMARK.json``, and ``aa`` runs
the suite twice on the same tree and compares the two — the executable
form of "two sets of runs agree".
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .compare import Refused, compare, render
from .suite import run_suite, summarise

AA_SEED = 3


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="python -m perfbench")
    sub = parser.add_subparsers(dest="command", required=True)
    run = sub.add_parser("run")
    run.add_argument(
        "--smoke", action="store_true",
        help="one short run per workload: checks the plumbing, not the speed",
    )
    for p in (run, sub.add_parser("trace")):
        p.add_argument("--seed", type=int, default=AA_SEED)
        p.add_argument("--out", type=Path, default=None)
    p = sub.add_parser("compare")
    p.add_argument("a", type=Path)
    p.add_argument("b", type=Path)
    sub.add_parser("aa")
    return parser


def _suite(seed: int, out: Path | None, **how) -> int:
    document = run_suite(seed, **how)
    print()
    print(summarise(document))
    if out is not None:
        out.write_text(json.dumps(document) + "\n")
    return 0 if all(r["correct"] for r in document["runs"]) else 1


def _compare(a: dict, b: dict) -> int:
    try:
        rows = compare(a, b)
    except Refused as why:
        print(f"perfbench compare: refused: {why}", file=sys.stderr)
        return 2
    print(render(rows, a, b))
    return 1 if any(row.verdict == "worse" for row in rows) else 0


def _aa() -> int:
    sets = []
    for label in "AB":
        print(f"=== set {label}: seed {AA_SEED}")
        sets.append(run_suite(AA_SEED))
    status = _compare(*sets)
    if not all(r["correct"] for doc in sets for r in doc["runs"]):
        status = 1
    return status


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    if args.command == "run":
        return _suite(args.seed, args.out, smoke=args.smoke)
    if args.command == "trace":
        return _suite(args.seed, args.out, trace=True)
    if args.command == "compare":
        return _compare(
            json.loads(args.a.read_text()), json.loads(args.b.read_text())
        )
    return _aa()


if __name__ == "__main__":
    sys.exit(main())
