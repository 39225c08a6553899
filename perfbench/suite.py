"""Run every workload several times, one child process at a time.

Each run is one ``perfbench/run.py`` process — the same command the
driver runs — so every run pays its own imports and reports its own peak
memory.  A suite pass makes :data:`RUNS` runs of every workload on one
seed, interleaved round-robin (w1, w2, ..., w6, w1, ...): the runs of a
workload are its samples in ``compare``, and a slow phase of the machine
is spread over all workloads instead of sinking one.
"""

from __future__ import annotations

import json
import subprocess
import sys
import tempfile
from pathlib import Path

from .compare import ROOT, load_benchmark, quartiles, spread

__all__ = ["RUNS", "run_suite", "summarise"]

RUNS = 5
CHILD_TIMEOUT_S = 900


def run_suite(
    seed: int, *, trace: bool = False, smoke: bool = False, echo=print
) -> dict:
    """The result document (schema ``perfbench/2``) of one suite pass.  A
    traced or a smoke pass runs every workload once."""
    benchmark = load_benchmark()
    names = [w["name"] for w in benchmark["workloads"]]
    runs = []
    host = None
    with tempfile.TemporaryDirectory(prefix="perfbench-") as tmp:
        for repeat in range(1 if trace or smoke else RUNS):
            for name in names:
                out = Path(tmp) / f"{name}-{repeat}.json"
                command = [
                    sys.executable, str(ROOT / "perfbench" / "run.py"),
                    "--workload", name, "--seed", str(seed),
                    "--seconds", str(benchmark["run_seconds"]),
                    "--trace", str(int(trace)), "--out", str(out),
                ]
                if smoke:
                    command.append("--smoke")
                done = subprocess.run(
                    command, cwd=ROOT, capture_output=True, text=True,
                    timeout=CHILD_TIMEOUT_S,
                )
                lines = done.stdout.rstrip("\n").split("\n")
                echo("\n".join(lines[:-1]))  # all but the contract line
                if done.stderr.strip():
                    echo(done.stderr.rstrip("\n"))
                if not out.exists():
                    raise RuntimeError(
                        f"{name} run {repeat} produced no result"
                        f" (exit {done.returncode})"
                    )
                document = json.loads(out.read_text())
                host = host or document["host"]
                runs.append(
                    {
                        key: document[key]
                        for key in (
                            "workload", "correct", "attempted", "failed",
                            "metrics", "detail",
                        )
                    }
                )
                if trace:
                    runs[-1]["spans"] = document["spans"]
    return {
        "schema": "perfbench/2",
        "host": host,
        "seed": seed,
        "trace": trace,
        "smoke": smoke,
        "runs": runs,
    }


def summarise(document: dict) -> str:
    """Every metric of every workload by name: median over the runs,
    unit, sample count and spread (IQR as a share of the median)."""
    lines = []
    workloads = list(dict.fromkeys(r["workload"] for r in document["runs"]))
    for workload in workloads:
        runs = [r for r in document["runs"] if r["workload"] == workload]
        failed = sum(r["failed"] for r in runs)
        attempted = sum(r["attempted"] for r in runs)
        lines.append(
            f"{workload}: {len(runs)} run(s), failed_share"
            f" {failed}/{attempted} = {failed / attempted:.6f}"
        )
        for name, entry in runs[0]["metrics"].items():
            values = [r["metrics"][name]["value"] for r in runs]
            lines.append(
                f"  {name:<46} {quartiles(values)[1]:>14.6g} {entry['unit']:<6}"
                f" n={len(values)} spread {100 * spread(values):.2f} %"
            )
    return "\n".join(lines)
