"""Compare two result files, one row per (workload, end-to-end metric).

A row's samples are the runs of that workload in each file: a suite pass
repeats every workload on one seed.  The verdict follows the benchmark's
own bound for the metric:

* ``unresolved`` — the run-to-run spread (interquartile range over the
  median, the wider of the two files) exceeds the bound and the two
  sets of runs overlap, so neither "changed" nor "unchanged" is shown;
* ``worse`` / ``better`` — B's median is beyond the bound from A's;
* ``same`` — within the bound.

Every ratio is printed with its base: changes are relative to A's
median, spreads to the file's own median.  A time metric has a second
row, *as measured*: the same quantity before it was scaled to reference
time (see :mod:`perfbench.recorder`), judged by the same rule, so that
the canary can resolve a row the machine's noise leaves open but cannot
hide a regression the wall clock shows.
"""

from __future__ import annotations

import json
import statistics
from dataclasses import dataclass
from pathlib import Path

__all__ = [
    "ABSOLUTE_BOUNDS", "Refused", "Row", "compare", "load_benchmark",
    "quartiles", "render", "spread",
]

ROOT = Path(__file__).resolve().parent.parent

#: Bounds in the metric's own unit, not a share of A's median.  Agreement
#: with the exact engine (1 - ``output_drift``) repeats exactly for a seed
#: and both files hold the same seed, so the bound is the issue's +0.001
#: of drift; ``BENCHMARK.json`` has to state a share, wide enough for runs
#: on *different* seeds to fit in.
ABSOLUTE_BOUNDS = {"output_agreement": 0.001}


class Refused(ValueError):
    """The two files cannot be compared."""


def load_benchmark() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(first quartile, median, third quartile); one value is all three."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values: list[float]) -> float:
    """Interquartile range as a share of the median."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2 if q2 else 0.0


@dataclass
class Row:
    workload: str
    metric: str
    unit: str
    better: str
    bound: float
    absolute: bool  # the bound is in ``unit``, not a share of A's median
    a: list
    b: list

    @property
    def change(self) -> float:
        """B's median minus A's: in ``unit`` when the bound is absolute,
        else as a share of A's median."""
        base = quartiles(self.a)[1]
        diff = quartiles(self.b)[1] - base
        return diff if self.absolute else diff / base if base else 0.0

    def noise(self, values: list[float]) -> float:
        """Interquartile range of one file's runs, on the bound's scale."""
        q1, _, q3 = quartiles(values)
        return q3 - q1 if self.absolute else spread(values)

    @property
    def worsening(self) -> float:
        return self.change if self.better == "lower" else -self.change

    @property
    def verdict(self) -> str:
        lo_a, hi_a = min(self.a), max(self.a)
        lo_b, hi_b = min(self.b), max(self.b)
        overlap = lo_a <= hi_b and lo_b <= hi_a
        if max(self.noise(self.a), self.noise(self.b)) > self.bound and overlap:
            return "unresolved"
        if self.worsening > self.bound:
            return "worse"
        if self.worsening < -self.bound:
            return "better"
        return "same"


def _check_comparable(a: dict, b: dict) -> None:
    for label, doc in (("A", a), ("B", b)):
        if doc.get("schema") != "perfbench/2":
            raise Refused(f"{label} is not a perfbench/2 result file")
        if doc["smoke"]:
            raise Refused(f"{label} was taken with --smoke: it times nothing")
        if doc["trace"]:
            raise Refused(f"{label} is a traced run: no end-to-end metrics")
    if a["seed"] != b["seed"]:
        raise Refused(f"different seeds: A {a['seed']}, B {b['seed']}")
    # reference time is the time on *this* host in its usual state
    for key in sorted(set(a["host"]) | set(b["host"])):
        ours, theirs = a["host"].get(key), b["host"].get(key)
        if key != "git_commit" and ours != theirs:
            raise Refused(f"different host.{key}: A {ours}, B {theirs}")


def compare(a: dict, b: dict, benchmark: dict | None = None) -> list[Row]:
    """Rows for every (workload, end-to-end metric) both files hold."""
    _check_comparable(a, b)
    benchmark = benchmark if benchmark is not None else load_benchmark()
    rows = []
    for workload in (w["name"] for w in benchmark["workloads"]):
        runs_a = [r for r in a["runs"] if r["workload"] == workload]
        runs_b = [r for r in b["runs"] if r["workload"] == workload]
        if not runs_a or not runs_b:
            continue
        for spec in benchmark["end_to_end"]:
            name = spec["name"]
            absolute = name in ABSOLUTE_BOUNDS
            bound = ABSOLUTE_BOUNDS[name] if absolute else spec["bound"]
            rows.append(
                Row(
                    workload, name, spec["unit"], spec["better"], bound, absolute,
                    [r["metrics"][name]["value"] for r in runs_a],
                    [r["metrics"][name]["value"] for r in runs_b],
                )
            )
            if name in runs_a[0]["detail"]["as_measured"]:
                rows.append(
                    Row(
                        workload, f"{name} (as measured)", spec["unit"],
                        spec["better"], bound, absolute,
                        [r["detail"]["as_measured"][name] for r in runs_a],
                        [r["detail"]["as_measured"][name] for r in runs_b],
                    )
                )
    return rows


def failures(doc: dict) -> dict[str, tuple[int, int]]:
    """workload -> (failed, attempted) summed over its runs."""
    out: dict[str, tuple[int, int]] = {}
    for run in doc["runs"]:
        failed, attempted = out.get(run["workload"], (0, 0))
        out[run["workload"]] = (
            failed + run["failed"], attempted + run["attempted"]
        )
    return out


def _cell(values: list[float]) -> str:
    q1, q2, q3 = quartiles(values)
    return f"{q2:.5g} [{q1:.5g}, {q3:.5g}] n={len(values)}"


def render(rows: list[Row], a: dict, b: dict) -> str:
    lines = [
        f"{'workload':<17} {'metric':<34} {'unit':<6}"
        f" {'A median [q1, q3]':<36} {'B median [q1, q3]':<36}"
        f" {'B - A (base: A median)':>22}  {'IQR A / B (base: own median)':>28}"
        f"  {'bound':>9}  verdict"
    ]
    for row in rows:
        if row.absolute:
            def scale(x: float, sign: str = "") -> str:
                return f"{x:{sign}.3g} {row.unit}"
        else:
            def scale(x: float, sign: str = "") -> str:
                return f"{100 * x:{sign}.2f} %"
        lines.append(
            f"{row.workload:<17} {row.metric:<34} {row.unit:<6}"
            f" {_cell(row.a):<36} {_cell(row.b):<36}"
            f" {scale(row.change, '+'):>22}"
            f"  {scale(row.noise(row.a)) + ' / ' + scale(row.noise(row.b)):>28}"
            f"  {scale(row.bound):>9}  {row.verdict}"
        )
    fail_a, fail_b = failures(a), failures(b)
    lines.append("")
    lines.append("failed / attempted operations (failed_share)")
    for workload in fail_a:
        fa, ta = fail_a[workload]
        fb, tb = fail_b.get(workload, (0, 0))
        lines.append(
            f"{workload:<17} A {fa}/{ta} ({fa / ta:.6f})"
            f"   B {fb}/{tb} ({fb / tb if tb else 0.0:.6f})"
        )
    return "\n".join(lines)
