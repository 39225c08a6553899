"""The command itself: smoke runs emit every declared metric, a wrong
verification reference fails the run, a bare directory is refused; and
the suite around it."""

import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
DOC = json.loads((ROOT / "BENCHMARK.json").read_text())
RUN = [sys.executable, str(ROOT / "perfbench" / "run.py")]


def _last_json(stdout: str) -> dict:
    return json.loads(stdout.rstrip("\n").rsplit("\n", 1)[-1])


@pytest.mark.parametrize("trace", (0, 1))
@pytest.mark.parametrize("workload", [w["name"] for w in DOC["workloads"]])
def test_smoke_run_emits_every_declared_metric(workload, trace):
    t0 = time.perf_counter()
    done = subprocess.run(
        RUN + ["--workload", workload, "--seed", "4", "--seconds", "1",
               "--trace", str(trace), "--smoke"],
        capture_output=True, text=True, timeout=120,
    )
    assert time.perf_counter() - t0 < 30
    assert done.returncode == 0, done.stderr
    result = _last_json(done.stdout)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    declared = DOC["per_layer"] if trace else DOC["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for m in declared:
        entry = result["metrics"][m["name"]]
        assert entry["unit"] == m["unit"]
        assert isinstance(entry["value"], (int, float))
    if not trace:
        assert all(e["value"] > 0 for e in result["metrics"].values())


CORRUPT = """
import sys
sys.path[:0] = [{src!r}, {root!r}]
from perfbench.host import pin_blas_threads
pin_blas_threads()
import perfbench.workloads as w
honest = w.StreamWorkload.expected
def wrong(self, inp, pipe):
    out = honest(self, inp, pipe)
    key = next(iter(out))
    out[key] = out[key] + 1e-3
    return out
w.StreamWorkload.expected = wrong
from perfbench import run
sys.exit(run.main(["--workload", "stream-lowchurn", "--smoke", "--seconds", "1"]))
"""


def test_a_corrupted_verification_reference_fails_the_run():
    done = subprocess.run(
        [sys.executable, "-c",
         CORRUPT.format(src=str(ROOT / "src"), root=str(ROOT))],
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 1
    result = _last_json(done.stdout)
    assert result["correct"] is False
    assert result["failed"] == 1
    assert result["failed"] / result["attempted"] > 0
    assert "differs from verification run" in done.stderr


def test_without_the_program_it_exits_non_zero_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(
        ROOT / "perfbench", tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"),
    )
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "batch-sim",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""


def test_a_suite_smoke_pass_runs_every_workload_and_compare_refuses_it(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = tmp_path / "smoke.json"
    suite = [sys.executable, "-m", "perfbench"]
    done = subprocess.run(
        suite + ["run", "--smoke", "--seed", "4", "--out", str(out)],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    document = json.loads(out.read_text())
    assert document["seed"] == 4 and document["smoke"]
    assert [r["workload"] for r in document["runs"]] == [
        w["name"] for w in DOC["workloads"]
    ]
    assert document["host"]["blas_threads"] == 1
    for metric in DOC["end_to_end"]:
        assert f"  {metric['name']} " in done.stdout
    refused = subprocess.run(
        suite + ["compare", str(out), str(out)],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=60,
    )
    assert refused.returncode == 2 and "--smoke" in refused.stderr
