"""``BENCHMARK.json`` is well-formed and says what the code measures."""

import json
import re
from pathlib import Path

from perfbench.bench import END_TO_END
from perfbench.layers import PER_LAYER, SEAMS
from perfbench.workloads import WORKLOADS

ROOT = Path(__file__).resolve().parents[2]
DOC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
LAYERS = {p.name for p in (ROOT / "src" / "repro").iterdir() if p.is_dir()}


def test_keys_and_limits():
    assert set(DOC) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end",
        "per_layer",
    }
    assert DOC["paths"] == ["perfbench"]
    assert DOC["command"] == ["python3", "perfbench/run.py"]
    assert isinstance(DOC["run_seconds"], int) and 1 <= DOC["run_seconds"] <= 60
    assert 2 <= len(DOC["workloads"]) <= 8
    assert 1 <= len(DOC["end_to_end"]) <= 16
    assert 1 <= len(DOC["per_layer"]) <= 128
    assert len((ROOT / "BENCHMARK.json").read_bytes()) <= 64 * 1024


def test_names_units_and_whys():
    names = []
    for w in DOC["workloads"]:
        assert set(w) == {"name", "why"}
        assert len(w["why"]) <= 200 and "\n" not in w["why"]
        names.append(w["name"])
    for m in DOC["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25
        names.append(m["name"])
    for m in DOC["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
        names.append(m["name"])
    for m in DOC["end_to_end"] + DOC["per_layer"]:
        assert UNIT.fullmatch(m["unit"]), m
        assert m["better"] in ("lower", "higher")
    assert all(NAME.fullmatch(n) for n in names)
    assert len(names) == len(set(names)), "a name is used twice"


def test_setup_metric_has_the_widest_bound():
    setup = next(m for m in DOC["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in DOC["end_to_end"])


def test_every_per_layer_metric_names_a_layer_of_the_program():
    for m in DOC["per_layer"]:
        layer = m["name"].split(".")[0]
        assert layer in LAYERS | {"trace", "host"}, m["name"]
    for seam in SEAMS:
        assert seam.layer in LAYERS
        assert seam.name.split(".")[0] == seam.layer


def test_the_file_and_the_code_declare_the_same_things():
    assert [w["name"] for w in DOC["workloads"]] == list(WORKLOADS)
    assert [
        (m["name"], m["unit"], m["better"]) for m in DOC["end_to_end"]
    ] == list(END_TO_END)
    assert [
        (m["name"], m["unit"], m["better"]) for m in DOC["per_layer"]
    ] == list(PER_LAYER)
