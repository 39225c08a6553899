"""Doc-drift gate: the audited suppression inventory must match docs.

``docs/static_analysis.md`` promises a complete table of every
``# repro: noqa`` suppression under ``src/repro`` and why it is there.
This test rebuilds the ground truth from the tree and fails the moment
a suppression is added, removed, or moved without the table keeping up
— in either direction, with a diff naming the drifted entries.  The
same page's ``[tool.repro.check]`` example must show the path lists the
repo's ``pyproject.toml`` actually configures, and every ``repro
<subcommand>`` the README and ``docs/`` name must be one the CLI
registers (``CHANGES.md`` and ``ROADMAP.md`` are history, not usage).
"""

import argparse
import dataclasses
import re
import tomllib
from pathlib import Path

from repro.check.config import CheckConfig, load_config
from repro.check.inventory import collect_noqa_inventory, parse_inventory_table
from repro.cli import build_parser

REPO = Path(__file__).resolve().parents[2]
SRC = REPO / "src" / "repro"
DOC = REPO / "docs" / "static_analysis.md"
#: ``repro <word>``, also wrapped across a line; not ``repro.x`` or a path
_COMMAND = re.compile(r"(?<![\w./-])repro\s+([a-z][\w-]*)")


def _diff(actual: dict, documented: dict) -> str:
    lines = []
    for key in sorted(set(actual) | set(documented)):
        a, d = actual.get(key, 0), documented.get(key, 0)
        if a != d:
            path, code = key
            lines.append(f"  {path} {code}: tree has {a}, table says {d}")
    return "\n".join(lines)


def test_documented_inventory_matches_tree():
    actual = collect_noqa_inventory(SRC)
    documented = parse_inventory_table(DOC.read_text(encoding="utf-8"))
    assert actual == documented, (
        "suppression inventory drift — update the table in "
        "docs/static_analysis.md:\n" + _diff(actual, documented)
    )


def test_documented_config_paths_match_pyproject():
    text = DOC.read_text(encoding="utf-8")
    block = re.search(r"```toml\n(\[tool\.repro\.check\].*?)```", text, re.S)
    assert block, "no [tool.repro.check] toml block in the doc"
    documented = tomllib.loads(block.group(1))["tool"]["repro"]["check"]
    actual = load_config(REPO)
    path_fields = {
        f.name for f in dataclasses.fields(CheckConfig)
        if f.name.endswith("_paths")
    }
    assert {k.replace("-", "_") for k in documented if k.endswith("-paths")} \
        == path_fields
    for name in sorted(path_fields):
        key = name.replace("_", "-")
        assert tuple(documented[key]) == getattr(actual, name), key


def _subcommands() -> set:
    (sub,) = [
        a for a in build_parser()._actions
        if isinstance(a, argparse._SubParsersAction)
    ]
    return set(sub.choices)


def test_documented_commands_are_registered():
    registered = _subcommands()
    stale = []
    for doc in [REPO / "README.md", *sorted((REPO / "docs").glob("*.md"))]:
        text = doc.read_text(encoding="utf-8")
        for m in _COMMAND.finditer(text):
            if m.group(1) not in registered:
                line = text.count("\n", 0, m.start()) + 1
                stale.append(f"  {doc.relative_to(REPO)}:{line}: {m.group(0)!r}")
    assert not stale, (
        "docs name CLI subcommands `repro.cli.build_parser()` does not"
        " register:\n" + "\n".join(stale)
    )


def test_command_pattern_reads_wrapped_mentions_only():
    text = "run `python -m repro\n   plan`; see repro.bench and ./repro simulate"
    assert [m.group(1) for m in _COMMAND.finditer(text)] == ["plan"]
    assert {"plan", "check", "chaos"} <= _subcommands()


def test_tree_has_no_bare_suppressions():
    # Every suppression names its codes; a bare ``# repro: noqa`` would
    # silently disable all current *and future* rules on that line.
    bare = [p for (p, code) in collect_noqa_inventory(SRC) if code == "all"]
    assert bare == []


def test_parse_inventory_table_reads_counts_and_code_lists():
    md = (
        "| Where | Rule | Why |\n"
        "|---|---|---|\n"
        "| `a/b.py` (×3) | R006 | hot loop |\n"
        "| `c.py` | R001, R003 | clock + units |\n"
        "| not a row | R001 | ignored |\n"
    )
    assert parse_inventory_table(md) == {
        ("a/b.py", "R006"): 3,
        ("c.py", "R001"): 1,
        ("c.py", "R003"): 1,
    }


def test_collect_ignores_docstring_mentions(tmp_path):
    mod = tmp_path / "m.py"
    mod.write_text(
        '"""Mentions # repro: noqa R001 in prose only."""\n'
        "import random  # repro: noqa R001\n"
    )
    assert collect_noqa_inventory(tmp_path) == {("m.py", "R001"): 1}
