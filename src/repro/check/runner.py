"""The pass driver: walk files, run rules, filter noqa, report.

``python -m repro.check src/`` (or ``repro check src/``) runs every
registered rule over every ``*.py`` file under the given paths, prints
one ``file:line code message`` line per finding, and exits non-zero when
anything is found — the CI gate for the simulator invariants.

Suppression: a finding is dropped when its physical line carries
``# repro: noqa`` (all codes) or ``# repro: noqa R003`` /
``# repro: noqa R001,R003`` (listed codes only).
"""

from __future__ import annotations

import argparse
import ast
import re
import sys
import time
from pathlib import Path
from typing import Iterable, Sequence

from . import rules as _rules  # noqa: F401  (imports register the rules)
from .config import CheckConfig, load_config
from .findings import Finding
from .registry import RULES, ModuleContext, ProjectContext
from .reporting import RunStatistics, render_json, render_sarif
from .rules.frozen import collect_frozen_classes

__all__ = ["scan_paths", "iter_python_files", "filter_noqa", "main",
           "build_parser", "NOQA_PATTERN"]

#: The suppression comment: a bare ``repro: noqa`` hash-comment drops
#: every code on its line; ``repro: noqa R001, R003`` drops only the
#: listed codes.  The ``\b`` keeps ``noqaR006``-style typos from
#: silently suppressing every rule on the line.  (Spelled without the
#: leading hash here so this very comment stays out of the audited
#: suppression inventory.)
NOQA_PATTERN = re.compile(
    r"#\s*repro:\s*noqa\b(?:\s+(?P<codes>[A-Z]\d+(?:\s*,\s*[A-Z]\d+)*))?"
)


def iter_python_files(paths: Iterable[Path | str]) -> list[Path]:
    """All ``*.py`` files under ``paths`` (files pass through), sorted."""
    out: set[Path] = set()
    for p in paths:
        p = Path(p)
        if p.is_dir():
            out.update(p.rglob("*.py"))
        elif p.suffix == ".py":
            out.add(p)
        else:
            raise FileNotFoundError(f"not a python file or directory: {p}")
    return sorted(out)


def _relpath(path: Path, root: Path) -> str:
    try:
        return path.resolve().relative_to(root.resolve()).as_posix()
    except ValueError:
        return path.as_posix()


def filter_noqa(
    findings: Iterable[Finding], lines_by_path: dict[str, list[str]]
) -> list[Finding]:
    """Drop findings whose source line carries a matching noqa comment."""
    kept = []
    for f in findings:
        lines = lines_by_path.get(f.path, [])
        line = lines[f.line - 1] if 0 < f.line <= len(lines) else ""
        m = NOQA_PATTERN.search(line)
        if m:
            codes = m.group("codes")
            if codes is None or f.code in {
                c.strip() for c in codes.split(",")
            }:
                continue
        kept.append(f)
    return kept


def scan_paths(
    paths: Sequence[Path | str],
    *,
    config: CheckConfig | None = None,
    select: Iterable[str] | None = None,
    root: Path | str | None = None,
    stats: RunStatistics | None = None,
) -> list[Finding]:
    """Run the pass over ``paths`` and return surviving findings.

    ``select`` narrows to specific rule codes (after the config's own
    enable/disable); ``root`` anchors relative paths and the
    pyproject.toml lookup (default: the first path); ``stats``, when
    given, accumulates per-rule finding counts and wall time.
    """
    started = time.perf_counter()
    files = iter_python_files(paths)
    root = Path(root) if root is not None else Path.cwd()
    if config is None:
        config = load_config(files[0].parent if files else root)

    codes = [
        code for code in sorted(RULES)
        if config.rule_enabled(code)
        and (select is None or code in set(select))
    ]

    modules: list[ModuleContext] = []
    frozen: set[str] = set()
    lines_by_path: dict[str, list[str]] = {}
    project = ProjectContext(config=config)
    for path in files:
        relpath = _relpath(path, root)
        if config.path_excluded(relpath):
            continue
        source = path.read_text(encoding="utf-8")
        tree = ast.parse(source, filename=str(path))
        ctx = ModuleContext(
            path=path, relpath=relpath, tree=tree, source=source,
            project=project,
        )
        modules.append(ctx)
        frozen.update(collect_frozen_classes(tree))
        lines_by_path[relpath] = ctx.lines

    project = ProjectContext(config=config, frozen_classes=frozenset(frozen))
    findings: list[Finding] = []
    seconds_by_rule: dict[str, float] = {}
    for ctx in modules:
        ctx.project = project
        for code in codes:
            t0 = time.perf_counter()
            findings.extend(RULES[code].run(ctx))
            seconds_by_rule[code] = (
                seconds_by_rule.get(code, 0.0)
                + (time.perf_counter() - t0)
            )
    kept = sorted(filter_noqa(findings, lines_by_path))
    if stats is not None:
        counts: dict[str, int] = {}
        for f in kept:
            counts[f.code] = counts.get(f.code, 0) + 1
        for code in codes:
            stats.record_rule(
                code, counts.get(code, 0), seconds_by_rule.get(code, 0.0)
            )
        stats.files_scanned += len(modules)
        stats.total_seconds += time.perf_counter() - started
    return kept


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="repro.check",
        description="repo-specific static analysis for the TaGNN"
        " reproduction (rules R001-R006, R008)",
    )
    p.add_argument("paths", nargs="*", default=["src"],
                   help="files or directories to scan (default: src)")
    p.add_argument("--select", action="append", metavar="CODE",
                   help="run only these rule codes (repeatable)")
    p.add_argument("--root", default=".",
                   help="repo root for relative paths and pyproject lookup")
    p.add_argument("--list-rules", action="store_true",
                   help="print the registered rules and exit")
    p.add_argument("--format", choices=("text", "json", "sarif"),
                   default="text",
                   help="output format (json/sarif for tooling; the"
                   " exit code gate is identical)")
    p.add_argument("--statistics", action="store_true",
                   help="print per-rule finding counts and wall time"
                   " to stderr")
    return p


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.list_rules:
        for code in sorted(RULES):
            r = RULES[code]
            print(f"{code} {r.name}: {r.description}")
        return 0
    unknown = set(args.select or ()) - set(RULES)
    if unknown:
        print(
            f"error: unknown rule code(s): {', '.join(sorted(unknown))}"
            f" (known: {', '.join(sorted(RULES))})",
            file=sys.stderr,
        )
        return 2
    stats = RunStatistics() if args.statistics else None
    try:
        findings = scan_paths(
            args.paths, select=args.select, root=args.root, stats=stats
        )
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.format == "json":
        print(render_json(findings, stats))
    elif args.format == "sarif":
        print(render_sarif(findings))
    else:
        for f in findings:
            print(f.format())
        if findings:
            print(f"{len(findings)} finding(s)", file=sys.stderr)
    if stats is not None:
        print(stats.format(), file=sys.stderr)
    return 1 if findings else 0
