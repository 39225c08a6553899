"""Rule registry and the per-module context rules run against.

Rules are plain functions taking a :class:`ModuleContext` and yielding
:class:`~repro.check.findings.Finding`s, registered under a stable code
with the :func:`rule` decorator::

    @rule("R001", "determinism", "forbid nondeterminism in the simulator core")
    def check_determinism(ctx: ModuleContext) -> Iterator[Finding]:
        ...

The runner gives every rule the parsed AST plus a repo-wide
:class:`ProjectContext` (e.g. the set of frozen dataclass names collected
across all scanned files), so rules can reason beyond a single module.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterable, Iterator

from .config import CheckConfig
from .findings import Finding

__all__ = ["Rule", "RULES", "rule", "ModuleContext", "ProjectContext",
           "dotted_name"]


@dataclass(frozen=True)
class ProjectContext:
    """Repo-wide facts shared by every rule invocation."""

    config: CheckConfig
    #: names of ``@dataclass(frozen=True)`` classes defined anywhere in
    #: the scanned tree (plus the built-in simulator types)
    frozen_classes: frozenset[str] = frozenset()


@dataclass
class ModuleContext:
    """One parsed module as a rule sees it."""

    path: Path
    relpath: str
    tree: ast.Module
    source: str
    project: ProjectContext
    lines: list[str] = field(default_factory=list)

    def __post_init__(self) -> None:
        if not self.lines:
            self.lines = self.source.splitlines()

    def finding(self, node: ast.AST | int, code: str, message: str) -> Finding:
        line = node if isinstance(node, int) else getattr(node, "lineno", 1)
        return Finding(self.relpath, line, code, message)


@dataclass(frozen=True)
class Rule:
    """A registered static-analysis rule."""

    code: str
    name: str
    description: str
    check: Callable[[ModuleContext], Iterable[Finding]]

    def run(self, ctx: ModuleContext) -> Iterator[Finding]:
        yield from self.check(ctx)


RULES: dict[str, Rule] = {}


def rule(code: str, name: str, description: str):
    """Register a rule function under ``code`` (e.g. ``"R001"``)."""

    def decorator(fn: Callable[[ModuleContext], Iterable[Finding]]):
        if code in RULES:
            raise ValueError(f"duplicate rule code {code}")
        RULES[code] = Rule(code, name, description, fn)
        return fn

    return decorator


def dotted_name(node: ast.AST) -> str | None:
    """``a.b.c`` for a Name/Attribute chain, else None."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None
