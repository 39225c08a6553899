"""R008 — every public array kernel declares a shape/dtype contract.

R008 (contract-coverage) requires public module-level kernels in the
configured contract paths — functions exported via ``__all__`` whose
signature mentions ``ndarray`` — to declare a ``@contract``.  Methods
and private helpers are exempt (the runtime check still covers any that
opt in).  What a declared contract promises is enforced on live calls
by :func:`repro.check.shapes.contract` under the sanitizer.
"""

from __future__ import annotations

import ast
from typing import Iterator

from ..findings import Finding
from ..registry import ModuleContext, rule

__all__ = ["check_contract_coverage", "contract_decorator",
           "public_array_kernels"]


def contract_decorator(fn: ast.FunctionDef) -> str | None:
    """The contract text of a ``@contract("...")`` decorator, if the
    function carries one."""
    for deco in fn.decorator_list:
        if not isinstance(deco, ast.Call):
            continue
        name = None
        if isinstance(deco.func, ast.Name):
            name = deco.func.id
        elif isinstance(deco.func, ast.Attribute):
            name = deco.func.attr
        if name != "contract" or not deco.args:
            continue
        first = deco.args[0]
        if isinstance(first, ast.Constant) and isinstance(first.value, str):
            return first.value
    return None


def _literal_all(tree: ast.Module) -> set[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign):
            targets = [
                t.id for t in node.targets if isinstance(t, ast.Name)
            ]
            if "__all__" in targets and isinstance(
                node.value, (ast.List, ast.Tuple)
            ):
                return {
                    e.value
                    for e in node.value.elts
                    if isinstance(e, ast.Constant)
                    and isinstance(e.value, str)
                }
    return set()


def _mentions_ndarray(fn: ast.FunctionDef) -> bool:
    annotations = [
        a.annotation
        for a in fn.args.posonlyargs + fn.args.args + fn.args.kwonlyargs
        if a.annotation is not None
    ]
    if fn.returns is not None:
        annotations.append(fn.returns)
    for ann in annotations:
        for sub in ast.walk(ann):
            if isinstance(sub, ast.Name) and sub.id == "ndarray":
                return True
            if isinstance(sub, ast.Attribute) and sub.attr == "ndarray":
                return True
            if isinstance(sub, ast.Constant) and isinstance(
                sub.value, str
            ) and "ndarray" in sub.value:
                return True
    return False


def public_array_kernels(tree: ast.Module) -> Iterator[ast.FunctionDef]:
    """Top-level public functions whose signature mentions ``ndarray``
    and that are exported via a literal ``__all__``."""
    exported = _literal_all(tree)
    for node in tree.body:
        if (
            isinstance(node, ast.FunctionDef)
            and not node.name.startswith("_")
            and node.name in exported
            and _mentions_ndarray(node)
        ):
            yield node


@rule("R008", "contract-coverage",
      "public array kernels in contract paths must declare a contract")
def check_contract_coverage(ctx: ModuleContext) -> Iterator[Finding]:
    cfg = ctx.project.config
    if not cfg.path_covered(ctx.relpath, cfg.contract_paths):
        return
    for fn in public_array_kernels(ctx.tree):
        if contract_decorator(fn) is None:
            yield ctx.finding(
                fn, "R008",
                f"public array kernel '{fn.name}' has no @contract"
                " (declare one, e.g. @contract(\"(n,f) f32 -> (n,f)"
                " f32\"), or mark '# repro: noqa R008' with a reason)",
            )
