"""Checker configuration from ``[tool.repro.check]`` in pyproject.toml.

The block supports rule enable/disable and per-path excludes::

    [tool.repro.check]
    disable = ["R003"]                  # turn rules off
    enable = []                         # or allow-list (overrides disable)
    exclude = ["tests/check/fixtures/*"]  # fnmatch on posix relpaths
    determinism-paths = ["accel", "hardware", "engine", "formats"]
    validation-paths = ["hardware", "accel/config.py"]
    hot-paths = ["formats", "graphs/updates.py", "engine", "skipping"]

``determinism-paths`` names the simulator-core directories rule R001
polices; ``validation-paths`` names where R005 requires range-checked
dataclass fields; ``hot-paths`` names the vectorised kernels rule R006
keeps free of per-element Python loops; ``contract-paths`` names the
packages whose public array kernels rule R008 requires to declare
shape/dtype contracts.  All of them match path *parts* of the module's
repo-relative path, so ``"hardware"`` covers every file under any
``hardware/`` directory (entries containing ``/`` match as path
suffixes instead).
"""

from __future__ import annotations

import tomllib
from dataclasses import dataclass, field
from fnmatch import fnmatch
from pathlib import Path

__all__ = ["CheckConfig", "load_config", "DEFAULT_DETERMINISM_PATHS",
           "DEFAULT_VALIDATION_PATHS", "DEFAULT_HOT_PATHS",
           "DEFAULT_CONTRACT_PATHS"]

DEFAULT_DETERMINISM_PATHS = ("accel", "hardware", "engine", "formats")
DEFAULT_VALIDATION_PATHS = ("hardware", "accel/config.py")
DEFAULT_HOT_PATHS = ("formats", "graphs/updates.py", "engine", "skipping")
DEFAULT_CONTRACT_PATHS = (
    "formats", "graphs", "engine", "skipping", "adaptive", "models",
    "analysis/similarity.py",
)


@dataclass(frozen=True)
class CheckConfig:
    """Resolved checker configuration."""

    enable: tuple[str, ...] = ()
    disable: tuple[str, ...] = ()
    exclude: tuple[str, ...] = ()
    determinism_paths: tuple[str, ...] = DEFAULT_DETERMINISM_PATHS
    validation_paths: tuple[str, ...] = DEFAULT_VALIDATION_PATHS
    hot_paths: tuple[str, ...] = DEFAULT_HOT_PATHS
    contract_paths: tuple[str, ...] = DEFAULT_CONTRACT_PATHS

    def rule_enabled(self, code: str) -> bool:
        """Whether rule ``code`` runs under this configuration.  A
        non-empty ``enable`` is an allow-list; otherwise everything not
        in ``disable`` runs."""
        if self.enable:
            return code in self.enable
        return code not in self.disable

    def path_excluded(self, relpath: str) -> bool:
        """Whether a posix-style repo-relative path is excluded."""
        return any(fnmatch(relpath, pat) for pat in self.exclude)

    def path_covered(self, relpath: str, selectors: tuple[str, ...]) -> bool:
        """Whether ``relpath`` falls under one of the path ``selectors``
        (a directory-part name like ``"hardware"`` or a path suffix like
        ``"accel/config.py"``)."""
        parts = Path(relpath).parts
        for sel in selectors:
            if "/" in sel:
                if relpath.endswith(sel):
                    return True
            elif sel in parts:
                return True
        return False


def load_config(start: Path | str) -> CheckConfig:
    """Load ``[tool.repro.check]`` from the nearest pyproject.toml at or
    above ``start``; defaults when no file or block exists."""
    p = Path(start).resolve()
    if p.is_file():
        p = p.parent
    for directory in (p, *p.parents):
        pyproject = directory / "pyproject.toml"
        if pyproject.is_file():
            with open(pyproject, "rb") as fh:
                data = tomllib.load(fh)
            block = data.get("tool", {}).get("repro", {}).get("check", {})
            return _from_mapping(block)
    return CheckConfig()


def _from_mapping(block: dict) -> CheckConfig:
    def strings(key: str, default: tuple[str, ...] = ()) -> tuple[str, ...]:
        value = block.get(key, block.get(key.replace("-", "_"), default))
        if not isinstance(value, (list, tuple)) or not all(
            isinstance(v, str) for v in value
        ):
            raise ValueError(f"[tool.repro.check] {key} must be a string list")
        return tuple(value)

    return CheckConfig(
        enable=strings("enable"),
        disable=strings("disable"),
        exclude=strings("exclude"),
        determinism_paths=strings(
            "determinism-paths", DEFAULT_DETERMINISM_PATHS
        ),
        validation_paths=strings("validation-paths", DEFAULT_VALIDATION_PATHS),
        hot_paths=strings("hot-paths", DEFAULT_HOT_PATHS),
        contract_paths=strings("contract-paths", DEFAULT_CONTRACT_PATHS),
    )
