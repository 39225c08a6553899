"""repro.check — simulator-invariant static analysis + runtime sanitizer.

Two halves (see docs/static_analysis.md):

* **Static pass** — ``python -m repro.check src/`` runs the repo-specific
  AST rules R001 (determinism), R002 (frozen-model mutation), R003 (unit
  discipline), R004 (API hygiene), R005 (validation coverage), R006
  (hot-path loops) and R008 (contract coverage), and exits non-zero on
  any finding.
* **Runtime sanitizer** — ``REPRO_SANITIZE=1`` (or the
  :func:`sanitized` context manager) turns on conservation checks inside
  the cycle simulator, the memory models, O-CSR, and the energy
  composition, plus per-call :func:`~repro.check.shapes.contract`
  validation on annotated kernels; violations raise
  :class:`SanitizerViolation`.
"""

from __future__ import annotations

from .config import CheckConfig, load_config
from .findings import Finding
from .registry import RULES, ModuleContext, ProjectContext, Rule, rule
from .runner import main, scan_paths
from .shapes import contract, get_contract, parse_contract
from .sanitizer import (
    SanitizerStats,
    SanitizerViolation,
    check_buffer,
    check_cyclesim_result,
    check_energy_composition,
    check_hbm_request,
    check_ocsr,
    require,
    reset_sanitizer_stats,
    sanitized,
    sanitizer_enabled,
    sanitizer_stats,
)

__all__ = [
    "CheckConfig",
    "Finding",
    "ModuleContext",
    "ProjectContext",
    "RULES",
    "Rule",
    "SanitizerStats",
    "SanitizerViolation",
    "check_buffer",
    "check_cyclesim_result",
    "check_energy_composition",
    "check_hbm_request",
    "check_ocsr",
    "contract",
    "get_contract",
    "load_config",
    "main",
    "parse_contract",
    "require",
    "reset_sanitizer_stats",
    "rule",
    "sanitized",
    "sanitizer_enabled",
    "sanitizer_stats",
    "scan_paths",
]
