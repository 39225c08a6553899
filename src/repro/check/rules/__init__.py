"""Repo-specific rules R001-R006 and R008.

Importing this package registers every rule in
:data:`repro.check.registry.RULES`.
"""

from __future__ import annotations

from . import (
    api,
    contracts,
    determinism,
    frozen,
    hotpath,
    units,
    validation,
)

__all__ = ["api", "contracts", "determinism", "frozen", "hotpath", "units",
           "validation"]
