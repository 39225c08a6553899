"""Shape/dtype contracts for the array hot paths.

One declaration per kernel::

    from repro.check.shapes import contract

    @contract("(n,f) f32, (e,) i64 -> (n,f) f32")
    def propagate(x, idx): ...

Under ``REPRO_SANITIZE=1`` the decorator validates real arguments and
returns on every call, raising
:class:`~repro.check.sanitizer.SanitizerViolation` with the offending
dimension/dtype; disabled, it costs one truthiness test
(:mod:`repro.check.shapes.runtime`).  A malformed contract string fails
at import, when the decorator parses it.  Rule R008
(:mod:`repro.check.rules.contracts`) requires every public array kernel
in the contract paths to declare one.

See docs/static_analysis.md for the contract-authoring guide.
"""

from __future__ import annotations

from .runtime import contract, get_contract, validate_value
from .spec import (
    AnySpec,
    ArraySpec,
    ContractError,
    ContractSpec,
    DimScalarSpec,
    DimSpec,
    ScalarSpec,
    parse_contract,
)

__all__ = [
    "AnySpec",
    "ArraySpec",
    "ContractError",
    "ContractSpec",
    "DimScalarSpec",
    "DimSpec",
    "ScalarSpec",
    "contract",
    "get_contract",
    "parse_contract",
    "validate_value",
]
