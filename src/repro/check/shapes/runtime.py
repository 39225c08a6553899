"""Runtime half of the contract subsystem: the ``@contract`` decorator.

The contract string is parsed once, at decoration time (a typo fails the
import).  When the sanitizer is off the wrapper costs one truthiness
test; under ``REPRO_SANITIZE=1`` (or inside :func:`~repro.check.sanitized`)
every call validates the real arguments and return value against the
declared spec.  Violations raise
:class:`~repro.check.sanitizer.SanitizerViolation` naming the offending
parameter, dimension, and dtype, and every validation is counted in the
sanitizer stats under the ``contract-args`` / ``contract-return``
invariants.

Validation is pure observation: it never copies, casts, or otherwise
perturbs the arrays, so sanitized runs stay bit-identical to unsanitized
ones.
"""

from __future__ import annotations

import functools
import inspect

import numpy as np

from ..sanitizer import require, sanitizer_enabled
from .spec import (
    EXACT_DTYPES,
    KIND_DTYPES,
    AnySpec,
    ArraySpec,
    ContractSpec,
    DimScalarSpec,
    DimSpec,
    ScalarSpec,
    parse_contract,
)

__all__ = ["contract", "get_contract", "validate_value"]

_SCALAR_OK = {
    "int": lambda v: isinstance(v, (int, np.integer))
    and not isinstance(v, bool),
    "float": lambda v: isinstance(v, (int, float, np.integer, np.floating))
    and not isinstance(v, bool),
    "bool": lambda v: isinstance(v, (bool, np.bool_)),
    "str": lambda v: isinstance(v, str),
    "none": lambda v: v is None,
}


def _dtype_ok(dtype: np.dtype, code: str) -> bool:
    if code in KIND_DTYPES:
        kinds = KIND_DTYPES[code]
        return kinds == "?" or dtype.kind in kinds
    return dtype == np.dtype(EXACT_DTYPES[code])


def _check_dims(
    shape: tuple[int, ...],
    dims: tuple[DimSpec, ...],
    bindings: dict[str, int],
) -> tuple[bool, str]:
    """Match a concrete shape against dim specs, binding symbols as we
    go.  Returns (ok, detail-for-the-error-message)."""
    if len(shape) != len(dims):
        return False, f"rank {len(shape)} != {len(dims)}"
    for axis, (size, dim) in enumerate(zip(shape, dims)):
        if dim.kind == "any":
            continue
        if dim.kind == "lit":
            if size != dim.value:
                return False, f"axis {axis} is {size}, expected {dim.value}"
            continue
        want = bindings.get(dim.name)
        base = size - dim.value
        if want is None:
            if base < 0:
                return False, (
                    f"axis {axis} is {size}, smaller than offset"
                    f" +{dim.value} of {dim.name!r}"
                )
            bindings[dim.name] = base
        elif base != want:
            return False, (
                f"axis {axis} is {size}, expected"
                f" {dim!s}={want + dim.value}"
            )
    return True, ""


def validate_value(
    value,
    spec,
    bindings: dict[str, int],
) -> tuple[bool, str]:
    """Check one value against one spec under the current symbol
    bindings (mutated in place on successful binds).  The detail is
    empty on success, so a passing check formats no message."""
    if isinstance(spec, AnySpec):
        return True, ""
    if isinstance(spec, ScalarSpec):
        if not _SCALAR_OK[spec.kind](value):
            return False, f"expected {spec.kind}, got {type(value).__name__}"
        return True, ""
    if isinstance(spec, DimScalarSpec):
        if isinstance(value, bool) or not isinstance(
            value, (int, np.integer)
        ):
            return False, (
                f"expected int (dim {spec.name!r}),"
                f" got {type(value).__name__}"
            )
        want = bindings.get(spec.name)
        if want is None:
            bindings[spec.name] = int(value)
        elif int(value) != want:
            return False, f"is {int(value)}, expected {spec.name}={want}"
        return True, ""
    if isinstance(spec, ArraySpec):
        if value is None:
            if spec.optional:
                return True, ""
            return False, "is None, expected an array"
        if not isinstance(value, np.ndarray):
            return False, f"expected ndarray, got {type(value).__name__}"
        if not _dtype_ok(value.dtype, spec.dtype):
            return False, f"dtype {value.dtype} != {spec.dtype}"
        if spec.dims is None:
            return True, ""
        return _check_dims(value.shape, spec.dims, bindings)
    return True, ""


def _validate_args(
    fn_name: str, spec: ContractSpec, params, args, kwargs
) -> dict[str, int]:
    bindings: dict[str, int] = {}
    bound: dict[str, object] = dict(zip(params, args))
    for name, value in kwargs.items():
        if name in params:
            bound[name] = value
    for name, arg_spec in zip(params, spec.args):
        if name not in bound:  # defaulted parameter left unspecified
            continue
        ok, detail = validate_value(bound[name], arg_spec, bindings)
        require(
            ok,
            "contract-args",
            name,
            detail,
            str(arg_spec),
            fn_name,
        )
    return bindings


def _validate_return(
    fn_name: str, spec: ContractSpec, bindings: dict[str, int], result
) -> None:
    values = result if len(spec.returns) > 1 else (result,)
    if len(spec.returns) > 1 and (
        not isinstance(result, tuple) or len(result) != len(spec.returns)
    ):
        require(
            False,
            "contract-return",
            "return",
            f"expected a {len(spec.returns)}-tuple,"
            f" got {type(result).__name__}",
            str(spec),
            fn_name,
        )
    for pos, (value, ret_spec) in enumerate(zip(values, spec.returns)):
        ok, detail = validate_value(value, ret_spec, bindings)
        require(
            ok,
            "contract-return",
            f"return[{pos}]" if len(spec.returns) > 1 else "return",
            detail,
            str(ret_spec),
            fn_name,
        )


def contract(text: str):
    """Declare a shape/dtype contract on a kernel.

    Parses ``text`` immediately; attaches the parsed
    :class:`~repro.check.shapes.spec.ContractSpec` as
    ``__repro_contract__`` (the static pass reads the *source* decorator,
    tests and tooling read this attribute); wraps the function so that
    when the sanitizer is enabled, arguments and return values are
    validated on every call.
    """
    spec = parse_contract(text)

    def decorate(fn):
        sig = inspect.signature(fn)
        params = [
            name
            for name in sig.parameters
            if name not in ("self", "cls")
        ]
        if len(spec.args) > len(params):
            raise TypeError(
                f"contract for {fn.__qualname__} declares"
                f" {len(spec.args)} arguments but the signature has"
                f" only {len(params)}"
            )
        arg_names = params[: len(spec.args)]
        skip_first = next(iter(sig.parameters), None) in ("self", "cls")

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not sanitizer_enabled():
                return fn(*args, **kwargs)
            seen = args[1:] if skip_first else args
            bindings = _validate_args(
                fn.__qualname__, spec, arg_names, seen, kwargs
            )
            result = fn(*args, **kwargs)
            _validate_return(fn.__qualname__, spec, bindings, result)
            return result

        wrapper.__repro_contract__ = spec
        return wrapper

    return decorate


def get_contract(fn) -> ContractSpec | None:
    """The parsed contract attached to ``fn``, if any."""
    return getattr(fn, "__repro_contract__", None)
