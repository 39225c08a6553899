"""The shape/dtype contract DSL.

A contract is one line of text describing what flows through a kernel::

    @contract("(n,f) f32, (e,) i64 -> (n,f) f32")
    def propagate(x, idx): ...

Left of ``->`` are the argument specs (aligned, in order, to the
function's positional parameters after ``self``/``cls``); right of it
are the return specs (several means a tuple return).  Each spec is one
of:

``(dims) dtype``
    An array.  ``dims`` are symbolic names (``n``, ``f``), integer
    literals, ``*`` (any size), or a symbol plus an offset (``n+1``, the
    CSR ``indptr`` idiom).  ``(...) dtype`` accepts any rank.  A symbol
    binds on first use and every later use must match — ``(n,f), (n,)``
    says "the second argument's length equals the first's row count".
``?(dims) dtype``
    Same, but ``None`` is also accepted (optional array arguments).
``n`` (a bare lowercase name)
    An integer scalar that *binds* the dimension symbol ``n`` — e.g.
    ``build_csr(num_vertices, ...)`` declaring ``n, (e,) i, (e,) i ->
    (n+1,) i64, (e,) i32``.
``int`` / ``float`` / ``bool`` / ``str`` / ``none``
    A plain Python scalar of that type (``float`` accepts ints too,
    mirroring Python's numeric tower; ``none`` requires ``None``).
``_``
    Anything; the position is declared but unchecked.

Dtypes: exact (``f16 f32 f64 i8 i16 i32 i64 u8 u16 u32 u64 b``), a
kind class (``f`` any float, ``i`` any integer — signed or unsigned,
``u`` unsigned), or ``?`` (any dtype).

The grammar is deliberately tiny: it has to be readable at the def site
and checkable in O(rank) at runtime (see docs/static_analysis.md).
"""

from __future__ import annotations

import re
from dataclasses import dataclass

__all__ = [
    "AnySpec",
    "ArraySpec",
    "ContractError",
    "ContractSpec",
    "DimScalarSpec",
    "DimSpec",
    "EXACT_DTYPES",
    "KIND_DTYPES",
    "SCALAR_KINDS",
    "ScalarSpec",
    "parse_contract",
]

#: exact dtype codes -> numpy dtype names
EXACT_DTYPES = {
    "f16": "float16",
    "f32": "float32",
    "f64": "float64",
    "i8": "int8",
    "i16": "int16",
    "i32": "int32",
    "i64": "int64",
    "u8": "uint8",
    "u16": "uint16",
    "u32": "uint32",
    "u64": "uint64",
    "b": "bool",
}

#: dtype kind classes -> accepted numpy ``dtype.kind`` characters
KIND_DTYPES = {"f": "f", "i": "iu", "u": "u", "?": "?"}

#: keywords naming plain Python scalar specs
SCALAR_KINDS = ("int", "float", "bool", "str", "none")


class ContractError(ValueError):
    """A malformed contract string (raised at decoration time)."""


@dataclass(frozen=True)
class DimSpec:
    """One axis: a symbol (+offset), a literal size, or ``*``."""

    kind: str  # 'sym' | 'lit' | 'any'
    name: str = ""
    value: int = 0  # literal size, or the offset of a 'sym' ("n+1")

    def __str__(self) -> str:
        if self.kind == "any":
            return "*"
        if self.kind == "lit":
            return str(self.value)
        return self.name + (f"+{self.value}" if self.value else "")


@dataclass(frozen=True)
class ArraySpec:
    """``(dims) dtype`` — ``dims is None`` means any rank."""

    dims: tuple[DimSpec, ...] | None
    dtype: str
    optional: bool = False

    def __str__(self) -> str:
        opt = "?" if self.optional else ""
        inner = "..." if self.dims is None else ",".join(map(str, self.dims))
        return f"{opt}({inner}) {self.dtype}"


@dataclass(frozen=True)
class ScalarSpec:
    """A plain Python scalar: int/float/bool/str/none."""

    kind: str

    def __str__(self) -> str:
        return self.kind


@dataclass(frozen=True)
class DimScalarSpec:
    """An integer scalar that binds a dimension symbol."""

    name: str

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class AnySpec:
    """Unchecked position."""

    def __str__(self) -> str:
        return "_"


@dataclass(frozen=True)
class ContractSpec:
    """A parsed contract: argument specs and return specs."""

    text: str
    args: tuple
    returns: tuple

    def __str__(self) -> str:
        left = ", ".join(map(str, self.args))
        right = ", ".join(map(str, self.returns))
        return f"{left} -> {right}"


_TOKEN = re.compile(
    r"\s*(?:(?P<name>[A-Za-z_][A-Za-z0-9_]*)|(?P<int>\d+)"
    r"|(?P<arrow>->)|(?P<ellipsis>\.\.\.)|(?P<sym>[(),*?+]))"
)


def _tokenize(text: str) -> list[tuple[str, str]]:
    out: list[tuple[str, str]] = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            if text[pos:].strip() == "":
                break
            raise ContractError(
                f"bad contract syntax at {text[pos:pos + 10]!r} in {text!r}"
            )
        pos = m.end()
        for kind in ("name", "int", "arrow", "ellipsis", "sym"):
            tok = m.group(kind)
            if tok is not None:
                out.append((kind if kind != "sym" else tok, tok))
                break
    out.append(("end", ""))
    return out


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.toks = _tokenize(text)
        self.i = 0

    def peek(self) -> tuple[str, str]:
        return self.toks[self.i]

    def take(self, kind: str | None = None) -> str:
        k, v = self.toks[self.i]
        if kind is not None and k != kind:
            raise ContractError(
                f"expected {kind!r}, got {v!r} in contract {self.text!r}"
            )
        self.i += 1
        return v

    # ------------------------------------------------------------------
    def parse(self) -> ContractSpec:
        args: list = []
        if self.peek()[0] != "arrow":
            args = self.spec_list()
        self.take("arrow")
        returns = self.spec_list()
        if self.peek()[0] != "end":
            raise ContractError(
                f"trailing junk after return specs in {self.text!r}"
            )
        if not returns:
            raise ContractError(f"contract needs a return spec: {self.text!r}")
        return ContractSpec(self.text, tuple(args), tuple(returns))

    def spec_list(self) -> list:
        specs = [self.spec()]
        while self.peek()[0] == ",":
            self.take(",")
            specs.append(self.spec())
        return specs

    def spec(self):
        kind, value = self.peek()
        if kind == "(" or (kind == "?" and self.toks[self.i + 1][0] == "("):
            optional = False
            if kind == "?":
                self.take("?")
                optional = True
            return self.array_spec(optional)
        if kind == "name":
            self.take()
            if value == "_":
                return AnySpec()
            if value in SCALAR_KINDS:
                return ScalarSpec(value)
            if value in EXACT_DTYPES or value in KIND_DTYPES:
                raise ContractError(
                    f"dtype {value!r} without dims — write ``(...) {value}``"
                    f" in {self.text!r}"
                )
            return DimScalarSpec(value)
        raise ContractError(
            f"expected a spec, got {value!r} in contract {self.text!r}"
        )

    def array_spec(self, optional: bool) -> ArraySpec:
        self.take("(")
        dims: list[DimSpec] | None = []
        if self.peek()[0] == "ellipsis":
            self.take("ellipsis")
            dims = None
        elif self.peek()[0] != ")":
            dims = [self.dim()]
            while self.peek()[0] == ",":
                self.take(",")
                if self.peek()[0] == ")":  # trailing comma: "(e,)"
                    break
                dims.append(self.dim())
        self.take(")")
        kind, value = self.peek()
        dtype = "?"
        if kind == "name":
            if value not in EXACT_DTYPES and value not in KIND_DTYPES:
                raise ContractError(
                    f"unknown dtype {value!r} in contract {self.text!r}"
                )
            dtype = self.take()
        elif kind == "?":
            self.take("?")
        else:
            raise ContractError(
                f"array spec needs a dtype after the dims in {self.text!r}"
            )
        return ArraySpec(
            dims=None if dims is None else tuple(dims),
            dtype=dtype,
            optional=optional,
        )

    def dim(self) -> DimSpec:
        kind, value = self.peek()
        if kind == "*":
            self.take()
            return DimSpec("any")
        if kind == "int":
            self.take()
            return DimSpec("lit", value=int(value))
        if kind == "name":
            name = self.take()
            offset = 0
            if self.peek()[0] == "+":
                self.take("+")
                offset = int(self.take("int"))
            return DimSpec("sym", name=name, value=offset)
        raise ContractError(
            f"expected a dimension, got {value!r} in contract {self.text!r}"
        )


def parse_contract(text: str) -> ContractSpec:
    """Parse a contract string; raises :class:`ContractError` on syntax
    errors (at decoration time, so a typo fails the import, not a run)."""
    if not isinstance(text, str):
        raise ContractError(f"contract must be a string, got {type(text).__name__}")
    return _Parser(text).parse()
