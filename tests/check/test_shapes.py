"""The contract subsystem: DSL parser, runtime validator, decorator.

Three layers are pinned here:

* :func:`parse_contract` — grammar corners and decoration-time errors;
* :func:`validate_value` — one value against one spec with symbol
  bindings;
* :func:`contract` — the wrapper's behaviour with the sanitizer on
  (violations raise, stats count) and off (pure passthrough), including
  the acceptance scenario: a seeded shape fault caught under
  ``REPRO_SANITIZE=1`` while sanitized runs stay bit-identical.
"""

import numpy as np
import pytest

import repro.check.sanitizer as sanitizer_mod
from repro.check import SanitizerViolation, sanitized
from repro.check.sanitizer import reset_sanitizer_stats, sanitizer_stats
from repro.check.shapes import (
    AnySpec,
    ArraySpec,
    ContractError,
    DimScalarSpec,
    DimSpec,
    ScalarSpec,
    contract,
    get_contract,
    parse_contract,
    validate_value,
)

# ----------------------------------------------------------------------
# parser
# ----------------------------------------------------------------------


def test_parse_basic_array_contract():
    spec = parse_contract("(n,f) f32, (e,) i64 -> (n,f) f32")
    assert len(spec.args) == 2 and len(spec.returns) == 1
    x, idx = spec.args
    assert x == ArraySpec(
        dims=(DimSpec("sym", "n"), DimSpec("sym", "f")), dtype="f32"
    )
    assert idx.dims == (DimSpec("sym", "e"),)
    assert idx.dtype == "i64"


def test_parse_every_spec_kind():
    spec = parse_contract(
        "n, int, float, bool, str, none, _, ?(k,) f, (...) ?, (3, *) u8"
        " -> (n+1,) i64"
    )
    kinds = [type(s).__name__ for s in spec.args]
    assert kinds == [
        "DimScalarSpec", "ScalarSpec", "ScalarSpec", "ScalarSpec",
        "ScalarSpec", "ScalarSpec", "AnySpec", "ArraySpec", "ArraySpec",
        "ArraySpec",
    ]
    assert spec.args[0] == DimScalarSpec("n")
    assert spec.args[7].optional is True
    assert spec.args[8].dims is None  # (...) = any rank
    assert spec.args[9].dims == (DimSpec("lit", value=3), DimSpec("any"))
    ret = spec.returns[0]
    assert ret.dims == (DimSpec("sym", "n", 1),)  # the indptr n+1 idiom


def test_parse_no_args_contract():
    spec = parse_contract("-> (n,) f32")
    assert spec.args == ()


@pytest.mark.parametrize(
    "text, fragment",
    [
        ("(n,) q8 -> (n,) f32", "unknown dtype 'q8'"),
        ("f32 -> (n,) f32", "without dims"),
        ("(n,) f32", "expected 'arrow'"),
        ("(n,) f32 -> (n,) f32 junk", "trailing junk"),
        ("(n,) f32 ->", "expected a spec"),
        ("(n f) f32 -> (n,) f32", "expected"),
        ("(n,) -> (n,) f32", "needs a dtype"),
    ],
)
def test_parse_errors(text, fragment):
    with pytest.raises(ContractError) as exc:
        parse_contract(text)
    assert fragment in str(exc.value)


def test_parse_roundtrips_through_str():
    spec = parse_contract("?(n, f) f32, m, _ -> (m+2,) i64, (...) f")
    assert parse_contract(str(spec)) == parse_contract(str(spec))


# ----------------------------------------------------------------------
# validate_value
# ----------------------------------------------------------------------


def test_validate_binds_and_enforces_symbols():
    spec = parse_contract("(n, f) f32, (n,) b -> (n,) f32")
    b: dict = {}
    ok, _ = validate_value(np.zeros((4, 3), np.float32), spec.args[0], b)
    assert ok and b == {"n": 4, "f": 3}
    ok, _ = validate_value(np.zeros(4, bool), spec.args[1], b)
    assert ok
    ok, detail = validate_value(np.zeros(5, bool), spec.args[1], {"n": 4})
    assert not ok and "expected n=4" in detail


def test_validate_offset_dims():
    spec = parse_contract("n -> (n+1,) i64")
    b: dict = {}
    assert validate_value(7, spec.args[0], b) == (True, "")
    assert validate_value(np.zeros(8, np.int64), spec.returns[0], b)[0]
    ok, detail = validate_value(np.zeros(7, np.int64), spec.returns[0], b)
    assert not ok and "n+1" in detail


def test_validate_dtype_kinds():
    arr = parse_contract("(n,) i -> _").args[0]
    assert validate_value(np.zeros(2, np.uint8), arr, {})[0]  # i = iu
    assert validate_value(np.zeros(2, np.int32), arr, {})[0]
    ok, detail = validate_value(np.zeros(2, np.float32), arr, {})
    assert not ok and "dtype" in detail


def test_validate_optional_and_scalars():
    spec = parse_contract("?(n,) f, int, float, none -> _")
    assert validate_value(None, spec.args[0], {})[0]
    assert not validate_value(None, parse_contract("(n,) f -> _").args[0], {})[0]
    assert validate_value(3, spec.args[1], {})[0]
    assert not validate_value(True, spec.args[1], {})[0]  # bool is not int
    assert validate_value(3, spec.args[2], {})[0]  # numeric tower
    assert validate_value(None, spec.args[3], {})[0]


# ----------------------------------------------------------------------
# the decorator
# ----------------------------------------------------------------------


@contract("(n, f) f32, (e,) i64 -> (e, f) f32")
def _gather(feats, idx):
    return feats[idx]


@contract("n, (e,) i64 -> (n+1,) i64, (e,) i64")
def _histogram(n, where):
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(where, minlength=n), out=indptr[1:])
    return indptr, np.sort(where)


def test_contract_attached_and_introspectable():
    spec = get_contract(_gather)
    assert spec is not None and len(spec.args) == 2
    assert get_contract(len) is None


def test_decoration_time_errors():
    with pytest.raises(ContractError):
        contract("(n,) z9 -> (n,) f32")

    with pytest.raises(TypeError, match="declares 3 arguments"):
        @contract("_, _, _ -> _")
        def too_short(x):
            return x


def test_valid_calls_pass_and_are_counted():
    reset_sanitizer_stats()
    feats = np.arange(6, dtype=np.float32).reshape(3, 2)
    idx = np.array([2, 0], dtype=np.int64)
    out = _gather(feats, idx)
    assert out.shape == (2, 2)
    by_invariant = sanitizer_stats().by_invariant
    assert by_invariant.get("contract-args", 0) >= 2
    assert by_invariant.get("contract-return", 0) >= 1


def test_wrong_arg_dtype_raises_before_the_kernel_runs():
    feats = np.arange(6, dtype=np.float32).reshape(3, 2)
    with pytest.raises(SanitizerViolation, match="contract-args") as exc:
        _gather(feats, np.array([0.0, 1.0]))  # float where i64 declared
    assert exc.value.quantity == "idx"
    assert "i64" in str(exc.value)


def test_symbol_mismatch_across_args_raises():
    @contract("(n, f) f32, (n,) b -> _")
    def masked(x, m):
        return x

    x = np.zeros((4, 2), np.float32)
    with pytest.raises(SanitizerViolation, match="expected n=4"):
        masked(x, np.zeros(5, bool))


@contract("n, (e,) i64 -> (n+1,) i64, (e,) i64")
def _short_indptr(n, where):
    return np.zeros(n, dtype=np.int64), where  # n where n+1 declared


@contract("(n, f) f32 -> (n, f) f32")
def _widened(x):
    return x.astype(np.float64)  # f64 where f32 declared


@contract("(n,) f32 -> (n,) f32")
def _outer(x):
    return x[:, None] * x[None, :]  # rank 2 where rank 1 declared


def test_multi_return_and_offset_enforced():
    indptr, srt = _histogram(3, np.array([0, 2, 2], dtype=np.int64))
    assert indptr.tolist() == [0, 1, 1, 3]

    # each body breaks its declared return; the wrapper raises on the call
    cases = [
        (_short_indptr, (3, np.array([0], dtype=np.int64)), "return[0]",
         "n+1"),
        (_widened, (np.ones((2, 3), np.float32),), "return", "dtype float64"),
        (_outer, (np.ones(3, np.float32),), "return", "rank 2"),
    ]
    for fn, args, quantity, detail in cases:
        with pytest.raises(SanitizerViolation) as exc:
            fn(*args)
        assert exc.value.invariant == "contract-return", fn.__name__
        assert exc.value.quantity == quantity, fn.__name__
        assert detail in str(exc.value), fn.__name__


def test_wrong_tuple_arity_raises():
    @contract("_ -> (n,) f32, (n,) f32")
    def single(x):
        return x

    with pytest.raises(SanitizerViolation, match="2-tuple"):
        single(np.zeros(3, np.float32))


def test_methods_skip_self():
    class K:
        @contract("(n,) f -> (n,) f")
        def double(self, x):
            return x * 2.0

    assert K().double(np.ones(3, np.float32)).shape == (3,)
    with pytest.raises(SanitizerViolation):
        K().double(np.ones((3, 1), np.float32))


def test_defaulted_params_left_unspecified_are_skipped():
    @contract("(n,) f, (n,) f -> (n,) f")
    def add(x, y=None):
        return x + y if y is not None else x

    assert add(np.ones(2, np.float32)).shape == (2,)  # y unchecked
    with pytest.raises(SanitizerViolation):
        add(np.ones(2, np.float32), np.ones(3, np.float32))


# ----------------------------------------------------------------------
# sanitizer on/off semantics (the acceptance scenario)
# ----------------------------------------------------------------------


def test_disabled_wrapper_is_pure_passthrough(monkeypatch):
    # Escape the suite-wide sanitized() fixture and the env flag: with
    # the sanitizer fully off the seeded fault must NOT raise.
    monkeypatch.setattr(sanitizer_mod, "_DEPTH", 0)
    monkeypatch.delenv("REPRO_SANITIZE", raising=False)
    out = _gather(
        np.arange(6, dtype=np.float64).reshape(3, 2),  # f64 where f32 declared
        np.array([0, 1], dtype=np.int64),
    )
    assert out.shape == (2, 2)
    with sanitized(), pytest.raises(SanitizerViolation):
        _gather(
            np.arange(6, dtype=np.float64).reshape(3, 2),
            np.array([0, 1], dtype=np.int64),
        )


def test_env_flag_catches_seeded_shape_fault(monkeypatch):
    from repro.skipping.delta import generate_delta

    monkeypatch.setattr(sanitizer_mod, "_DEPTH", 0)
    monkeypatch.setenv("REPRO_SANITIZE", "1")
    good = np.ones((4, 3), dtype=np.float32)
    # seeded fault: current/previous feature blocks disagree on width
    with pytest.raises(SanitizerViolation, match="contract-args"):
        generate_delta(good, np.ones((4, 2), dtype=np.float32))


def test_sanitized_runs_are_bit_identical():
    from repro.graphs.generators import (
        DynamicGraphSpec, generate_dynamic_graph,
    )
    from repro.models.layers import GCNStack

    spec = DynamicGraphSpec(
        name="t", num_vertices=40, num_edges=80, dim=8,
        num_snapshots=3, seed=5,
    )
    gnn = GCNStack([8, 8], seed=3)

    def run():
        g = generate_dynamic_graph(spec)
        return np.concatenate(
            [gnn.forward(s, s.features) for s in g]
        )

    with sanitized():
        a = run()
    with sanitized():
        b = run()
    assert a.tobytes() == b.tobytes()  # validation never perturbs data


def test_sanitized_matches_unsanitized_bits(monkeypatch):
    feats = np.linspace(0, 1, 12, dtype=np.float32).reshape(4, 3)
    idx = np.array([3, 1, 0], dtype=np.int64)
    with sanitized():
        on = _gather(feats, idx)
    monkeypatch.setattr(sanitizer_mod, "_DEPTH", 0)
    monkeypatch.delenv("REPRO_SANITIZE", raising=False)
    off = _gather(feats, idx)
    assert on.tobytes() == off.tobytes()
