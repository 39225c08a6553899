"""Tests for the RNN approximation baselines (Table 5 comparators)."""

import hashlib
from dataclasses import fields

import numpy as np
import pytest

from repro.engine import ConcurrentEngine, ReferenceEngine
from repro.graphs import load_dataset
from repro.models import (
    EXACT_OPS,
    CellOps,
    DGNNModel,
    ElmanCell,
    GCNStack,
    GRUCell,
    GRUState,
    LSTMCell,
    RecurrentCell,
    glorot,
    sigmoid,
    tanh,
)
from repro.skipping import (
    APPROXIMATORS,
    ALSTMApprox,
    ATLASApprox,
    DeltaRNNApprox,
    ExactRNN,
    hard_sigmoid,
    hard_tanh,
    quantize,
    truncate_mantissa,
)


class TestPrimitives:
    def test_hard_sigmoid_shape(self):
        x = np.array([-10.0, -2.0, 0.0, 2.0, 10.0])
        np.testing.assert_allclose(hard_sigmoid(x), [0.0, 0.0, 0.5, 1.0, 1.0])

    def test_hard_tanh(self):
        x = np.array([-5.0, -0.5, 0.5, 5.0])
        np.testing.assert_allclose(hard_tanh(x), [-1.0, -0.5, 0.5, 1.0])

    def test_hard_variants_close_to_exact_near_zero(self):
        x = np.linspace(-0.2, 0.2, 11)
        assert np.max(np.abs(hard_sigmoid(x) - sigmoid(x))) < 0.01
        assert np.max(np.abs(hard_tanh(x) - tanh(x))) < 0.01

    def test_truncate_mantissa_identity_at_23_bits(self):
        x = np.random.default_rng(0).standard_normal(100).astype(np.float32)
        np.testing.assert_array_equal(truncate_mantissa(x, 23), x)

    def test_truncate_mantissa_error_bounded(self):
        x = np.random.default_rng(0).standard_normal(1000).astype(np.float32)
        for bits in (3, 6, 10):
            y = truncate_mantissa(x, bits)
            rel = np.abs((y - x) / x)
            assert rel.max() <= 2.0 ** (-bits)  # truncation error bound

    def test_truncate_mantissa_validates(self):
        with pytest.raises(ValueError):
            truncate_mantissa(np.zeros(1, np.float32), 24)

    def test_quantize(self):
        x = np.array([0.1, 0.26, -0.4])
        np.testing.assert_allclose(quantize(x, 0.25), [0.0, 0.25, -0.5])
        with pytest.raises(ValueError):
            quantize(x, 0.0)


@pytest.mark.parametrize("cell_cls", [LSTMCell, GRUCell])
class TestGenericStep:
    """``step_pre`` is generic over its primitives (:class:`CellOps`)."""

    def test_defaults_match_exact_cell(self, cell_cls):
        """The exact primitives spelled out are :data:`EXACT_OPS`, and
        ``step_pre`` with them is the cell's step, bit for bit."""
        assert CellOps(sigmoid, tanh, np.multiply, None) == EXACT_OPS
        cell = cell_cls(5, 4, seed=0)
        rng = np.random.default_rng(1)
        x = rng.standard_normal((7, 5)).astype(np.float32)
        _, state = cell.step(x, cell.init_state(7))  # warm the state
        h_exact, _ = cell.step(x, state)
        h_ops, _ = cell.step_pre(
            x @ cell.w_x, state.h @ cell.w_h, state, CellOps(sigmoid, tanh)
        )
        assert h_ops.tobytes() == h_exact.tobytes()

    def test_unsupported_cell(self, cell_cls):
        """Every approximator refuses a non-cell when its window starts."""
        for approx_cls in APPROXIMATORS.values():
            with pytest.raises(TypeError):
                approx_cls().start(object(), 1)
            approx_cls().start(cell_cls(5, 4, seed=0), 1)


@pytest.mark.parametrize("cell_cls", [LSTMCell, GRUCell])
class TestApproximators:
    def _run(self, approx, cell, xs):
        approx.start(cell, xs[0].shape[0])
        state = cell.init_state(xs[0].shape[0])
        outs = []
        for x in xs:
            h, state = approx.cell_step(cell, x, state)
            outs.append(h)
        return outs

    def _inputs(self, n=10, d=6, t=5, seed=0):
        rng = np.random.default_rng(seed)
        base = rng.standard_normal((n, d)).astype(np.float32)
        return [base + 0.1 * k for k in range(t)]

    def test_exact_baseline_is_identity(self, cell_cls):
        cell = cell_cls(6, 4, seed=0)
        xs = self._inputs()
        ref = self._run(ExactRNN(), cell, xs)
        state = cell.init_state(10)
        for x, h_ref in zip(xs, ref):
            h, state = cell.step(x, state)
            np.testing.assert_array_equal(h, h_ref)

    @pytest.mark.parametrize("name", ["TaGNN-DR", "TaGNN-AM", "TaGNN-AS"])
    def test_approximations_close_but_not_exact(self, cell_cls, name):
        cell = cell_cls(6, 4, seed=0)
        xs = self._inputs()
        ref = self._run(ExactRNN(), cell, xs)
        out = self._run(APPROXIMATORS[name](), cell, xs)
        err = max(np.abs(a - b).max() for a, b in zip(out, ref))
        assert 0 < err < 1.0  # perturbed, but not garbage

    def test_deltarnn_zero_threshold_is_exact(self, cell_cls):
        """With Θ = 0 DeltaRNN degenerates to exact inference."""
        cell = cell_cls(6, 4, seed=0)
        xs = self._inputs()
        ref = self._run(ExactRNN(), cell, xs)
        out = self._run(DeltaRNNApprox(threshold=0.0), cell, xs)
        for a, b in zip(out, ref):
            np.testing.assert_allclose(a, b, rtol=1e-4, atol=1e-5)

    def test_deltarnn_error_grows_with_threshold(self, cell_cls):
        cell = cell_cls(6, 4, seed=0)
        xs = self._inputs()
        ref = self._run(ExactRNN(), cell, xs)

        def final_err(th):
            out = self._run(DeltaRNNApprox(threshold=th), cell, xs)
            return np.abs(out[-1] - ref[-1]).mean()

        assert final_err(0.3) > final_err(0.05)

    def test_atlas_error_shrinks_with_bits(self, cell_cls):
        cell = cell_cls(6, 4, seed=0)
        xs = self._inputs()
        ref = self._run(ExactRNN(), cell, xs)

        def final_err(bits):
            out = self._run(ATLASApprox(mantissa_bits=bits), cell, xs)
            return np.abs(out[-1] - ref[-1]).mean()

        assert final_err(2) > final_err(10)

    def test_alstm_determinism(self, cell_cls):
        cell = cell_cls(6, 4, seed=0)
        xs = self._inputs()
        a = self._run(ALSTMApprox(), cell, xs)
        b = self._run(ALSTMApprox(), cell, xs)
        for x, y in zip(a, b):
            np.testing.assert_array_equal(x, y)

    def test_registry(self, cell_cls):
        assert set(APPROXIMATORS) == {"Baseline", "TaGNN-DR", "TaGNN-AM", "TaGNN-AS"}

    def test_deltarnn_negative_threshold_rejected(self, cell_cls):
        with pytest.raises(ValueError):
            DeltaRNNApprox(threshold=-1)


OPS = [("exact", EXACT_OPS)] + [
    (name, approx_cls().ops) for name, approx_cls in sorted(APPROXIMATORS.items())
]


@pytest.mark.parametrize("name, ops", OPS, ids=[name for name, _ in OPS])
class TestCellOpsAreElementwise:
    """The cells apply ``sig`` to two gates' columns in one call, so
    every primitive must give each block what it gives it alone."""

    def _blocks(self, seed=0, rows=300, width=24):
        rng = np.random.default_rng(seed)
        wide = rng.standard_normal((rows, 4 * width)).astype(np.float32) * 3
        both = wide[:, width : 3 * width]  # a strided two-gate block
        both[0, width - 2 : width + 2] = [0.0, -0.0, 1e-45, -1e-45]
        return both, both[:, :width], both[:, width:]

    def _same(self, got, first, second):
        assert got.tobytes() == np.hstack([first, second]).tobytes()

    def test_unary(self, name, ops):
        both, a, b = self._blocks()
        unary = [ops.sig, ops.th] + ([ops.pre] if ops.pre is not None else [])
        for fn in unary:
            self._same(fn(both), fn(a), fn(b))

    def test_mul(self, name, ops):
        both, a, b = self._blocks(seed=1)
        other, c, d = self._blocks(seed=2)
        self._same(ops.mul(both, other), ops.mul(a, c), ops.mul(b, d))


# sha256 of every output and state array over six steps (seeds 0, 1, 2),
# recorded before the approximators moved their gate arithmetic into
# ``RecurrentCell.step_pre``: the move changed no bit.
DIGESTS = {
    ("LSTM", "Baseline"): (
        "cfa08c73454b83f83eaa3c42c1b10986b4b529cead84fced7b5849c15c0471ab",
        "713e0ea4750a1f4a64aa2f7bba5c69e493488dd2fbee3c0c9595b495a13b0729",
        "08bcc1a28fa072d1bc4f3c284192f6e8f38d64b8c11fb421079eb688dee3876c",
    ),
    ("LSTM", "TaGNN-DR"): (
        "5faf8f229bc6ba739817ddc2562797c35319a980d4b9834cf3b01f6987eecda1",
        "5ff60afa55af6715a071366f20a7aa4ed8b201e14252b184d2f042ea1e8420c5",
        "50c56c6638c7d878c9366cee16dc5522c2e58e6b3e89d6ad69bdec23b6f64a69",
    ),
    ("LSTM", "TaGNN-AM"): (
        "b434522fd6f76f68c9fc10ed9d9e840d93ea0aa5b882a7223109b98802401c58",
        "30323fe8d2428ac35ed08dc7464c81917e01738a745e835a587cba9aadd483da",
        "d16480ba7d69bf5f3ba5600911fc9b51648144819700e0151636071e576b05c8",
    ),
    ("LSTM", "TaGNN-AS"): (
        "a3049819db9435461a2f3a1dfb984adafe04db3aad32862b2e253892f0aa0dc7",
        "e114c8298c652e0b12047e4b45438768f17e6602bc0248045d2140344ef93a25",
        "f5e3a57b599dbaa5d8207d1e305dce7aa4561536ba6b8ddd55408cc42a779664",
    ),
    ("GRU", "Baseline"): (
        "b27cda9b0a016478ad2c00a5fb2e0a305a469c0cb80c4465069ca08b3ec8a811",
        "bc26e67d5716b636b5239e36ca10f3256895538e2f8d2a735c15fab5b8209049",
        "2ab9f7cbe2750197048d61883ab8eac4f0865f1c21343573214e57521693e0c6",
    ),
    ("GRU", "TaGNN-DR"): (
        "94ad019cc126c24f80d78a5a9dad7aa210cf4fdeb34715631fcec8695c62386f",
        "dde7781699974609f9be2fe8fbeadbbc0d7cf0da540383a1fa3954872a1ff913",
        "5801e3a069ac990bb2217b1f37e6fe7500f27c1e7167d7e0704b2965d68cc4ee",
    ),
    ("GRU", "TaGNN-AM"): (
        "488d5e6e000b697d8f9d9f3ae8a6acdb61856c5f874862efd9d82af3cf264069",
        "f7b93d2e66a5acf10ed9e2dc80e668710f3c4829f1463275b40e84fdab6cc85f",
        "8ac51e930b978df32ffe722bdc9435f1f5476d26647e6549361010b87c1108c8",
    ),
    ("GRU", "TaGNN-AS"): (
        "bc44756aea14db436f261cd3bbb458206bd5013b0b25ff852df23b64696e374b",
        "522a6abff8883722d4bedc0469a712b44498c2ae16626b51b5524afcc60d1100",
        "99de4e96594696dad4e976ff4bdd43afdcc0f5ae8cade4dff34f9b6cf5d6ae4c",
    ),
    ("Elman", "Baseline"): (
        "9294d2228a3a3e4ae43b738fd319c1f163e856b1b5d5d92e9cf29918669a029d",
        "b14927b61ddb9304b60e39979380ad42dc6f863a3d8e43e0f4dccf26b048c0f1",
        "a9ca2eaa6b01c83d5c905697f3e52389bb0041f5324b3cca3592d96c25a0c73a",
    ),
    ("Elman", "TaGNN-DR"): (
        "b3bfbe1c4bf6b93de09e5e998a85c95ad608120c7312c080fc441efb8712c410",
        "31deb16a4381be768071f3c1465041dc6dc399a48a49d9f64691c095f2363d09",
        "d41ab90ff96f7b33162c7898f900759884454be47314658ba123d6148173f46d",
    ),
    ("Elman", "TaGNN-AM"): (
        "e0374c117b990d3ddfa7b2a2de533ddc6ff4c729f26afebdeefbff8ac10c3faf",
        "60aadcfca7c6de0bc35c915a116849388e7ae26837c1a60186514fb55aa72f38",
        "3293f97ac3244cb21f28d00d600717b1d31073bf947d0b02451d14a5f48dd2df",
    ),
    ("Elman", "TaGNN-AS"): (
        "c378e2809f059942ac75fdd71dbad260dfb0d6dd50f4e7392a1ebee6924abedc",
        "a5a4eebea094090a83a655c305422fc8f0565190e0f488d4ce595d4352564079",
        "a858570acfe6ac55a307752f55f3b2a554d4326e2a4a7899047a596526b3fd1e",
    ),
}
CELLS = {"LSTM": LSTMCell, "GRU": GRUCell, "Elman": ElmanCell}


def _digest(cell_cls, name, seed, steps=6, n=24, d=16, h=16):
    cell = cell_cls(d, h, seed=seed)
    rng = np.random.default_rng(seed)
    base = rng.standard_normal((n, d)).astype(np.float32)
    approx = APPROXIMATORS[name]()
    approx.start(cell, n)
    state = cell.init_state(n)
    sha = hashlib.sha256()
    for _ in range(steps):
        x = base + np.float32(0.3) * rng.standard_normal((n, d)).astype(np.float32)
        out, state = approx.cell_step(cell, x, state)
        sha.update(out.tobytes())
        for f in fields(state):
            sha.update(getattr(state, f.name).tobytes())
    return sha.hexdigest()


@pytest.mark.parametrize("cell_name, name", sorted(DIGESTS))
def test_approximators_did_not_move(cell_name, name):
    got = tuple(_digest(CELLS[cell_name], name, seed) for seed in range(3))
    assert got == DIGESTS[cell_name, name]


class LeakyCell(RecurrentCell):
    """``h' = (h + tanh(x W_x + h W_h + b)) / 2``: weights, a bias and
    ``step_pre`` are all a new cell defines."""

    def __init__(self, input_dim, hidden_dim):
        rng = np.random.default_rng(0)
        self.w_x = glorot(rng, input_dim, hidden_dim)
        self.w_h = glorot(rng, hidden_dim, hidden_dim)
        self.bias = np.full(hidden_dim, 0.1, dtype=np.float32)

    def step_pre(self, zx, zh, state, ops=EXACT_OPS):
        zx += zh
        zx += self.bias
        if ops.pre is not None:
            zx = ops.pre(zx)
        h = ops.mul(np.float32(0.5), state.h + ops.th(zx))
        return h, GRUState(h)


def test_a_new_cell_runs_everywhere():
    """No approximator or engine asks which cell it has."""
    cell = LeakyCell(8, 8)
    x = np.random.default_rng(0).standard_normal((6, 8)).astype(np.float32)

    for name, approx_cls in APPROXIMATORS.items():
        approx, st = approx_cls(), cell.init_state(6)
        approx.start(cell, 6)
        for t in range(3):
            h, st = approx.cell_step(cell, x + np.float32(t), st)
        assert h.shape == (6, 8) and np.isfinite(h).all(), name

    graph = load_dataset("GT", num_snapshots=8)
    model = DGNNModel(GCNStack([graph.dim, 8], seed=1), cell)
    want = ReferenceEngine(model).run(graph).outputs
    got = ConcurrentEngine(model, enable_skipping=False).run(graph).outputs
    assert len(got) == len(want) == graph.num_snapshots
    assert all(a.tobytes() == b.tobytes() for a, b in zip(got, want))
    skipped = ConcurrentEngine(model).run(graph)
    assert skipped.metrics.cells_delta > 0
