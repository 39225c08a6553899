"""The cells' gate arithmetic against frozen copies of its earlier form.

``RecurrentCell.step_pre`` is on the engine–accel bit-agreement
contract and feeds the delta cache and the Table 5 approximators, so
its output bits are pinned here to the bodies it replaced: one
sigmoid call per gate and out-of-place sums.  The frozen exact cell
also runs the frozen sigmoid of ``test_activations.py``.
"""

from dataclasses import fields

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.models import (
    EXACT_OPS,
    CellOps,
    ElmanCell,
    GRUCell,
    GRUState,
    LSTMCell,
    LSTMState,
)
from repro.skipping import APPROXIMATORS

from .test_activations import retained_sigmoid


def retained_lstm_step_pre(cell, zx, zh, state, ops=EXACT_OPS):
    """``LSTMCell.step_pre`` as it was: one sigmoid call per gate."""
    d = cell.hidden_dim
    z = zx
    z += zh
    z += cell.bias
    if ops.pre is not None:
        z = ops.pre(z)
    i = ops.sig(z[:, :d])
    f = ops.sig(z[:, d : 2 * d])
    g = ops.th(z[:, 2 * d : 3 * d])
    o = ops.sig(z[:, 3 * d :])
    c = ops.mul(f, state.c) + ops.mul(i, g)
    h = ops.mul(o, ops.th(c))
    return h, LSTMState(h, c)


def retained_gru_step_pre(cell, zx, zh, state, ops=EXACT_OPS):
    """``GRUCell.step_pre`` as it was: one sigmoid call per gate."""
    d = cell.hidden_dim
    zx += cell.bias
    if ops.pre is not None:
        zx, zh = ops.pre(zx), ops.pre(zh)
    r = ops.sig(zx[:, :d] + zh[:, :d])
    z = ops.sig(zx[:, d : 2 * d] + zh[:, d : 2 * d])
    n = ops.th(zx[:, 2 * d :] + ops.mul(r, zh[:, 2 * d :]))
    h = ops.mul(1.0 - z, n) + ops.mul(z, state.h)
    return h, GRUState(h)


def retained_elman_step_pre(cell, zx, zh, state, ops=EXACT_OPS):
    """``ElmanCell.step_pre`` as it was."""
    zx += zh
    zx += cell.bias
    if ops.pre is not None:
        zx = ops.pre(zx)
    h = ops.th(zx)
    return h, GRUState(h)


RETAINED = {
    LSTMCell: retained_lstm_step_pre,
    GRUCell: retained_gru_step_pre,
    ElmanCell: retained_elman_step_pre,
}
# the exact cell's oracle also runs the replaced sigmoid formula
ORACLE_EXACT_OPS = CellOps(sig=retained_sigmoid)
OPS = {"exact": EXACT_OPS} | {
    name: approx_cls().ops for name, approx_cls in sorted(APPROXIMATORS.items())
}


def _state_arrays(state):
    return [getattr(state, f.name) for f in fields(state)]


class TestStepPreMatchesRetainedBody:
    @given(
        cell_cls=st.sampled_from(sorted(RETAINED, key=lambda c: c.__name__)),
        ops_name=st.sampled_from(sorted(OPS)),
        rows=st.integers(1, 1100),
        hidden=st.sampled_from([1, 8, 32]),
        seed=st.integers(0, 10_000),
        workspace=st.booleans(),
    )
    @settings(max_examples=120, deadline=None)
    def test_bit_identical_and_unaliased(
        self, cell_cls, ops_name, rows, hidden, seed, workspace
    ):
        rng = np.random.default_rng(seed)
        cell = cell_cls(hidden, hidden, seed=seed)
        # a bias in every gate, so each sum's order shows in its bits
        cell.bias[:] = rng.standard_normal(cell.bias.shape)
        width = cell.w_x.shape[1]
        zx0 = rng.standard_normal((rows, width)).astype(np.float32) * 3
        zh0 = rng.standard_normal((rows, width)).astype(np.float32) * 3
        state = cell.init_state(rows)
        for arr in _state_arrays(state):
            arr[:] = rng.standard_normal(arr.shape)
        before = [arr.copy() for arr in _state_arrays(state)]
        if workspace:  # the engine hands two blocks of one scratch buffer
            buf = np.empty((2 * rows + 3, width), dtype=np.float32)
            zx, zh = buf[1 : rows + 1], buf[rows + 2 : 2 * rows + 2]
            zx[:], zh[:] = zx0, zh0
        else:
            zx, zh = zx0.copy(), zh0.copy()
        ops = OPS[ops_name]
        oracle_ops = ORACLE_EXACT_OPS if ops is EXACT_OPS else ops

        h, new = cell.step_pre(zx, zh, state, ops)
        want_h, want = RETAINED[cell_cls](
            cell, zx0.copy(), zh0.copy(), state, oracle_ops
        )

        assert h.tobytes() == want_h.tobytes()
        got_arrays, want_arrays = _state_arrays(new), _state_arrays(want)
        assert [a.tobytes() for a in got_arrays] == [
            a.tobytes() for a in want_arrays
        ]
        for out in [h, *got_arrays]:
            assert out.dtype == np.float32
            assert not np.shares_memory(out, zx)
            assert not np.shares_memory(out, zh)
        assert zh.tobytes() == zh0.tobytes()  # only read
        assert [a.tobytes() for a in _state_arrays(state)] == [
            a.tobytes() for a in before
        ]
