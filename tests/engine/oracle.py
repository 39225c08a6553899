"""The skipping engine written from the paper's definitions.

Per K-snapshot window, and per snapshot in it:

* **labels** — AFFECTED if the row arrives, departs or changes features
  inside the window; UNAFFECTED if it is absent throughout, or its
  features, neighbour lists and neighbours' features are all equal
  across the window; STABLE otherwise (plain equality throughout).
* **scored rows** — present now and before, and not UNAFFECTED; an
  arrival takes FULL.  The pair across a window boundary is scored only
  when the window does not refresh; else, as at the stream's first
  snapshot, every present row takes FULL.
* **θ** — the stretched, clipped cosine of the two GNN outputs times the
  stable share of the row's common neighbours (none: 1 if both lists are
  empty, else 0).  θ > θ_e is SKIP, θ_s ≤ θ ≤ θ_e DELTA, else FULL.
* **updates** — FULL refreshes the cached ``x @ w_x``, ``drive @ w_h``
  and input; DELTA moves the cached input block by the ε-thresholded
  delta and keeps the cached ``drive @ w_h``; an identity cell sends
  DELTA to FULL; SKIP and unaffected rows keep output and state.

It shares only the arithmetic that fixes the bits: the model's
``gnn_forward`` and ``recurrent_drive``, ``cosine_rows``,
``_matmul_rows``, ``generate_delta`` and the cell's ``step_pre``.  A
snapshot's FULL rows are multiplied as one block and its DELTA rows as
another, in ascending id order.
"""

from types import SimpleNamespace

import numpy as np

from repro.analysis.similarity import COSINE_SHARPNESS, cosine_rows
from repro.models.layers import _matmul_rows
from repro.models.rnn import GRUState, IdentityCell
from repro.skipping.delta import generate_delta

UNAFFECTED, STABLE, AFFECTED = 0, 1, 2
FULL, DELTA, SKIP = 0, 1, 2


def neighbours(snap, v) -> np.ndarray:
    return snap.indices[snap.indptr[v] : snap.indptr[v + 1]]


def labels(snaps) -> np.ndarray:
    first, n = snaps[0], snaps[0].num_vertices
    kept = np.array([  # present throughout, features unchanged
        all(s.present[v] and (s.features[v] == first.features[v]).all() for s in snaps)
        for v in range(n)
    ])
    out = np.full(n, AFFECTED)
    for v in range(n):
        if not any(s.present[v] for s in snaps):
            out[v] = UNAFFECTED
        elif kept[v]:
            lists = [neighbours(s, v) for s in snaps]
            same = all(np.array_equal(l, lists[0]) for l in lists)
            out[v] = UNAFFECTED if same and kept[lists[0]].all() else STABLE
    return out


def theta(z_prev, z, prev, cur, rows) -> np.ndarray:
    cos = cosine_rows(z_prev[rows], z[rows])
    cos = np.clip(1.0 - COSINE_SHARPNESS * (1.0 - cos), -1.0, 1.0)
    stable = (prev.features == cur.features).all(axis=1) & prev.present & cur.present
    weight = np.empty(len(rows))
    for i, v in enumerate(rows):
        a, b = neighbours(prev, v), neighbours(cur, v)
        common = np.intersect1d(a, b)
        if len(common):
            weight[i] = np.count_nonzero(stable[common]) / len(common)
        else:
            weight[i] = 1.0 if len(a) == len(b) == 0 else 0.0
    return np.clip(cos * weight, -1.0, 1.0)


def full_update(model, cache, z, state, snap, rows):
    if cache is None:  # identity cell: the output is the GNN's
        h = z[rows].astype(np.float32)
        return h, GRUState(h.copy())
    cell = model.cell
    zx = _matmul_rows(z[rows], cell.w_x)
    zh = _matmul_rows(model.recurrent_drive(state, snap, rows), cell.w_h)
    cache.zx[rows], cache.zh[rows], cache.z_input[rows] = zx, zh, z[rows]
    return cell.step_pre(zx, zh, state.take(rows))


def delta_update(model, cache, z, state, rows, epsilon):
    delta = generate_delta(z[rows], cache.z_input[rows], epsilon=epsilon)
    zx = cache.zx[rows] + _matmul_rows(delta, model.cell.w_x)
    cache.zx[rows] = zx
    cache.z_input[rows] += delta
    return model.cell.step_pre(zx, cache.zh[rows], state.take(rows))


def run(
    model, graph, *, window_size, thresholds=(-0.5, 0.5), epsilon=1e-3,
    refresh_each_window=True,
):
    """``(outputs, decisions, carry)``: one output per snapshot, per
    scored snapshot its ``(vertices, modes, theta)``, and what the last
    snapshot hands on (``h_prev``, ``z_prev``, ``state``, ``cache``)."""
    theta_s, theta_e = thresholds
    n, cell = graph.num_vertices, model.cell
    state = model.init_state(n)
    h = np.zeros((n, model.out_dim), dtype=np.float32)
    cache = None if isinstance(cell, IdentityCell) else SimpleNamespace(
        zx=np.zeros((n, cell.w_x.shape[1]), dtype=np.float32),
        zh=np.zeros((n, cell.w_h.shape[1]), dtype=np.float32),
        z_input=np.zeros((n, cell.input_dim), dtype=np.float32),
    )
    z_prev = prev = None
    outputs, decisions = [], []
    for w, start in enumerate(range(0, graph.num_snapshots, window_size)):
        snaps = graph.snapshots[start : start + window_size]
        if hasattr(model, "advance_window"):
            model.advance_window(w)
        window_labels = labels(snaps)
        for t, snap in enumerate(snaps):
            z = model.gnn_forward(snap)
            if prev is None or (t == 0 and refresh_each_window):
                full, delta = np.flatnonzero(snap.present), []
            else:
                scored = np.flatnonzero(
                    snap.present & prev.present & (window_labels != UNAFFECTED)
                )
                th = theta(z_prev, z, prev, snap, scored)
                modes = np.full(len(scored), FULL)
                modes[(th >= theta_s) & (th <= theta_e)] = DELTA
                modes[th > theta_e] = SKIP
                decisions.append((scored, modes, th))
                arrivals = np.flatnonzero(snap.present & ~prev.present)
                full = np.union1d(scored[modes == FULL], arrivals)
                delta = scored[modes == DELTA]
                if cache is None:
                    full, delta = np.union1d(full, delta), []
            h, old, state = h.copy(), state, state.copy()
            if len(full):
                h[full], part = full_update(model, cache, z, old, snap, full)
                state.put(full, part)
            if len(delta):
                h[delta], part = delta_update(model, cache, z, old, delta, epsilon)
                state.put(delta, part)
            outputs.append(h)
            z_prev, prev = z, snap
    carry = SimpleNamespace(h_prev=h, z_prev=z_prev, state=state, cache=cache)
    return outputs, decisions, carry
