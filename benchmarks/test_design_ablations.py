"""Ablations of this reproduction's own design choices (DESIGN.md).

Beyond the paper's figures, DESIGN.md calls out four load-bearing
decisions; each gets an ablation here so future changes cannot silently
invalidate them:

1. **Mean vs symmetric GCN normalisation** — under symmetric
   normalisation an unaffected vertex's output is *not* invariant (a
   neighbour's degree change leaks in), so the multi-snapshot GNN would
   be approximate instead of exact.
2. **Cosine-sharpness calibration** — without the affine stretch, the
   reservoir models' cosine distribution saturates near 1 and the
   paper's thresholds over-skip, costing accuracy.
3. **Per-batch refresh** — skipping without the window-boundary full
   update accumulates drift.
4. **Delta epsilon** — the condense threshold trades delta-path compute
   against exactness; the default keeps the path near-lossless.
"""

import numpy as np

from repro.analysis.similarity import similarity_scores
from repro.bench import (
    get_graph,
    get_labels,
    get_model,
    get_reference,
    render_table,
    save_result,
)
from repro.engine import ConcurrentEngine
from repro.models import evaluate_accuracy, fit_readout
from repro.skipping import condense, generate_delta


def build_normalization_ablation():
    """Error of reusing snapshot-0 GNN outputs for unaffected vertices,
    under mean vs symmetric normalisation."""
    from repro.analysis import classify_window

    g = get_graph("GT")
    w = g.window(0, 4)
    cls = classify_window(w)
    unaffected = cls.unaffected_mask & w[0].present
    x = w[0].features

    def sym_aggregate(snap, x):
        d = snap.degrees.astype(np.float64) + 1.0
        coeff = np.zeros_like(d)
        np.divide(1.0, np.sqrt(d), out=coeff, where=d > 0)
        coeff[~snap.present] = 0.0
        xs = x * coeff[:, None].astype(np.float32)
        out = np.zeros_like(xs)
        src = np.repeat(np.arange(snap.num_vertices), snap.degrees)
        np.add.at(out, src, xs[snap.indices])
        out += xs
        return out * coeff[:, None].astype(np.float32)

    rows = []
    for name, agg in (("mean", lambda s, x: s.aggregate(x)),
                      ("symmetric", sym_aggregate)):
        ref0 = agg(w[0], w[0].features)
        worst = 0.0
        for t in range(1, 4):
            out_t = agg(w[t], w[t].features)
            err = np.abs(out_t[unaffected] - ref0[unaffected])
            worst = max(worst, float(err.max()) if err.size else 0.0)
        rows.append([name, worst])
    return rows


def test_normalization_choice(benchmark):
    rows = benchmark.pedantic(build_normalization_ablation, rounds=1, iterations=1)
    text = render_table(
        "Design ablation: unaffected-vertex output invariance across a "
        "window, by GCN normalisation",
        ["normalisation", "max |output drift| on unaffected vertices"],
        rows,
        floatfmt="{:.2e}",
    )
    save_result("design_normalization", text)
    by = dict(rows)
    assert by["mean"] == 0.0  # exact invariance: OADL is an identity
    assert by["symmetric"] > 1e-4  # symmetric leaks neighbour-degree change


def build_sharpness_ablation():
    g = get_graph("FK")
    model = get_model("T-GCN", "FK")
    labels = get_labels("FK")
    ref = get_reference("T-GCN", "FK")
    readout = fit_readout(ref.outputs, labels, g)
    base = evaluate_accuracy(ref.outputs, labels, g, readout=readout)

    rows = []
    for sharp in (1.0, 10.0 / 3.0, 8.0):
        import repro.analysis.similarity as sim
        import repro.engine.concurrent as conc

        orig = sim.similarity_scores

        def patched(*args, _s=sharp, **kw):
            kw["sharpness"] = _s
            return orig(*args, **kw)

        conc.similarity_scores = patched
        try:
            res = ConcurrentEngine(model, window_size=4).run(g)
        finally:
            conc.similarity_scores = orig
        acc = evaluate_accuracy(res.outputs, labels, g, readout=readout)
        rows.append(
            [sharp, res.metrics.skip_ratio(), 100 * (base - acc)]
        )
    return rows


def test_sharpness_calibration(benchmark):
    rows = benchmark.pedantic(build_sharpness_ablation, rounds=1, iterations=1)
    text = render_table(
        "Design ablation: cosine sharpness vs skip ratio / accuracy loss "
        "(T-GCN on FK, thresholds [-0.5, 0.5])",
        ["sharpness", "skip ratio", "accuracy loss (pp)"],
        rows,
    )
    save_result("design_sharpness", text)
    # the patch reaches the engine's θ: each sharpness skips its own share
    assert len({skip for _, skip, _ in rows}) == 3, rows
    raw, default, steep = rows
    # raw cosine saturates -> over-skips and loses more accuracy
    assert raw[1] > default[1]
    assert raw[2] > default[2]
    # the default stays accurate
    assert default[2] < 1.5
    # steeper = more conservative (skips less), no worse accuracy
    assert steep[1] <= default[1] + 1e-9


def build_refresh_ablation():
    g = get_graph("FK")
    model = get_model("T-GCN", "FK")
    labels = get_labels("FK")
    ref = get_reference("T-GCN", "FK")
    readout = fit_readout(ref.outputs, labels, g)
    base = evaluate_accuracy(ref.outputs, labels, g, readout=readout)
    rows = []
    for refresh in (True, False):
        res = ConcurrentEngine(
            model, window_size=4, refresh_each_window=refresh
        ).run(g)
        acc = evaluate_accuracy(res.outputs, labels, g, readout=readout)
        saved = res.metrics.cell_macs_saved / max(
            res.metrics.cell_macs + res.metrics.cell_macs_saved, 1
        )
        rows.append([str(refresh), 100 * (base - acc), saved])
    return rows


def test_batch_refresh(benchmark):
    rows = benchmark.pedantic(build_refresh_ablation, rounds=1, iterations=1)
    text = render_table(
        "Design ablation: per-batch full refresh (the paper's per-batch "
        "recalculation) — T-GCN on FK",
        ["refresh each window", "accuracy loss (pp)", "cell MACs saved"],
        rows,
    )
    save_result("design_refresh", text)
    with_r, without_r = rows
    # refreshing bounds the drift; skipping it saves more compute but
    # costs accuracy — exactly the trade-off the paper resolves by
    # recalculating per batch
    assert with_r[1] < without_r[1]
    assert without_r[2] > with_r[2]
    assert with_r[1] < 1.5


def build_epsilon_ablation():
    g = get_graph("GT")
    model = get_model("T-GCN", "GT")
    zs = [model.gnn_forward(s) for s in g]
    rows = []
    for eps in (1e-4, 1e-3, 1e-2, 1e-1):
        nnz_frac, err = [], []
        for t in range(1, len(zs)):
            delta = generate_delta(zs[t], zs[t - 1], epsilon=eps)
            packed = condense(delta)
            nnz_frac.append(packed.density())
            err.append(
                np.abs((zs[t - 1] + delta) - zs[t]).max()
            )
        rows.append([eps, float(np.mean(nnz_frac)), float(np.max(err))])
    return rows


def test_delta_epsilon(benchmark):
    rows = benchmark.pedantic(build_epsilon_ablation, rounds=1, iterations=1)
    text = render_table(
        "Design ablation: condense-unit epsilon vs delta density and "
        "reconstruction error (T-GCN on GT)",
        ["epsilon", "mean nnz density", "max reconstruction error"],
        rows,
        floatfmt="{:.4g}",
    )
    save_result("design_epsilon", text)
    densities = [r[1] for r in rows]
    errors = [r[2] for r in rows]
    # larger epsilon -> sparser deltas but larger error (monotone both ways)
    assert densities == sorted(densities, reverse=True)
    assert errors == sorted(errors)
    # the default (1e-3) reconstructs to within its threshold
    assert rows[1][2] <= 1e-3 + 1e-9


def build_gspm_ablation():
    """GSPM strategy comparison: cut fraction (= extra traffic) per
    strategy, on an id-shuffled window so vertex ids carry no locality."""
    from repro.accel import GSPM
    from repro.graphs import CSRSnapshot, DynamicGraph

    g = get_graph("FK")
    w = g.window(0, 4)
    rng = np.random.default_rng(0)
    perm = rng.permutation(w.num_vertices)
    snaps = []
    for s in w:
        edges = perm[s.edge_array()]
        feats = np.zeros_like(s.features)
        feats[perm] = s.features
        present = np.zeros_like(s.present)
        present[perm] = s.present
        snaps.append(
            CSRSnapshot.from_edges(
                w.num_vertices, edges, feats, present=present, undirected=False
            )
        )
    shuffled = DynamicGraph(snaps)
    gspm = GSPM(shuffled, budget_words=400 * (shuffled.dim + 2))
    plans = gspm.compare_strategies()
    return [
        [name, plan.num_partitions, plan.cut_fraction(),
         plan.extra_words(shuffled.dim)]
        for name, plan in plans.items()
    ]


def test_gspm_strategies(benchmark):
    rows = benchmark.pedantic(build_gspm_ablation, rounds=1, iterations=1)
    text = render_table(
        "Design ablation: GSPM partitioning strategies (FK, id-shuffled, "
        "4-snapshot window)",
        ["strategy", "#partitions", "cut fraction", "extra words"],
        rows,
        floatfmt="{:.3f}",
    )
    save_result("design_gspm", text)
    by = {r[0]: r for r in rows}
    # the DFS-locality strategy minimises the cut -> the least extra
    # off-chip traffic when a window overflows the Feature Memory
    assert by["locality"][2] < by["range"][2]
    assert by["locality"][2] < by["balanced"][2]
