"""Partition sensitivity sweep (the paper's Fig.-14 experiment).

The GSPM cut-fraction sweep over on-chip budgets — the topology-aware
DFS strategy must beat naive vertex ranges at every budget that forces
multiple partitions, with the exact fractions pinned for fixed seeds so
a silent regression in any strategy shows up as a number change, not
just a flipped inequality.
"""

import numpy as np
import pytest

from repro.accel import GSPM
from repro.graphs import (
    CSRSnapshot,
    DynamicGraph,
    DynamicGraphSpec,
    generate_dynamic_graph,
)


@pytest.fixture(scope="module")
def shuffled_window():
    """A generated window with vertex ids shuffled so id-ranges carry no
    accidental locality (Chung-Lu ids correlate with degree)."""
    g = generate_dynamic_graph(
        DynamicGraphSpec(
            name="sweep", num_vertices=160, num_edges=520, dim=4,
            num_snapshots=3, seed=11,
        )
    )
    w = g.window(0, 3)
    rng = np.random.default_rng(7)
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
                w.num_vertices, edges, feats,
                present=present, undirected=False,
            )
        )
    return DynamicGraph(snaps)


#: budget (in staged vertices) -> pinned cut fractions for seed 11/7.
_PINNED_SWEEP = {
    20: {"range": 0.8767, "balanced": 0.8994, "locality": 0.7742},
    40: {"range": 0.7438, "balanced": 0.7628, "locality": 0.6850},
    80: {"range": 0.5104, "balanced": 0.4706, "locality": 0.4668},
    160: {"range": 0.0, "balanced": 0.0, "locality": 0.0},
}


def _sweep(window):
    wpv = window.dim + 2
    out = {}
    for budget_vertices in sorted(_PINNED_SWEEP):
        gspm = GSPM(window, budget_words=budget_vertices * wpv)
        out[budget_vertices] = {
            name: plan.cut_fraction()
            for name, plan in gspm.compare_strategies().items()
        }
    return out

def test_cut_fraction_sweep_is_pinned(shuffled_window):
    got = _sweep(shuffled_window)
    for budget, pinned in _PINNED_SWEEP.items():
        for name, frac in pinned.items():
            assert got[budget][name] == pytest.approx(frac, abs=5e-5), (
                f"budget={budget} strategy={name}"
            )


def test_locality_beats_range_at_every_forced_split(shuffled_window):
    got = _sweep(shuffled_window)
    for budget, fracs in got.items():
        if fracs["range"] > 0.0:  # multiple partitions were forced
            assert fracs["locality"] < fracs["range"], f"budget={budget}"


def test_cut_shrinks_as_budget_grows(shuffled_window):
    got = _sweep(shuffled_window)
    budgets = sorted(got)
    for name in ("range", "balanced", "locality"):
        series = [got[b][name] for b in budgets]
        assert series == sorted(series, reverse=True), name
