"""Unit tests for the per-batch refresh design flag."""

import numpy as np
import pytest

from repro.engine import ConcurrentEngine, ReferenceEngine, StreamingInference
from repro.graphs import load_dataset
from repro.models import make_model

from .test_engine_properties import random_graph
from .test_owned_rows import cells, owner_map, released


class TestRefreshFlag:
    def test_no_refresh_skips_more(self):
        g = load_dataset("GT", num_snapshots=8)
        with_r = ConcurrentEngine(
            make_model("T-GCN", g.dim, 16, seed=1), window_size=4
        ).run(g)
        without_r = ConcurrentEngine(
            make_model("T-GCN", g.dim, 16, seed=1),
            window_size=4,
            refresh_each_window=False,
        ).run(g)
        assert without_r.metrics.cells_full < with_r.metrics.cells_full
        assert without_r.metrics.cells_skipped > with_r.metrics.cells_skipped

    def test_no_refresh_drifts_more(self):
        g = load_dataset("GT", num_snapshots=8)
        ref = ReferenceEngine(
            make_model("T-GCN", g.dim, 16, seed=1), window_size=4
        ).run(g)

        def err(refresh):
            res = ConcurrentEngine(
                make_model("T-GCN", g.dim, 16, seed=1),
                window_size=4,
                refresh_each_window=refresh,
            ).run(g)
            return np.mean(
                [np.abs(a - b).mean() for a, b in zip(res.outputs, ref.outputs)]
            )

        assert err(False) > err(True)

    def test_exactness_unaffected_by_flag_when_not_skipping(self):
        g = load_dataset("GT", num_snapshots=8)
        ref = ReferenceEngine(
            make_model("T-GCN", g.dim, 16, seed=1), window_size=4
        ).run(g)
        res = ConcurrentEngine(
            make_model("T-GCN", g.dim, 16, seed=1),
            window_size=4,
            enable_skipping=False,
            refresh_each_window=False,
        ).run(g)
        for a, b in zip(ref.outputs, res.outputs):
            np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("refresh", [True, False], ids=["refresh", "carried"])
    @pytest.mark.parametrize("seed", range(6))
    def test_each_present_row_is_counted_once(self, seed, refresh):
        """A row takes one of FULL, DELTA or SKIP at every snapshot it is
        present in.  Without the refresh, a row unaffected inside a
        window but absent from the carried snapshot is an arrival: FULL,
        and not also skipped."""
        g = random_graph(seed, t=9, churn_scale=0.25, turnover=0.05)
        run = ConcurrentEngine(
            make_model("T-GCN", g.dim, 16, seed=seed), window_size=4,
            refresh_each_window=refresh,
        ).run(g)
        assert cells(run.metrics) == sum(s.num_present for s in g)
        owner = owner_map(seed, g.num_vertices, 2)
        for shard in range(2):
            rows = np.flatnonzero(owner == shard)
            stream = StreamingInference(
                make_model("T-GCN", g.dim, 16, seed=seed), window_size=4,
                rows=rows,
            )
            stream._engine.refresh_each_window = refresh
            released(stream, g)
            assert cells(stream.metrics) == sum(
                int(s.present[rows].sum()) for s in g
            )
