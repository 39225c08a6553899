"""A narrow GCN layer is exact, whole-graph and sharded.

``x[idx] @ W`` can round differently from ``(x @ W)[idx]`` when ``W``
has fewer than 8 columns, so an engine that multiplies a gathered row
subset where the reference multiplies every row releases other bits.
The named case: one shrinking GCN layer ``[d, w]`` with an Elman cell of
width ``w``, skipping off, on the GT generator's seed-11 stream of 12
snapshots at churn ×0.1 and ×0.25 with no vertex turnover.  At w = 1–7
every width but 4 once differed from the reference in 32 to 357
elements, whole-graph and at 4 shards.
"""

from dataclasses import replace
from functools import lru_cache

import numpy as np
import pytest

from repro.engine import ConcurrentEngine, ReferenceEngine
from repro.graphs import dataset_spec, generate_dynamic_graph
from repro.models import DGNNModel, ElmanCell, GCNStack

from .test_owned_rows import owner_map, shard_streams

SEED, SNAPSHOTS, K, SHARDS = 11, 12, 4, 4


@lru_cache(maxsize=None)
def _graph(churn):
    spec = dataset_spec("GT", num_snapshots=SNAPSHOTS, seed=SEED)
    config = replace(
        spec.churn.scaled(churn),
        vertex_arrival_frac=0.0,
        vertex_departure_frac=0.0,
    )
    return generate_dynamic_graph(replace(spec, churn=config))


@lru_cache(maxsize=None)
def _reference(churn, width):
    graph = _graph(churn)
    result = ReferenceEngine(_model(graph.dim, width), window_size=K).run(graph)
    return [o.tobytes() for o in result.outputs]


def _model(dim, width):
    return DGNNModel(
        GCNStack([dim, width], seed=1), ElmanCell(width, width, seed=2)
    )


@pytest.mark.parametrize("churn", [0.1, 0.25])
@pytest.mark.parametrize("width", range(1, 8))
class TestNarrowWidthsAreExact:
    def test_whole_graph(self, churn, width):
        graph = _graph(churn)
        engine = ConcurrentEngine(
            _model(graph.dim, width), window_size=K, enable_skipping=False
        )
        got = engine.run(graph).outputs
        assert [o.tobytes() for o in got] == _reference(churn, width)

    def test_at_four_shards(self, churn, width):
        graph = _graph(churn)
        owner = owner_map(SEED, graph.num_vertices, SHARDS)
        stitched, _ = shard_streams(
            lambda: _model(graph.dim, width),
            graph,
            owner,
            SHARDS,
            window_size=K,
            enable_skipping=False,
        )
        assert [o.tobytes() for o in stitched] == _reference(churn, width)
