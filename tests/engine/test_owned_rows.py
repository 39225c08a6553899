"""An owned-row stream computes its rows exactly as the full engine does.

A shard reads whole snapshots but runs the last GCN layer, the cell
update, the similarity scores and the delta cache on the rows it owns
only (``StreamingInference(rows=...)``, carried as ``Carry.rows``).
The contract: stitch the owned rows of any partition's streams and the
result is the unrestricted engine's output, bit for bit — whatever the
partition, the model, the window size or the skipping mode.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import ConcurrentEngine, ReferenceEngine, StreamingInference
from repro.engine.concurrent import _owned_closure
from repro.models import MODEL_ZOO, make_model
from repro.models.zoo import GCLSTM

from .test_window_work import random_window, union_oracle

SNAPSHOTS = 7  # windows of 3 and 4 leave a trailing partial window


def released(stream, graph):
    outs = []
    for snap in graph:
        result = stream.push(snap.copy())
        if result is not None:
            outs.extend(result.outputs)
    result = stream.flush()
    if result is not None:
        outs.extend(result.outputs)
    return outs


def owner_map(seed: int, n: int, shards: int) -> np.ndarray:
    """Random ownership; from three shards up the last one owns nothing
    and the one before it exactly one row (the gemv-shaped product)."""
    rng = np.random.default_rng(seed)
    if shards < 3:
        return rng.integers(0, shards, n)
    owner = rng.integers(0, shards - 2, n)
    owner[rng.integers(n)] = shards - 2
    return owner


def shard_streams(make, graph, owner, shards, **kwargs):
    """One owned-row stream per shard, played over ``graph``: the
    stitched outputs and each stream's metrics."""
    stitched = None
    metrics = []
    for shard in range(shards):
        rows = np.flatnonzero(owner == shard)
        stream = StreamingInference(make(), rows=rows, **kwargs)
        outs = released(stream, graph)
        if stitched is None:
            stitched = [np.full_like(o, np.nan) for o in outs]
        for full, part in zip(stitched, outs):
            full[rows] = part[rows]
        metrics.append(stream.metrics)
    return stitched, metrics


def cells(m) -> int:
    return m.cells_full + m.cells_delta + m.cells_skipped


partitions = given(
    seed=st.integers(0, 10_000),
    model_name=st.sampled_from(sorted(MODEL_ZOO)),
    shards=st.sampled_from([1, 2, 3, 4, 8]),
    window=st.sampled_from([1, 3, 4]),
    skipping=st.booleans(),
    hidden=st.sampled_from([2, 8]),  # 2 < dim: the first layer shrinks
)


class TestStitchedEqualsFull:
    @partitions
    @settings(max_examples=120, deadline=None)
    def test_any_partition_any_model(
        self, seed, model_name, shards, window, skipping, hidden
    ):
        graph = random_window(seed, 24, SNAPSHOTS)
        owner = owner_map(seed, graph.num_vertices, shards)

        def make():
            return make_model(model_name, graph.dim, hidden, seed=seed)

        full = ConcurrentEngine(
            make(), window_size=window, enable_skipping=skipping
        ).run(graph)
        stitched, metrics = shard_streams(
            make, graph, owner, shards,
            window_size=window, enable_skipping=skipping,
        )
        assert len(stitched) == SNAPSHOTS
        for got, want in zip(stitched, full.outputs):
            assert got.tobytes() == want.tobytes()
        if not skipping:
            exact = ReferenceEngine(make(), window_size=window).run(graph)
            for got, want in zip(stitched, exact.outputs):
                assert got.tobytes() == want.tobytes()

        # the per-row work is partitioned: over the shards it adds up
        # to the single stream's — unless the cell reads its neighbours'
        # state, when every shard does all of it
        scale = shards if MODEL_ZOO[model_name].cell_reads_neighbours else 1
        one = full.metrics
        assert sum(map(cells, metrics)) == scale * cells(one)
        assert sum(m.cell_macs for m in metrics) == scale * one.cell_macs
        assert sum(m.output_words for m in metrics) == scale * one.output_words
        # the replicated part stays per shard
        assert {m.snapshots_processed for m in metrics} == {SNAPSHOTS}
        assert {m.windows_processed for m in metrics} == {one.windows_processed}

    @pytest.mark.parametrize("model_name", ["T-GCN", "CD-GCN", "GCRN"])
    def test_a_one_row_shard_at_gemv_width(self, model_name):
        """From an inner dimension of 64 BLAS rounds a one-row product
        (gemv) differently from the gemm a taller one gets; the shard
        owning one row must still release the full engine's bits."""
        graph = random_window(7, 40, 5, dim=64)
        owner = np.zeros(graph.num_vertices, dtype=np.int64)
        lone = int(np.flatnonzero(graph[0].present & (graph[0].degrees > 0))[0])
        owner[lone] = 1

        def make():
            return make_model(model_name, 64, 64, seed=1)

        full = ConcurrentEngine(make(), window_size=4).run(graph)
        stitched, _ = shard_streams(make, graph, owner, 2, window_size=4)
        for got, want in zip(stitched, full.outputs):
            assert got.tobytes() == want.tobytes()


class TestNeighbourReadingCell:
    def test_gclstm_declares_it_and_runs_every_row(self):
        assert GCLSTM.cell_reads_neighbours
        graph = random_window(3, 24, SNAPSHOTS)
        rows = np.arange(0, graph.num_vertices, 3)
        full = StreamingInference(
            make_model("GC-LSTM", graph.dim, 8, seed=3), window_size=3
        )
        owned = StreamingInference(
            make_model("GC-LSTM", graph.dim, 8, seed=3), window_size=3, rows=rows
        )
        for got, want in zip(released(owned, graph), released(full, graph)):
            assert got.tobytes() == want.tobytes()  # every row, not just owned
        assert owned.metrics.as_dict() == full.metrics.as_dict()

    def test_the_declaration_is_load_bearing(self):
        """Without it the convolved recurrent state of an owned row
        reads neighbours the shard stopped updating."""

        class Undeclared(GCLSTM):
            cell_reads_neighbours = False

        graph = random_window(3, 24, SNAPSHOTS)
        owner = owner_map(3, graph.num_vertices, 2)
        full = ConcurrentEngine(
            GCLSTM(graph.dim, 8, seed=3), window_size=3
        ).run(graph)
        stitched, _ = shard_streams(
            lambda: Undeclared(graph.dim, 8, seed=3), graph, owner, 2,
            window_size=3,
        )
        assert any(
            got.tobytes() != want.tobytes()
            for got, want in zip(stitched, full.outputs)
        )


class TestOwnedClosure:
    @given(
        seed=st.integers(0, 10_000),
        n=st.integers(1, 40),
        k=st.sampled_from([1, 2, 4]),
        share=st.sampled_from([0.0, 0.1, 0.5, 1.0]),
    )
    @settings(max_examples=150, deadline=None)
    def test_equals_the_closure_over_the_union_adjacency(self, seed, n, k, share):
        window = random_window(seed, n, k)
        owned = np.flatnonzero(np.random.default_rng(seed).random(n) < share)
        u_indptr, u_indices = union_oracle(window)
        for layers in (1, 2, 3):
            need = _owned_closure(window, owned, layers)
            assert len(need) == layers
            want = set(owned.tolist())
            for rows in reversed(need):  # last layer first
                assert rows.tolist() == sorted(want)
                want = want.union(
                    *(u_indices[u_indptr[v] : u_indptr[v + 1]].tolist() for v in want)
                )

    def test_every_row_when_nothing_is_owned_in_particular(self):
        window = random_window(1, 10, 2)
        assert _owned_closure(window, None, 3) == [None, None, None]


class TestOwnership:
    def test_rows_are_normalised_and_checked(self):
        model = make_model("T-GCN", 3, 8, seed=0)
        stream = StreamingInference(model, rows=[5, 2, 2, 9])
        assert stream.rows.tolist() == [2, 5, 9]
        assert StreamingInference(model).rows is None
        with pytest.raises(ValueError, match=">= 0"):
            StreamingInference(model, rows=[-1, 3])
        graph = random_window(1, 8, 1)
        with pytest.raises(ValueError, match="outside"):
            stream.push(graph[0])

    def test_a_carry_must_cover_the_rows_the_stream_owns(self):
        graph = random_window(2, 24, SNAPSHOTS)

        def stream(rows):
            return StreamingInference(
                make_model("T-GCN", graph.dim, 8, seed=2), window_size=3, rows=rows
            )

        expected = released(stream(None), graph)
        head, tail = list(graph)[:3], list(graph)[3:]
        a = stream(np.arange(0, 12))
        for snap in head:
            a.push(snap.copy())
        for rows in (np.arange(6, 18), None):  # not covered by 0..11
            with pytest.raises(ValueError, match="does not cover"):
                stream(rows).restore_carry(a.carry_state())
        # a subset resumes, and so does any ownership from a full carry
        whole = stream(None)
        for snap in head:
            whole.push(snap.copy())
        for source, rows in ((a, np.arange(2, 9)), (whole, np.arange(6, 18))):
            resumed = stream(rows)
            resumed.restore_carry(source.carry_state())
            assert resumed.rows.tolist() == rows.tolist()
            late = released(resumed, tail)
            for got, want in zip(late, expected[3:]):
                assert got[rows].tobytes() == want[rows].tobytes()
