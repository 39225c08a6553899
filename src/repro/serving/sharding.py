"""Vertex ownership for the sharded serving cluster.

The cluster follows a *replicated-reads, partitioned-compute* design —
the division of labour of the paper's GSPM, which hands each compute
unit a vertex partition whose rows it computes while it merely reads
its neighbours' features.  Every shard receives every tenant's whole
snapshots (structure and features are replicated, so no shard ever
waits on a remote neighbour to aggregate), but runs the engine's
per-row work — the last GCN layer, the cell update, the similarity
scores — for the vertices it **owns** only
(:attr:`repro.engine.carry.Carry.rows`), and is authoritative for
exactly those embedding rows.  The aggregator stitches one full output
matrix per timestamp from the owned rows of every shard, so a shard
that recovered incorrectly would produce divergent rows — recovery
correctness is observable, not assumed.

Ownership comes from :class:`~repro.accel.partition.GSPM` — the same
topology-aware partitioner the accelerator uses for on-chip staging —
so locality-ordered shards co-locate DFS neighbours and minimise the
cut.  A cut edge is one remote feature row a shard reads to compute an
owned row of a one-layer model: ``boundary_words`` (cut edges × width,
the counter of :class:`~repro.engine.metrics.ExecutionMetrics`) is the
traffic a deployment that did *not* replicate the features would pay
per stitched timestamp.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..accel.partition import GSPM, PartitionStrategy
from ..graphs.dynamic import DynamicGraph

__all__ = ["ShardMap"]


@dataclass(frozen=True)
class ShardMap:
    """Authoritative vertex → shard assignment for one cluster."""

    num_shards: int
    num_vertices: int
    owner: np.ndarray  # int64[num_vertices], values in [0, num_shards)
    cut_edges: int  # edges whose endpoints live on different shards
    _rows: list = field(init=False, repr=False, compare=False)
    _active: list = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.num_shards < 1:
            raise ValueError(
                f"num_shards must be >= 1, got {self.num_shards}"
            )
        if self.num_vertices < 1:
            raise ValueError(
                f"num_vertices must be >= 1, got {self.num_vertices}"
            )
        if self.cut_edges < 0:
            raise ValueError(f"cut_edges must be >= 0, got {self.cut_edges}")
        owner = np.asarray(self.owner, dtype=np.int64)
        if owner.shape != (self.num_vertices,):
            raise ValueError(
                f"owner must have shape ({self.num_vertices},),"
                f" got {owner.shape}"
            )
        if owner.size and (owner.min() < 0 or owner.max() >= self.num_shards):
            raise ValueError(
                "owner entries must lie in"
                f" [0, {self.num_shards}), got"
                f" [{owner.min()}, {owner.max()}]"
            )
        object.__setattr__(self, "owner", owner)
        # every lookup below is per result, per shard and per tick on
        # the serving path: computed once, handed out read-only
        rows = [np.flatnonzero(owner == s) for s in range(self.num_shards)]
        for block in rows:
            block.flags.writeable = False
        object.__setattr__(self, "_rows", rows)
        object.__setattr__(
            self, "_active", [s for s, block in enumerate(rows) if block.size]
        )

    # ------------------------------------------------------------------
    @classmethod
    def build(
        cls,
        window: DynamicGraph,
        num_shards: int,
        *,
        strategy: PartitionStrategy = PartitionStrategy.LOCALITY,
    ) -> "ShardMap":
        """Partition ``window``'s vertex set into ``num_shards`` blocks.

        The GSPM budget is sized so the chosen strategy yields at most
        ``num_shards`` blocks over all vertices; when the partitioner
        produces fewer (tiny graphs), the remaining shards own no rows
        and compute none.
        """
        n = window.num_vertices
        if not 1 <= num_shards <= n:
            raise ValueError(
                f"num_shards must be in [1, {n}], got {num_shards}"
            )
        per_shard = -(-n // num_shards)  # ceil
        gspm = GSPM(
            window, budget_words=per_shard * (window.dim + 2)
        )
        plan = gspm.plan(strategy, vertices=np.arange(n, dtype=np.int64))
        owner = np.full(n, -1, dtype=np.int64)
        for part in plan.partitions:
            owner[part.vertices] = part.index
        return cls(
            num_shards=num_shards,
            num_vertices=n,
            owner=owner,
            cut_edges=plan.total_cut_edges,
        )

    # ------------------------------------------------------------------
    def rows(self, shard: int) -> np.ndarray:
        """Sorted vertex ids owned by ``shard`` (read-only)."""
        if not 0 <= shard < self.num_shards:
            raise ValueError(
                f"shard must be in [0, {self.num_shards}), got {shard}"
            )
        return self._rows[shard]

    def active_shards(self) -> list[int]:
        """Shards owning at least one vertex (the aggregation quorum)."""
        return list(self._active)

    def boundary_words(self, dim: int) -> int:
        """Remote words read per stitched timestamp: one ``dim``-wide
        row per cut edge (the remote endpoint's feature, which a shard
        computing its owned rows of a one-layer model reads)."""
        if dim < 1:
            raise ValueError(f"dim must be >= 1, got {dim}")
        return self.cut_edges * dim

    def stitch(self, parts: dict) -> np.ndarray:
        """Assemble one full output matrix from per-shard owned rows.

        ``parts`` maps shard index → that shard's owned-row block (in
        :meth:`rows` order).  Every active shard must contribute.
        """
        missing = [s for s in self.active_shards() if s not in parts]
        if missing:
            raise ValueError(f"missing contributions from shards {missing}")
        first = parts[self.active_shards()[0]]
        out = np.empty((self.num_vertices,) + first.shape[1:], first.dtype)
        for shard in self.active_shards():
            out[self.rows(shard)] = parts[shard]
        return out
