"""Compute-unit models: MAC arrays, adder trees, similarity cores.

These are throughput models: each unit converts an operation count into
busy cycles given its parallel width and clock.  The DCU composes a MAC
array (CPE — combination) with adder trees (APE — aggregation); the
Adaptive RNN Unit composes similarity cores with MAC arrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = ["MACArray", "AdderTree", "SimilarityCore"]


@dataclass(frozen=True)
class MACArray:
    """An array of multiply-accumulate units (the CPE fabric).

    ``num_macs`` MACs retire that many multiply-accumulates per cycle at
    full utilisation; ``efficiency`` derates for drain/stall effects.
    """

    num_macs: int
    efficiency: float = 0.9

    def __post_init__(self) -> None:
        if self.num_macs < 1:
            raise ValueError("need at least one MAC")
        if not 0 < self.efficiency <= 1:
            raise ValueError("efficiency in (0, 1]")

    def cycles(self, macs: float) -> float:
        """Busy cycles to retire ``macs`` multiply-accumulates."""
        if macs < 0:
            raise ValueError("macs must be non-negative")
        return macs / (self.num_macs * self.efficiency)

    def matmul_cycles(self, n: int, k: int, m: int) -> float:
        """Cycles for an (n,k) @ (k,m) row-wise matrix multiply."""
        return self.cycles(n * k * m)


@dataclass(frozen=True)
class AdderTree:
    """A parallel adder tree (the APE fabric).

    ``width`` leaves sum ``width`` operands per invocation with
    ``ceil(log2 width)`` pipeline depth; ``count`` trees run in parallel.
    """

    width: int = 16
    count: int = 128

    def __post_init__(self) -> None:
        if self.width < 2 or self.count < 1:
            raise ValueError("width >= 2 and count >= 1 required")

    @property
    def depth(self) -> int:
        return int(math.ceil(math.log2(self.width)))

    def cycles(self, additions: float) -> float:
        """Busy cycles to perform ``additions`` scalar additions (the
        trees are pipelined, so throughput is width*count adds/cycle)."""
        if additions < 0:
            raise ValueError("additions must be non-negative")
        per_cycle = self.width * self.count
        if additions == 0:
            return 0.0
        return additions / per_cycle + self.depth  # + drain of the tree

    def aggregate_cycles(self, num_edges: int, dim: int) -> float:
        """Cycles to aggregate ``num_edges`` neighbour vectors of width
        ``dim`` (one add per edge per component)."""
        return self.cycles(float(num_edges) * dim)


@dataclass(frozen=True)
class SimilarityCore:
    """One Similarity Core Unit (SCU) of the Adaptive RNN Unit.

    Its multi-stage datapath (dot product → normalisation → topological
    overlap → stability weighting, Section 4.2) is fully pipelined: a
    vertex with feature width ``dim`` and ``common`` common neighbours
    occupies the unit for ``dim/lanes`` cycles for the vector stages and
    ``common/lanes`` for the set-intersection stage, whichever dominates.
    """

    lanes: int = 16
    count: int = 8

    def __post_init__(self) -> None:
        if self.lanes < 1 or self.count < 1:
            raise ValueError("lanes >= 1 and count >= 1 required")

    def cycles(self, num_vertices: int, dim: int, avg_common: float) -> float:
        """Busy cycles for a batch of scored vertices across all cores."""
        if num_vertices < 0:
            raise ValueError("num_vertices must be non-negative")
        if num_vertices == 0:
            return 0.0
        per_vertex_ii = max(dim, avg_common) / self.lanes + 1
        return (num_vertices / self.count) * per_vertex_ii + 4
