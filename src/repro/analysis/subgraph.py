"""Affected-subgraph extraction via DFS from stable roots.

Paper Section 3.1: stable vertices "serve as roots for a concurrent DFS
traversal" over the union topology of the window; every stable/affected
vertex reached is incorporated into the *affected subgraph*, which is the
unit TaGNN recomputes per snapshot (and stores in O-CSR).  Unaffected
vertices bound the traversal — the DFS never expands through them, which
is why the paper likens stable vertices to cut vertices.

Isolated affected components (e.g. a cluster of newly-arrived vertices
with no stable neighbour) are unreachable from any stable root; they are
added as extra roots afterwards so the subgraph is complete — correctness
requires *every* non-unaffected vertex to be recomputed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..check.shapes import contract
from ..formats.base import WindowSelection
from ..graphs.dynamic import DynamicGraph
from ..graphs.snapshot import PTR_DTYPE, VID_DTYPE
from .classify import VertexClass, WindowClassification, classify_window

__all__ = ["AffectedSubgraph", "extract_affected_subgraph", "union_adjacency"]


@contract("_ -> (m,) i64, (e,) i32")
def union_adjacency(window: DynamicGraph) -> tuple[np.ndarray, np.ndarray]:
    """CSR of the union of every snapshot's edges (deduplicated)."""
    n = window.num_vertices
    keys = []
    for s in window:
        src = np.repeat(np.arange(n, dtype=np.int64), s.degrees)
        keys.append(src * n + s.indices)
    # each snapshot's (src, dst) keys are already ascending, so a stable
    # sort of the concatenation is a merge of K sorted runs
    key = np.sort(np.concatenate(keys), kind="stable")
    keep = np.ones(key.shape, dtype=bool)
    np.not_equal(key[1:], key[:-1], out=keep[1:])
    key = key[keep]
    indptr = np.zeros(n + 1, dtype=PTR_DTYPE)
    np.cumsum(np.bincount(key // n, minlength=n), out=indptr[1:])
    return indptr, (key % n).astype(VID_DTYPE)


@dataclass
class AffectedSubgraph:
    """The affected subgraph of one window.

    Attributes
    ----------
    vertices:
        Sorted ids of every subgraph member (stable roots + affected).
    roots:
        The stable vertices used as DFS roots.
    dfs_order:
        Vertices in discovery order — the locality-friendly layout order
        the MSDL streams into O-CSR.
    classification:
        The window classification the extraction was based on.
    """

    window: DynamicGraph
    vertices: np.ndarray
    roots: np.ndarray
    dfs_order: np.ndarray
    classification: WindowClassification

    @property
    def num_vertices(self) -> int:
        return len(self.vertices)

    def selection(self) -> WindowSelection:
        """The :class:`WindowSelection` storing this subgraph (feeds
        O-CSR construction)."""
        return WindowSelection(self.window, self.vertices)

    def coverage_ok(self) -> bool:
        """Every stable/affected vertex must be in the subgraph."""
        need = self.classification.recompute_vertices()
        return np.array_equal(np.intersect1d(need, self.vertices), need)

    def stats(self) -> dict:
        c = self.classification.counts()
        return {
            "subgraph_vertices": self.num_vertices,
            "roots": len(self.roots),
            **c,
            "subgraph_fraction": self.num_vertices / self.window.num_vertices,
        }


def extract_affected_subgraph(
    window: DynamicGraph,
    classification: WindowClassification | None = None,
) -> AffectedSubgraph:
    """Run the stable-rooted DFS and return the affected subgraph."""
    if classification is None:
        classification = classify_window(window)
    labels = classification.labels
    n = window.num_vertices
    indptr, indices = union_adjacency(window)

    expandable = labels != VertexClass.UNAFFECTED  # stable or affected
    visited = np.zeros(n, dtype=bool)
    dfs_order: list[int] = []

    roots = np.flatnonzero(labels == VertexClass.STABLE)

    def dfs(root: int) -> None:
        stack = [root]
        visited[root] = True
        while stack:
            v = stack.pop()
            dfs_order.append(v)
            row = indices[indptr[v] : indptr[v + 1]]
            # push unvisited stable/affected neighbours (reverse order so
            # traversal visits ascending ids first, matching a hardware
            # TFSM scanning the row left to right)
            for u in row[::-1].tolist():
                if expandable[u] and not visited[u]:
                    visited[u] = True
                    stack.append(u)

    # stable roots first; an affected component no stable root reaches
    # is then rooted at its lowest id (and visited once)
    for r in np.concatenate([roots, np.flatnonzero(expandable)]).tolist():
        if not visited[r]:
            dfs(r)

    order = np.asarray(dfs_order, dtype=np.int64)
    return AffectedSubgraph(
        window=window,
        vertices=np.sort(order) if order.size else order,
        roots=roots,
        dfs_order=order,
        classification=classification,
    )
