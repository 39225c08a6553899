"""CSR graph snapshots — the basic unit of a dynamic graph.

A :class:`CSRSnapshot` is one timestamped observation of an evolving graph,
stored in Compressed Sparse Row form over a *global* vertex-id space shared
by every snapshot of the same dynamic graph.  Vertices that are absent from
a snapshot keep their id (so ids are stable across time) but are flagged off
in the ``present`` mask and have empty adjacency rows.

The paper stores each snapshot in CSR (Section 2.1) and drives both the GNN
aggregation and the vertex-classification pipelines off this layout, so all
hot paths here are vectorised NumPy on the raw ``indptr``/``indices`` arrays
(per the HPC guide: no per-vertex Python loops, contiguous reads, views not
copies).
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

from ..check.shapes import contract

__all__ = [
    "CSRSnapshot",
    "FEAT_DTYPE",
    "PTR_DTYPE",
    "VID_DTYPE",
    "build_csr",
    "degrees_from_indptr",
    "segment_sum",
]

# dtype conventions used across the whole package
VID_DTYPE = np.int32  # vertex ids
PTR_DTYPE = np.int64  # CSR row pointers
FEAT_DTYPE = np.float32  # vertex features

#: a snapshot's arrays, in field order
_ARRAYS = ("indptr", "indices", "features", "present")


# src/dst carry independent symbols (and any dtype) on purpose: the body
# owns the equal-length ValueError and the asarray coercion, and the
# empty-graph idiom passes float64 ``np.array([])``.  dedup can shrink
# indices below the input edge count, hence the free return dim.
@contract("n, (e,) ?, (m,) ? -> (n+1,) i64, (*,) i32")
def build_csr(
    num_vertices: int,
    src: np.ndarray,
    dst: np.ndarray,
    *,
    dedup: bool = True,
) -> tuple[np.ndarray, np.ndarray]:
    """Build sorted CSR (``indptr``, ``indices``) from an edge list.

    Edges are directed ``src -> dst``; callers wanting an undirected graph
    pass both orientations.  Neighbour lists come out sorted ascending,
    which the rest of the package relies on for O(deg) set algebra
    (`np.intersect1d` on sorted rows, vectorised row comparisons).

    Parameters
    ----------
    num_vertices:
        Size of the global vertex-id space.
    src, dst:
        Equal-length integer arrays of endpoints; ids must lie in
        ``[0, num_vertices)``.
    dedup:
        Drop duplicate ``(src, dst)`` pairs (the default; snapshots are
        simple graphs in the paper's datasets).

    Returns
    -------
    (indptr, indices):
        ``indptr`` has length ``num_vertices + 1`` and dtype int64;
        ``indices`` holds sorted neighbour ids with dtype int32.
    """
    src = np.asarray(src, dtype=np.int64)
    dst = np.asarray(dst, dtype=np.int64)
    if src.shape != dst.shape:
        raise ValueError(f"src/dst length mismatch: {src.shape} vs {dst.shape}")
    if src.size:
        lo = min(src.min(), dst.min())
        hi = max(src.max(), dst.max())
        if lo < 0 or hi >= num_vertices:
            raise ValueError(
                f"edge endpoint out of range [0, {num_vertices}): min={lo} max={hi}"
            )
    # Sort by (src, dst) via a single composite key — one O(m log m) pass.
    key = src * np.int64(num_vertices) + dst
    order = np.argsort(key, kind="stable")
    key = key[order]
    if dedup and key.size:
        keep = np.empty(key.shape, dtype=bool)
        keep[0] = True
        np.not_equal(key[1:], key[:-1], out=keep[1:])
        key = key[keep]
    counts = np.bincount(key // num_vertices, minlength=num_vertices) if key.size else (
        np.zeros(num_vertices, dtype=np.int64)
    )
    indptr = np.zeros(num_vertices + 1, dtype=PTR_DTYPE)
    np.cumsum(counts, out=indptr[1:])
    indices = (key % num_vertices).astype(VID_DTYPE)
    return indptr, indices


@contract("(n+1,) i -> (n,) i")
def degrees_from_indptr(indptr: np.ndarray) -> np.ndarray:
    """Out-degrees as a view-friendly diff of the row-pointer array."""
    return np.diff(indptr)


@contract("(n+1,) i, (e,) i, (...) ?, ?(r,) i -> (...) ?")
def segment_sum(
    indptr: np.ndarray,
    indices: np.ndarray,
    x: np.ndarray,
    rows: np.ndarray | None = None,
) -> np.ndarray:
    """Per-row neighbour sums ``out[r] = ((0 + x[n0]) + x[n1]) + ...``.

    ``n0, n1, ...`` are row ``r``'s CSR neighbours in ascending position:
    exactly the additions, in exactly the order, that
    ``np.add.at(zeros, row_of_edge, x[indices])`` performs, so the result
    is bit-identical to that scatter (``tests/graphs/
    test_segment_sum_property.py`` keeps it as the oracle) at a fraction
    of its cost.  ``x`` is indexed by vertex along axis 0 (1-D or 2-D);
    with ``rows`` (vertex ids) only those rows are computed and
    returned, in the order given — ``out[rows]`` of the full result.

    Rows are walked in descending-degree order, so degree slot ``j`` is
    one contiguous ``sums[a:b] += x[indices[starts[a:b] + j]]`` over the
    rows that still have a ``j``-th neighbour.  The power-law tail would
    need one near-empty slot per extra degree, so the few hub rows are
    finished instead one reduction each; the split minimises
    ``slots + hub_rows`` (the number of NumPy calls) over the rows' own
    degree histogram.

    A hub's gather ``x.take(nbrs, axis=0)`` is a fresh C-contiguous
    ``(deg, d)`` array; for ``d >= 2`` ``np.add.reduce(..., axis=0)``
    does not reduce along the fast axis, so NumPy adds it row by row —
    CSR order, ``d`` lanes at a time.  That order is pinned by
    ``test_segment_sum_property.py``, not by NumPy's documentation.
    Where the reduced axis *is* the fast one (1-D ``x``, width 1)
    ``reduce`` sums pairwise, so those keep the strictly sequential
    ``accumulate``; ``reduceat`` is pairwise everywhere
    (docs/performance.md).
    """
    degrees = degrees_from_indptr(indptr)
    if rows is None:
        rows = np.arange(len(degrees))
    deg = degrees[rows]
    out = np.zeros((len(rows),) + x.shape[1:], dtype=x.dtype)
    # descending degree, ties in ascending row order; zero-degree rows
    # sort last and keep their zeros
    perm = np.argsort(-deg, kind="stable")[: np.count_nonzero(deg)]
    if not len(perm):
        return out
    deg = deg[perm]
    starts = indptr[rows[perm]]
    # above[j] = rows with more than j neighbours = rows slot j touches
    above = len(deg) - np.searchsorted(
        deg[::-1], np.arange(deg[0] + 1), side="right"
    )
    slots = int(np.argmin(np.arange(len(above)) + above))
    hubs = int(above[slots])
    sums = np.zeros((len(deg),) + x.shape[1:], dtype=x.dtype)
    # a 0-started sum is never -0.0, hence the "+ zero"
    zero = x.dtype.type(0)
    lanes = x.ndim == 2 and x.shape[1] >= 2  # reduce(axis=0) is row-by-row
    for i in range(hubs):  # repro: noqa R006 — one in-order reduction per hub row; the slot/hub split keeps this to the power-law tail
        g = x.take(indices[starts[i] : starts[i] + deg[i]], axis=0)
        if lanes:
            sums[i] = np.add.reduce(g, axis=0) + zero
        else:
            sums[i] = np.add.accumulate(g, axis=0)[-1] + zero
    for j in range(slots):  # repro: noqa R006 — bounded by the slot count; each iteration is one contiguous vector op over all rows of degree > j
        live = sums[hubs : above[j]]
        live += x.take(indices.take(starts[hubs : above[j]] + j), axis=0)
    out[perm] = sums
    return out


@dataclass
class CSRSnapshot:
    """One graph snapshot :math:`G_t = (V_t, E_t, X_t)` in CSR form.

    Attributes
    ----------
    indptr, indices:
        Sorted CSR adjacency over the global id space (directed edges;
        undirected graphs store both orientations).
    features:
        ``(num_vertices, dim)`` float32 feature matrix :math:`X_t`.  Rows of
        absent vertices are zero and ignored.
    present:
        Boolean mask of vertices that exist at this timestamp.
    timestamp:
        Integer snapshot index within the parent dynamic graph.

    A snapshot whose four arrays are read-only (:meth:`frozen_copy`,
    :attr:`read_only`) is a value: its cached facts — degrees, row
    fingerprints, the validator's structural verdict
    (:func:`repro.resilience.ingest.snapshot_violation`) and the
    classification of the window it ends
    (:func:`repro.analysis.classify.classify_window`) — are computed
    once and hold for every reader that shares it.
    """

    indptr: np.ndarray
    indices: np.ndarray
    features: np.ndarray
    present: np.ndarray
    timestamp: int = 0
    _degrees: np.ndarray | None = field(default=None, repr=False, compare=False)
    _fingerprints: np.ndarray | None = field(
        default=None, repr=False, compare=False
    )
    #: ``snapshot_violation``'s structural verdict on a read-only
    #: snapshot, with the arrays it judged: ``(arrays, reason)``
    _verdict: tuple | None = field(
        default=None, init=False, repr=False, compare=False
    )
    #: ``classify_window``'s result for the read-only window this
    #: snapshot ends, with that window's snapshots: ``(snaps, result)``
    _classified: tuple | None = field(
        default=None, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        n = self.num_vertices
        if self.features.shape[0] != n:
            raise ValueError(
                f"features rows {self.features.shape[0]} != num_vertices {n}"
            )
        if self.present.shape[0] != n:
            raise ValueError(f"present mask length {self.present.shape[0]} != {n}")
        if self.indptr[0] != 0 or self.indptr[-1] != len(self.indices):
            raise ValueError("malformed indptr")

    # ------------------------------------------------------------------
    # basic accessors
    # ------------------------------------------------------------------
    @property
    def num_vertices(self) -> int:
        """Size of the global id space (present and absent vertices)."""
        return len(self.indptr) - 1

    @property
    def num_present(self) -> int:
        """Number of vertices that exist at this timestamp."""
        return int(self.present.sum())

    @property
    def num_edges(self) -> int:
        """Number of directed edges stored."""
        return len(self.indices)

    @property
    def dim(self) -> int:
        """Feature dimensionality."""
        return self.features.shape[1]

    @property
    def degrees(self) -> np.ndarray:
        """Per-vertex out-degree (cached)."""
        if self._degrees is None:
            self._degrees = degrees_from_indptr(self.indptr)
        return self._degrees

    def neighbors(self, v: int) -> np.ndarray:
        """Sorted neighbour ids of ``v`` — a zero-copy view into ``indices``."""
        return self.indices[self.indptr[v] : self.indptr[v + 1]]

    def has_edge(self, u: int, v: int) -> bool:
        """Membership test via binary search on the sorted row of ``u``."""
        row = self.neighbors(u)
        i = np.searchsorted(row, v)
        return bool(i < len(row) and row[i] == v)

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_edges(
        cls,
        num_vertices: int,
        edges: np.ndarray | Iterable[tuple[int, int]],
        features: np.ndarray | None = None,
        *,
        present: np.ndarray | None = None,
        timestamp: int = 0,
        undirected: bool = True,
        dim: int = 1,
    ) -> "CSRSnapshot":
        """Build a snapshot from an ``(m, 2)`` edge array.

        When ``undirected`` (the default, matching the paper's datasets)
        each edge is stored in both directions.
        """
        edges = np.asarray(list(edges) if not isinstance(edges, np.ndarray) else edges)
        if edges.size == 0:
            edges = edges.reshape(0, 2)
        src, dst = edges[:, 0], edges[:, 1]
        if undirected:
            src, dst = np.concatenate([src, dst]), np.concatenate([dst, src])
        indptr, indices = build_csr(num_vertices, src, dst)
        if features is None:
            features = np.zeros((num_vertices, dim), dtype=FEAT_DTYPE)
        else:
            features = np.ascontiguousarray(features, dtype=FEAT_DTYPE)
        if present is None:
            present = np.ones(num_vertices, dtype=bool)
        return cls(indptr, indices, features, present, timestamp)

    def copy(self) -> "CSRSnapshot":
        """Deep copy (fresh arrays) — checkpoint/restore builds on this."""
        return CSRSnapshot(
            indptr=self.indptr.copy(),
            indices=self.indices.copy(),
            features=self.features.copy(),
            present=self.present.copy(),
            timestamp=self.timestamp,
        )

    def frozen_copy(self) -> "CSRSnapshot":
        """A copy whose arrays are fresh and read-only: a value any
        number of readers can share, while ``self`` stays writable and
        unaliased.  The arrays are copied as they are, valid or not
        (``__post_init__`` does not run), so a torn snapshot copies too
        and is left to the validator to refuse."""
        out = copy.copy(self)
        for name in _ARRAYS:
            array = np.array(getattr(self, name), order="C")  # as copy()
            array.flags.writeable = False
            setattr(out, name, array)
        out._degrees = out._fingerprints = None
        out._verdict = out._classified = None
        return out

    @property
    def read_only(self) -> bool:
        """Whether none of the four arrays can be written in place."""
        return all(
            isinstance(a, np.ndarray) and not a.flags.writeable
            for a in (getattr(self, name) for name in _ARRAYS)
        )

    # ------------------------------------------------------------------
    # GNN support
    # ------------------------------------------------------------------
    def mean_norm_coeffs(self, *, add_self_loops: bool = True) -> np.ndarray:
        r"""Per-vertex :math:`1/\hat d_v` coefficients of mean (random-walk)
        GCN normalisation, with :math:`\hat d_v = d_v + 1` when self-loops
        are added.  Absent vertices get coefficient 0.
        """
        d = self.degrees.astype(np.float64) + (1.0 if add_self_loops else 0.0)
        coeff = np.zeros_like(d)
        np.divide(1.0, d, out=coeff, where=d > 0)
        coeff[~self.present] = 0.0
        return coeff

    @contract("(n, f) ?, bool, ?(r,) i -> (*, f) ?")
    def aggregate(
        self,
        x: np.ndarray,
        *,
        add_self_loops: bool = True,
        rows: np.ndarray | None = None,
    ) -> np.ndarray:
        r"""Mean-normalised neighbourhood aggregation
        :math:`\hat D^{-1}(A + I)\, x`.

        This is the GNN module's "aggregation" operation (paper Fig. 1(b)):
        one gather per edge accumulated per row in ascending CSR position
        — the access pattern the accelerator's APE adder trees execute —
        by :func:`segment_sum`.

        With ``rows`` (vertex ids) only those rows are computed and
        returned — ``aggregate(x)[rows]`` bit for bit, at the cost of
        those rows' edges.

        Mean (random-walk) normalisation — rather than Kipf–Welling's
        symmetric :math:`\hat D^{-1/2}(A+I)\hat D^{-1/2}` — is load-bearing
        for the whole reproduction: only under mean normalisation is the
        paper's claim true that an *unaffected* vertex (same neighbours,
        features, and neighbours' features) has an identical GNN output in
        every snapshot.  Under symmetric normalisation a neighbour's
        *degree* change elsewhere would alter its coefficient and leak into
        the vertex's output, so "compute unaffected vertices once per
        layer" would be an approximation instead of an identity.
        """
        coeff = self.mean_norm_coeffs(add_self_loops=add_self_loops)
        out = segment_sum(self.indptr, self.indices, x, rows)
        if rows is not None:
            x, coeff = x[rows], coeff[rows]
        if add_self_loops:
            out += x
        out *= coeff[:, None]
        return out.astype(x.dtype, copy=False)

    # ------------------------------------------------------------------
    # structural comparisons (used by vertex classification)
    # ------------------------------------------------------------------
    def row_fingerprints(self) -> np.ndarray:
        """64-bit order-independent hash of each neighbour list (cached).

        Equal degree plus equal fingerprint across two snapshots is
        *the* test for "this vertex kept its neighbour list":
        :func:`~repro.analysis.classify.classify_window` and
        :func:`~repro.analysis.similarity.neighbor_stability_weights`
        both trust it, and no exact row comparison follows
        (:meth:`same_row` has no hot-path caller).  The exactness
        contract therefore rests on this hash.  Treating the mixed ids
        as independent uniform 64-bit values, two different lists of one
        length collide with probability 2**-64 (5.4e-20) per compared
        row — a union bound of 1e-8 over a million 4-snapshot windows of
        a 64 k-vertex graph.  The mix is unkeyed, so this is a bound for
        benign feeds, not against one crafted to collide.
        """
        if self._fingerprints is not None:
            return self._fingerprints
        # Mix each vertex id with a splitmix64-style finaliser, then sum
        # the mixed neighbour ids per row.  uint64 adds are exact modulo
        # 2**64 in any order, so a row's sum is the difference of one
        # wrapping prefix sum over the CSR at the row's two pointers.
        x = np.arange(self.num_vertices, dtype=np.uint64)
        x = (x + np.uint64(0x9E3779B97F4A7C15)) * np.uint64(0xBF58476D1CE4E5B9)
        x ^= x >> np.uint64(27)
        x *= np.uint64(0x94D049BB133111EB)
        x ^= x >> np.uint64(31)
        prefix = np.zeros(self.num_edges + 1, dtype=np.uint64)
        np.cumsum(x.take(self.indices), out=prefix[1:])
        out = prefix.take(self.indptr[1:]) - prefix.take(self.indptr[:-1])
        # Fold the degree in so "empty row" differs from "absent vertex".
        out += self.degrees.astype(np.uint64) * np.uint64(0xDA942042E4DD58B5)
        self._fingerprints = out
        return out

    def same_row(self, other: "CSRSnapshot", v: int) -> bool:
        """Exact neighbour-list equality for one vertex across snapshots."""
        a = self.neighbors(v)
        b = other.neighbors(v)
        return len(a) == len(b) and bool(np.array_equal(a, b))

    # ------------------------------------------------------------------
    # conversions
    # ------------------------------------------------------------------
    def edge_array(self) -> np.ndarray:
        """Return the ``(m, 2)`` directed edge list (src, dst)."""
        src = np.repeat(np.arange(self.num_vertices, dtype=VID_DTYPE), self.degrees)
        return np.stack([src, self.indices], axis=1)

    def memory_bytes(self) -> int:
        """Footprint of the snapshot's arrays (structure + features)."""
        return (
            self.indptr.nbytes
            + self.indices.nbytes
            + self.features.nbytes
            + self.present.nbytes
        )
