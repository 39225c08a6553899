"""CSR graph snapshots — the basic unit of a dynamic graph.

A :class:`CSRSnapshot` is one timestamped observation of an evolving graph,
stored in Compressed Sparse Row form over a *global* vertex-id space shared
by every snapshot of the same dynamic graph.  Vertices that are absent from
a snapshot keep their id (so ids are stable across time) but are flagged off
in the ``present`` mask and have empty adjacency rows.

The paper stores each snapshot in CSR (Section 2.1) and drives both the GNN
aggregation and the vertex-classification pipelines off this layout, so all
hot paths here run on the raw ``indptr``/``indices`` arrays — vectorised
NumPy, and SciPy's compiled CSR kernels for the aggregation and the
neighbour-list merge that classifies rows and weights θ (no per-vertex
Python loops, contiguous reads, views not copies).
"""

from __future__ import annotations

import copy
import importlib.machinery
import importlib.util
import math
import os
import sys
from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

from ..check.shapes import contract

__all__ = [
    "CSRSnapshot",
    "FEAT_DTYPE",
    "PTR_DTYPE",
    "VID_DTYPE",
    "absent_row_violation",
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
# empty-graph idiom passes float64 ``np.array([])``.  Dropping duplicate
# edges can shrink indices below the input edge count, hence the free
# return dim.
@contract("n, (e,) ?, (m,) ? -> (n+1,) i64, (*,) i32")
def build_csr(
    num_vertices: int,
    src: np.ndarray,
    dst: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Build sorted CSR (``indptr``, ``indices``) from an edge list.

    Edges are directed ``src -> dst``; callers wanting an undirected graph
    pass both orientations.  Duplicate ``(src, dst)`` pairs are dropped
    (snapshots are simple graphs in the paper's datasets), so neighbour
    lists come out strictly ascending, which the rest of the package
    relies on: the compiled neighbour-list merge that classifies rows
    and weights θ is exact list equality only on such rows.

    Parameters
    ----------
    num_vertices:
        Size of the global vertex-id space.
    src, dst:
        Equal-length integer arrays of endpoints; ids must lie in
        ``[0, num_vertices)``.

    Returns
    -------
    (indptr, indices):
        ``indptr`` has length ``num_vertices + 1`` and dtype int64;
        ``indices`` holds strictly ascending neighbour ids per row with
        dtype int32.
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
    key = np.sort(src * np.int64(num_vertices) + dst)
    if key.size:
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


@contract("(n+1,) ?, (n,) ? -> _")
def absent_row_violation(indptr: np.ndarray, present: np.ndarray) -> str | None:
    """Why a CSR breaks the canonical form's empty row of an absent
    vertex, naming the first such vertex; None when none holds an
    edge."""
    held = np.flatnonzero((indptr[1:] != indptr[:-1]) & np.logical_not(present))
    if not held.size:
        return None
    v = int(held[0])
    return f"absent vertex {v} holds {int(indptr[v + 1] - indptr[v])} edge(s)"


def _load_csr_kernel():
    """SciPy's compiled CSR kernels (``csr_matvecs`` for aggregation,
    ``csr_elmul_csr`` and ``csr_matvec`` for the neighbour-list merge),
    loaded without importing SciPy (``import scipy.sparse`` costs 22 MiB
    of RSS, this extension alone 0.2 MiB), under its canonical name, so
    that a later ``import scipy.sparse`` reuses this module object."""
    name = "scipy.sparse._sparsetools"
    if name not in sys.modules:
        spec = importlib.util.find_spec("scipy")
        root = spec.submodule_search_locations[0] if spec else "(no scipy)"
        suffix = importlib.machinery.EXTENSION_SUFFIXES[0]
        path = os.path.join(root, "sparse", "_sparsetools" + suffix)
        if not os.path.isfile(path):
            raise ImportError(f"SciPy's CSR kernel is missing: {path}", path=path)
        loader = importlib.machinery.ExtensionFileLoader(name, path)
        module = importlib.util.module_from_spec(
            importlib.util.spec_from_loader(name, loader)
        )
        loader.exec_module(module)
        sys.modules[name] = module
    return sys.modules[name]


_sparsetools = _load_csr_kernel()


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

    The kernel is SciPy's compiled ``csr_matvecs`` with every edge
    weight 1, into a zeroed ``out``: for each row in turn, for each of
    its CSR entries in turn, ``out[r, :] += 1 * x[j, :]``.  That is the
    scatter's order to the addition, and it is exact: ``1 * v`` is
    ``v`` for every value (so a fused multiply-add rounds the same as
    the plain add), and a sum that starts from ``+0`` is never ``-0.0``.
    Lanes are independent, so vectorising across the row's width cannot
    reorder a sum.  Given ``rows``, the kernel runs on a gathered
    sub-CSR of just those rows' edges.  The compiled loop does not
    bound-check, so a malformed CSR raises ``IndexError`` before it runs.
    """
    return _row_sums(*_kernel_operands(indptr, indices), x, rows)


def _kernel_operands(indptr: np.ndarray, indices: np.ndarray) -> tuple:
    """``(ptr, idx)`` for SciPy's CSR kernels, which read wherever they
    point and want one index dtype: ``indptr`` is cast down to ``int32``
    indices while they fit, and the indices are never widened."""
    n, nnz = len(indptr) - 1, len(indices)
    if indptr[0] or indptr[-1] != nnz or np.any(indptr[1:] < indptr[:-1]) or (
        nnz and not 0 <= indices.min() <= indices.max() < n
    ):
        raise IndexError(f"malformed CSR: {n} vertices, {nnz} edges")
    itype = np.int32 if indices.dtype == np.int32 and nnz < 2**31 else np.int64
    return indptr.astype(itype, copy=False), indices.astype(itype, copy=False)


#: read-only all-ones edge weights, one per dtype, grown on demand
_ONES: dict[np.dtype, np.ndarray] = {}


def _row_sums(ptr, idx, x: np.ndarray, rows: np.ndarray | None) -> np.ndarray:
    """:func:`segment_sum` on operands from :func:`_kernel_operands`."""
    if len(x) < len(ptr) - 1:
        raise ValueError(f"x has {len(x)} rows for {len(ptr) - 1} vertices")
    if rows is not None:  # the rows' edge ranges, concatenated
        start = ptr[:-1][rows]
        deg = ptr[1:][rows] - start
        sub = np.zeros(len(rows) + 1, dtype=ptr.dtype)
        np.cumsum(deg, out=sub[1:])
        idx = idx.take(np.repeat(start - sub[:-1], deg) + np.arange(sub[-1]))
        ptr = sub
    ones = _ONES.get(x.dtype)
    if ones is None or len(ones) < len(idx):
        ones = _ONES[x.dtype] = np.ones(len(idx), dtype=x.dtype)
        ones.flags.writeable = False
    out = np.zeros((len(ptr) - 1,) + x.shape[1:], dtype=x.dtype)
    _sparsetools.csr_matvecs(
        len(ptr) - 1, len(x), math.prod(x.shape[1:]), ptr, idx,
        ones[: len(idx)], x.ravel(), out.ravel(),
    )
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
    :attr:`read_only`) is a value: its cached facts — degrees, the
    checked kernel operands, the validator's structural verdict
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
    #: ``snapshot_violation``'s structural verdict on a read-only
    #: snapshot, with the arrays it judged: ``(arrays, reason)``
    _verdict: tuple | None = field(
        default=None, init=False, repr=False, compare=False
    )
    #: ``classify_window``'s result for the read-only window this
    #: snapshot ends (it holds that window's snapshots)
    _classified: object | None = field(
        default=None, init=False, repr=False, compare=False
    )
    #: :meth:`_checked_operands`: ``(ptr, idx, {add_self_loops: coeff})``
    _operands: tuple | None = field(
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
        each edge is stored in both directions.  An absent vertex must
        hold no edge (its row is empty): such edges raise.
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
        reason = absent_row_violation(indptr, present)
        if reason is not None:
            raise ValueError(reason)
        return cls(indptr, indices, features, present, timestamp)

    def copy(self) -> "CSRSnapshot":
        """Deep copy (fresh arrays): a snapshot its receiver may write
        into without touching this one."""
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
        out._degrees = None
        out._verdict = out._classified = out._operands = None
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
        ptr, idx, coeffs = self._checked_operands()
        if add_self_loops not in coeffs:
            coeffs[add_self_loops] = self.mean_norm_coeffs(
                add_self_loops=add_self_loops
            )
        coeff = coeffs[add_self_loops]
        out = _row_sums(ptr, idx, x, rows)
        if rows is not None:
            x, coeff = x[rows], coeff[rows]
        if add_self_loops:
            out += x
        out *= coeff[:, None]
        return out.astype(x.dtype, copy=False)

    def _checked_operands(self) -> tuple:
        """The compiled kernels' checked ``(ptr, idx)`` and the mean
        coefficients per ``add_self_loops`` (cached): what
        :meth:`aggregate` and
        :func:`~repro.analysis.similarity.common_neighbor_counts`
        hand SciPy's loops, which read wherever the pointers point."""
        if self._operands is None:
            self._operands = (*_kernel_operands(self.indptr, self.indices), {})
        return self._operands

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
