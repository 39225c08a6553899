r"""The similarity score :math:`\theta` gating the cell-update mode.

Paper Section 3.1 defines, for vertex :math:`v` across snapshots
:math:`t` and :math:`t+1`:

.. math::

   \theta(v) \;=\;
   \frac{Z^t(v) \cdot Z^{t+1}(v)}{\lVert Z^t(v)\rVert\,\lVert Z^{t+1}(v)\rVert}
   \;\times\;
   \frac{|\mathcal N_{sv}(v)|}{|\mathcal N^t(v) \cap \mathcal N^{t+1}(v)|}

— cosine similarity of the GNN outputs, weighted by the fraction of the
common neighbours that are (feature-)stable.  The score lies in
:math:`[-1, 1]`; high means "reuse the previous RNN result" and low means
"full cell update".

Conventions for the degenerate cases (the paper leaves them implicit):

* zero-norm GNN output on either side → cosine term 0 (no evidence of
  similarity);
* no common neighbours but both neighbourhoods empty and equal → weight 1
  (an isolated vertex that stayed isolated is perfectly consistent);
* no common neighbours otherwise → weight 0 (total topological change).
"""

from __future__ import annotations

import numpy as np

from ..check.shapes import contract
from ..graphs.snapshot import CSRSnapshot, _sparsetools

__all__ = [
    "COSINE_SHARPNESS",
    "common_neighbor_counts",
    "cosine_rows",
    "neighbor_stability_weights",
    "similarity_scores",
    "weights_of_counts",
]


#: Elements of each side that :func:`cosine_rows` widens to float64 at
#: once (128 KiB a side).
_COSINE_BLOCK = 1 << 14


@contract("(r,f) f, (r,f) f -> (r,) f64")
def cosine_rows(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise cosine similarity of two equally-shaped matrices.

    Rows with zero norm on either side score 0.  The dot products are
    float64, widened a block of rows at a time: each row is reduced on
    its own, so the blocking changes no bit and bounds the float64
    copies.  The norms are the body ``np.linalg.norm(x, axis=1)`` runs
    for real input, in the input's dtype, without its dispatch: the
    same bits.
    """
    return _cosine(_dots(a, b), _norms(a), _norms(b))


def _dots(a, b) -> np.ndarray:
    """The float64 dot product of each row pair of ``a`` and ``b``."""
    num = np.empty(len(a), dtype=np.float64)
    step = max(1, _COSINE_BLOCK // max(a.shape[1], 1))
    for i in range(0, len(a), step):
        rows = slice(i, i + step)
        np.einsum(
            "ij,ij->i",
            a[rows].astype(np.float64),
            b[rows].astype(np.float64),
            out=num[rows],
        )
    return num


def _norms(x, square=None) -> np.ndarray:
    """The norm of each row along the last axis, in ``x``'s dtype; each
    row is reduced on its own, so stacking rows changes no bit.
    ``square`` (None = allocated) receives ``x * x``."""
    return np.sqrt(np.add.reduce(np.multiply(x, x, out=square), axis=-1))


def _cosine(num, na, nb) -> np.ndarray:
    denom = na * nb
    out = np.zeros(len(num), dtype=np.float64)
    np.divide(num, denom, out=out, where=denom > 0)
    return np.clip(out, -1.0, 1.0)


@contract("_, _, (n,) b -> (n,) i, (n,) i")
def common_neighbor_counts(
    snap_t: CSRSnapshot,
    snap_t1: CSRSnapshot,
    feature_stable: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    r"""Per row of a snapshot pair, the common-neighbour count
    :math:`|\mathcal N^t \cap \mathcal N^{t+1}|` and how many of those
    common neighbours ``feature_stable`` marks: two ``(n,)`` integer
    arrays.

    This is the package's one neighbour-list comparison.  Both snapshots
    are intersected exactly, every row, in one pass of SciPy's compiled
    ``csr_elmul_csr``: it merges each row's two sorted neighbour lists
    and keeps the products of the common entries.  Snapshot ``t``
    carries ``1 + feature_stable`` and ``t + 1`` carries 1, so the
    output's row pointers count each row's common neighbours and its row
    sums (one compiled ``csr_matvec``) add a second 1 for each stable
    one.  The rows must be strictly ascending, as
    :func:`~repro.graphs.snapshot.build_csr`, ``apply_events`` and the
    generators build them and the ingest validator requires: the kernel
    sums duplicates.  A row then kept its neighbour list exactly when
    its common count equals its degree in both snapshots.  The compiled
    loops do not bound-check, so they read only each snapshot's checked
    operands (a torn snapshot raises ``IndexError``), and two snapshots
    of different sizes raise ``ValueError`` before they run.
    """
    n = snap_t.num_vertices
    if snap_t1.num_vertices != n:
        raise ValueError(f"snapshots of {n} and {snap_t1.num_vertices} vertices")
    ptr_a, idx_a, _ = snap_t._checked_operands()
    ptr_b, idx_b, _ = snap_t1._checked_operands()
    itype = np.result_type(ptr_a, ptr_b)
    ptr_a, idx_a = ptr_a.astype(itype, copy=False), idx_a.astype(itype, copy=False)
    ptr_b, idx_b = ptr_b.astype(itype, copy=False), idx_b.astype(itype, copy=False)
    # int32 data: its row sums are one compiled pass and exact at any
    # degree (int8 sums would overflow, and an np.cumsum over int8
    # products costs more than the narrower merge saves).  The unchecked
    # output holds one entry per common neighbour: at most min(nnz).
    size = min(len(idx_a), len(idx_b))
    ptr, idx = np.empty(n + 1, dtype=itype), np.empty(size, dtype=itype)
    data = np.empty(size, dtype=np.int32)
    _sparsetools.csr_elmul_csr(
        n, n,
        ptr_a, idx_a, np.add(feature_stable, 1, dtype=np.int32).take(idx_a),
        ptr_b, idx_b, np.ones(len(idx_b), dtype=np.int32),
        ptr, idx, data,
    )
    sums = np.zeros(n, dtype=np.int32)
    _sparsetools.csr_matvec(n, n, ptr, idx, data, np.ones(n, dtype=np.int32), sums)
    common = np.diff(ptr)
    return common, sums - common


@contract("(r,) i, (r,) i, (r,) i, (r,) i -> (r,) f64")
def weights_of_counts(common, stable_common, deg_t, deg_t1) -> np.ndarray:
    """θ's neighbour weight of rows from their pair's
    :func:`common_neighbor_counts` and their degrees in both snapshots
    (all four aligned): the stable share of the common neighbours, and
    without a common neighbour 1 for a row empty on both sides (it
    stayed isolated), else 0.  The counts are integers, so the share is
    identical to ``feature_stable[common].mean()``."""
    out = ((deg_t == 0) & (deg_t1 == 0)).astype(np.float64)
    np.divide(stable_common, common, out=out, where=common > 0)
    return out


@contract("_, _, (r,) i, (n,) b -> (r,) f64")
def neighbor_stability_weights(
    snap_t: CSRSnapshot,
    snap_t1: CSRSnapshot,
    vertices: np.ndarray,
    feature_stable: np.ndarray,
) -> np.ndarray:
    r"""The topological factor
    :math:`|\mathcal N_{sv}| / |\mathcal N^t \cap \mathcal N^{t+1}|`
    for each vertex in ``vertices``.

    ``feature_stable`` marks vertices whose own features are unchanged
    between the two snapshots (the paper's inclusive stable set).  The
    pair is merged once (:func:`common_neighbor_counts`) and the scored
    rows' counts divided (:func:`weights_of_counts`).
    """
    common, stable_common = common_neighbor_counts(snap_t, snap_t1, feature_stable)
    vertices = np.asarray(vertices, dtype=np.int64)
    return weights_of_counts(
        common.take(vertices), stable_common.take(vertices),
        snap_t.degrees.take(vertices), snap_t1.degrees.take(vertices),
    )


#: Calibration constant for the cosine term (see similarity_scores).
COSINE_SHARPNESS = 10.0 / 3.0


@contract("_, _, (r,) i -> (p,r) f64")
def similarity_scores(
    z,
    snaps,
    vertices: np.ndarray,
    *,
    weights=None,
    sharpness: float = COSINE_SHARPNESS,
    ws=None,
) -> np.ndarray:
    r"""Full :math:`\theta` of ``vertices`` for every consecutive pair of
    ``snaps``: a ``(p, r)`` array for ``p + 1`` snapshots, whose row
    ``t`` scores the pair (``snaps[t]``, ``snaps[t + 1]``).

    Parameters
    ----------
    z:
        The ``p + 1`` snapshots' GNN-module outputs :math:`Z^t`, each
        over *all* vertices (rows indexed by global id), of one dtype.
    snaps:
        The ``p + 1`` snapshots (for the neighbourhood intersection).
    vertices:
        Vertex ids scored in every pair (TaGNN scores stable and
        affected vertices).  A caller keeps the scores of the pairs a
        vertex is present in on both sides.
    sharpness:
        Calibration of the cosine term: ``cos' = 1 - sharpness*(1 - cos)``.
        Our reservoir models produce consecutive-snapshot cosines packed
        near 1 (far tighter than the trained models in the paper's
        Fig. 3(b), whose measured differences span roughly [-0.6, 0.8]).
        The affine stretch maps our distribution onto that range so that
        the paper's thresholds :math:`[\theta_s, \theta_e] = [-0.5, 0.5]`
        are also the operating point here — pass ``sharpness=1.0`` for the
        raw cosine.
    weights:
        None, or per pair None or the pair's neighbour weights of every
        row (a window's memo,
        :meth:`~repro.analysis.classify.WindowClassification.neighbor_weights`),
        read at ``vertices``: the same bits as a merge, since each
        row's weight is its own division of the counts classification
        merged.  A None pair is merged here
        (:func:`neighbor_stability_weights`), with the rows present in
        both snapshots and left unchanged by the pair as the stable set.
    ws:
        None, or a leased :class:`~repro.engine.workspace.Workspace`
        that holds the gathered rows and their squares.

    Each snapshot's rows are gathered once and their norms taken once,
    though the snapshot sits in two pairs; every row's cosine is its
    own reduction, so the scores are :func:`cosine_rows`' bits pair by
    pair.
    """
    vertices = np.asarray(vertices, dtype=np.int64)
    (n, f), dtype = z[0].shape, z[0].dtype
    shape = (len(z), len(vertices), f)
    if ws is None:
        rows, square = np.empty(shape, dtype), None
    else:
        # the scored rows vary from window to window; every row is the most
        most = (len(z), n, f)
        rows = ws.take("theta.rows", shape, dtype, reserve=most)
        square = ws.take("theta.square", shape, dtype, reserve=most)
    for block, z_t in zip(rows, z):
        np.take(z_t, vertices, axis=0, out=block)
    norms = _norms(rows, square)
    # the stacked pairs: both sides are views of the one gathered block
    prev, cur = rows[:-1].reshape(-1, f), rows[1:].reshape(-1, f)
    cos = _cosine(_dots(prev, cur), norms[:-1].ravel(), norms[1:].ravel())
    cos = np.clip(1.0 - sharpness * (1.0 - cos), -1.0, 1.0)
    cos = cos.reshape(len(z) - 1, len(vertices))
    if weights is None:
        weights = [None] * len(cos)
    for t, w in enumerate(weights):
        if w is None:
            a, b = snaps[t], snaps[t + 1]
            stable = (a.features == b.features).all(axis=1) & a.present & b.present
            w = neighbor_stability_weights(a, b, vertices, stable)
        else:
            w = w.take(vertices)
        cos[t] *= w
    return np.clip(cos, -1.0, 1.0, out=cos)
