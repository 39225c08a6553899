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
from ..graphs.snapshot import CSRSnapshot

__all__ = [
    "COSINE_SHARPNESS",
    "cosine_rows",
    "neighbor_stability_weights",
    "similarity_scores",
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
    na = np.sqrt(np.add.reduce(a * a, axis=1))
    nb = np.sqrt(np.add.reduce(b * b, axis=1))
    denom = na * nb
    out = np.zeros(len(a), dtype=np.float64)
    np.divide(num, denom, out=out, where=denom > 0)
    return np.clip(out, -1.0, 1.0)


def _gather_rows(snap: CSRSnapshot, vertices: np.ndarray, deg: np.ndarray) -> np.ndarray:
    """Concatenated neighbour lists of ``vertices`` (each row sorted)."""
    total = int(deg.sum())
    if total == 0:
        return np.empty(0, dtype=snap.indices.dtype)
    # entry j of row i sits at indptr[v_i] + (j - start_i): one repeat
    shift = snap.indptr[vertices] - (np.cumsum(deg) - deg)
    return snap.indices.take(np.repeat(shift, deg) + np.arange(total))


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
    between the two snapshots (the paper's inclusive stable set).

    A row whose neighbour list is the same in both snapshots — equal
    degree and equal :meth:`~repro.graphs.snapshot.CSRSnapshot.
    row_fingerprints`, the test ``classify_window`` trusts — has every
    neighbour in common, so its weight is the stable share of its own
    list: one gather and one segmented integer sum.  Only the remaining
    rows pay for the intersection.
    """
    vertices = np.asarray(vertices, dtype=np.int64)
    if vertices.size == 0:
        return np.zeros(0, dtype=np.float64)
    deg = snap_t.degrees[vertices]
    same = (deg == snap_t1.degrees[vertices]) & (
        snap_t.row_fingerprints()[vertices]
        == snap_t1.row_fingerprints()[vertices]
    )
    out = np.ones(vertices.size, dtype=np.float64)  # kept an empty row
    kept = same & (deg > 0)
    kept_deg = deg[kept]
    stable = feature_stable.take(_gather_rows(snap_t, vertices[kept], kept_deg))
    # no kept row is empty, so every reduceat segment is a whole row;
    # integer-valued float64 ratio: identical to the intersection's
    out[kept] = (
        np.add.reduceat(stable, np.cumsum(kept_deg) - kept_deg, dtype=np.int64)
        / kept_deg
    )
    if not same.all():
        out[~same] = _intersection_weights(
            snap_t, snap_t1, vertices[~same], feature_stable
        )
    return out


def _intersection_weights(
    snap_t: CSRSnapshot,
    snap_t1: CSRSnapshot,
    vertices: np.ndarray,
    feature_stable: np.ndarray,
) -> np.ndarray:
    """:func:`neighbor_stability_weights` for rows whose neighbour list
    changed (at least one side is non-empty, so an empty intersection
    scores 0).

    All rows are intersected at once: neighbour lists are sorted (a
    :func:`~repro.graphs.snapshot.build_csr` invariant), so tagging each
    entry with its owner's rank yields two strictly increasing composite
    keys whose common elements fall out of one ``searchsorted`` pass.
    Each row's common and stable-common neighbours are then two
    segmented integer sums over its run of ``key_a``; a row with an
    empty run has no segment and keeps its 0.
    """
    r = vertices.size
    out = np.zeros(r, dtype=np.float64)
    deg_a = snap_t.degrees[vertices]
    deg_b = snap_t1.degrees[vertices]
    nb_a = _gather_rows(snap_t, vertices, deg_a)
    nb_b = _gather_rows(snap_t1, vertices, deg_b)
    if nb_a.size == 0 or nb_b.size == 0:
        return out
    n = np.int64(snap_t.num_vertices)
    key_a = np.repeat(np.arange(r, dtype=np.int64), deg_a) * n + nb_a
    key_b = np.repeat(np.arange(r, dtype=np.int64), deg_b) * n + nb_b
    # a key past the end of key_b clips onto its last, smaller, element
    hit = key_b.take(np.searchsorted(key_b, key_a), mode="clip") == key_a
    rows = np.flatnonzero(deg_a)
    starts = (np.cumsum(deg_a) - deg_a)[rows]
    cnt = np.add.reduceat(hit, starts, dtype=np.int64)
    stable = np.add.reduceat(
        hit & feature_stable.take(nb_a), starts, dtype=np.int64
    )
    has = cnt > 0
    # integer counts: identical to feature_stable[common].mean()
    out[rows[has]] = stable[has] / cnt[has]
    return out


#: Calibration constant for the cosine term (see similarity_scores).
COSINE_SHARPNESS = 10.0 / 3.0


@contract("(n,f) f, (n,f) f, _, _, (r,) i, (n,) b -> (r,) f64")
def similarity_scores(
    z_t: np.ndarray,
    z_t1: np.ndarray,
    snap_t: CSRSnapshot,
    snap_t1: CSRSnapshot,
    vertices: np.ndarray,
    feature_stable: np.ndarray,
    *,
    sharpness: float = COSINE_SHARPNESS,
) -> np.ndarray:
    r"""Full :math:`\theta` for each vertex in ``vertices``.

    Parameters
    ----------
    z_t, z_t1:
        GNN-module outputs :math:`Z^t`, :math:`Z^{t+1}` over *all*
        vertices (rows indexed by global id).
    snap_t, snap_t1:
        The two snapshots (for the neighbourhood intersection).
    vertices:
        Vertex ids to score (TaGNN scores stable and affected vertices).
    feature_stable:
        Boolean per-vertex own-feature stability between the snapshots.
    sharpness:
        Calibration of the cosine term: ``cos' = 1 - sharpness*(1 - cos)``.
        Our reservoir models produce consecutive-snapshot cosines packed
        near 1 (far tighter than the trained models in the paper's
        Fig. 3(b), whose measured differences span roughly [-0.6, 0.8]).
        The affine stretch maps our distribution onto that range so that
        the paper's thresholds :math:`[\theta_s, \theta_e] = [-0.5, 0.5]`
        are also the operating point here — pass ``sharpness=1.0`` for the
        raw cosine.
    """
    vertices = np.asarray(vertices, dtype=np.int64)
    cos = cosine_rows(z_t[vertices], z_t1[vertices])
    cos = np.clip(1.0 - sharpness * (1.0 - cos), -1.0, 1.0)
    w = neighbor_stability_weights(snap_t, snap_t1, vertices, feature_stable)
    return np.clip(cos * w, -1.0, 1.0)
