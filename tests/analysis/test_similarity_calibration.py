"""Tests for the similarity-score calibration (sharpness) and theta
behaviour under controlled perturbations."""

import numpy as np
import pytest

from repro.analysis.similarity import (
    COSINE_SHARPNESS,
    cosine_rows,
    neighbor_stability_weights,
    similarity_scores,
)
from repro.graphs import CSRSnapshot


def pair_snapshots(n=6, d=4):
    f = np.zeros((n, d), dtype=np.float32)
    edges = np.array([[0, 1], [0, 2], [1, 2], [3, 4]])
    s0 = CSRSnapshot.from_edges(n, edges, f)
    s1 = CSRSnapshot.from_edges(n, edges, f.copy())
    return s0, s1


class TestSharpness:
    def test_default_constant(self):
        assert COSINE_SHARPNESS == pytest.approx(10.0 / 3.0)

    def test_sharpness_one_is_raw_cosine(self):
        s0, s1 = pair_snapshots()
        rng = np.random.default_rng(0)
        z0 = rng.standard_normal((6, 4))
        z1 = z0 + 0.1 * rng.standard_normal((6, 4))
        verts = np.array([3])  # one common neighbour (v4), all stable
        (theta,) = similarity_scores([z0, z1], [s0, s1], verts, sharpness=1.0)
        raw = cosine_rows(z0[verts], z1[verts])
        np.testing.assert_allclose(theta, raw, atol=1e-12)

    def test_sharpness_stretches_down(self):
        """cos = 0.9 maps to 1 - s*(0.1); with the default s it lands
        well below 0.9, spreading the packed-near-1 distribution."""
        s0, s1 = pair_snapshots()
        z0 = np.zeros((6, 4)); z0[3] = [1, 0, 0, 0]
        # construct a vector at cos ~0.9 to z0[3]
        z1 = np.zeros((6, 4)); z1[3] = [0.9, np.sqrt(1 - 0.81), 0, 0]
        verts = np.array([3])
        (theta_raw,) = similarity_scores([z0, z1], [s0, s1], verts, sharpness=1.0)
        (theta_cal,) = similarity_scores([z0, z1], [s0, s1], verts)
        assert theta_raw[0] == pytest.approx(0.9, abs=1e-6)
        assert theta_cal[0] == pytest.approx(1 - COSINE_SHARPNESS * 0.1, abs=1e-6)
        assert theta_cal[0] < theta_raw[0]

    def test_perfect_similarity_unchanged(self):
        """cos = 1 stays at 1 under any sharpness."""
        s0, s1 = pair_snapshots()
        rng = np.random.default_rng(1)
        z = rng.standard_normal((6, 4))
        verts = np.array([3])
        for s in (1.0, 10 / 3, 20.0):
            (theta,) = similarity_scores([z, z], [s0, s1], verts, sharpness=s)
            assert theta[0] == pytest.approx(1.0)

    def test_clipped_at_minus_one(self):
        s0, s1 = pair_snapshots()
        z0 = np.zeros((6, 4)); z0[3] = [1, 0, 0, 0]
        z1 = np.zeros((6, 4)); z1[3] = [-1, 0, 0, 0]
        verts = np.array([3])
        (theta,) = similarity_scores([z0, z1], [s0, s1], verts, sharpness=20.0)
        assert theta[0] >= -1.0


class TestThetaTopologyCoupling:
    def test_unstable_neighbors_suppress_high_cosine(self):
        """Even identical GNN outputs cannot earn a high theta when the
        common neighbours are feature-unstable — the topology factor the
        prior RNN-approximation methods lack."""
        s0, s1 = pair_snapshots()
        rng = np.random.default_rng(2)
        z = rng.standard_normal((6, 4))
        verts = np.array([0])  # neighbours {1, 2}
        every = np.arange(6)
        none_stable = neighbor_stability_weights(s0, s1, every, np.zeros(6, bool))
        (hi,) = similarity_scores([z, z], [s0, s1], verts)  # all stable
        (lo,) = similarity_scores([z, z], [s0, s1], verts, weights=[none_stable])
        assert hi[0] == pytest.approx(1.0)
        assert lo[0] == 0.0


def _norm_cosine_rows(a, b):
    """``cosine_rows`` with its norms from ``np.linalg.norm``, frozen as
    the oracle of the direct ``sqrt(add.reduce(x * x))`` it runs."""
    num = np.einsum("ij,ij->i", a.astype(np.float64), b.astype(np.float64))
    denom = np.linalg.norm(a, axis=1) * np.linalg.norm(b, axis=1)
    out = np.zeros(len(a), dtype=np.float64)
    np.divide(num, denom, out=out, where=denom > 0)
    return np.clip(out, -1.0, 1.0)


class TestCosineBits:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("width", [1, 3, 32, 67])
    def test_bit_equal_to_linalg_norm(self, dtype, width):
        # 1 300 rows: several of cosine_rows' float64 blocks at width 32
        rng = np.random.default_rng(width)
        a = rng.standard_normal((1300, width)).astype(dtype)
        b = (a + 0.05 * rng.standard_normal((1300, width))).astype(dtype)
        a[::17] = 0.0  # zero rows on either side, and on both
        b[::13] = 0.0
        a[::31] *= dtype(1e-20)  # norms that underflow when squared
        b[5] = -a[5]
        got = cosine_rows(a, b)
        assert got.tobytes() == _norm_cosine_rows(a, b).tobytes()
        assert (got[::17] == 0.0).all() and (got[::13] == 0.0).all()
