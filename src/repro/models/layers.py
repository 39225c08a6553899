"""GCN layers — the GNN module of every paper model.

One GCN layer performs the two operations the accelerator's DCU splits
between its processing elements (paper Section 4):

* **aggregation** (APE, adder trees): :math:`\\hat D^{-1}(A + I) X`
  with *mean* (random-walk) normalisation, executed by
  :meth:`CSRSnapshot.aggregate` — not Kipf–Welling's symmetric one: the
  unaffected-vertex identity the engines rely on holds only under mean
  normalisation (see that method's docstring);
* **combination** (CPE, MAC arrays): the dense projection :math:`(\\cdot) W`.

Weights are created once from a seed and then frozen (reservoir-style, see
DESIGN.md): the accuracy experiments measure degradation of approximate
execution relative to exact execution of the *same* frozen model, which
does not require trained weights.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..check.shapes import contract
from ..graphs.snapshot import CSRSnapshot
from .activations import ACTIVATIONS

__all__ = ["GCNLayer", "GCNStack", "glorot"]


@contract("_, fin, fout -> (fin, fout) f32")
def glorot(rng: np.random.Generator, fan_in: int, fan_out: int) -> np.ndarray:
    """Glorot/Xavier-uniform initialisation (float32)."""
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=(fan_in, fan_out)).astype(np.float32)


def _matmul_rows(
    a: np.ndarray, w: np.ndarray, out: np.ndarray | None = None
) -> np.ndarray:
    """``a @ w`` whose row ``i`` has the bits it has in any taller
    product holding the same row.

    BLAS sends a one-row product through gemv, which from an inner
    dimension of 64 rounds differently from the gemm every product of
    two or more rows gets — so ``a[[r]] @ w`` is not ``(a @ w)[[r]]``.
    Every product a row-restricted path shares with a full-height one
    goes through here, and a single row is multiplied as two.

    With ``out`` the product is written there (the same gemm) and
    ``out`` returned; the one-row case still forms its small two-row
    product first.
    """
    if len(a) == 1:
        one = (np.concatenate([a, a]) @ w)[:1]
        if out is None:
            return one
        out[...] = one
        return out
    return np.matmul(a, w, out=out)


@dataclass
class GCNLayer:
    """One graph-convolution layer ``act(Â X W + b)``."""

    weight: np.ndarray
    bias: np.ndarray
    activation: str = "relu"

    def __post_init__(self) -> None:
        # bind the activation callable once; forward paths are hot
        self.act = ACTIVATIONS[self.activation]

    @classmethod
    def create(
        cls,
        in_dim: int,
        out_dim: int,
        *,
        activation: str = "relu",
        seed: int = 0,
    ) -> "GCNLayer":
        """Seeded construction; same seed -> identical weights."""
        rng = np.random.default_rng(seed)
        return cls(
            weight=glorot(rng, in_dim, out_dim),
            bias=np.zeros(out_dim, dtype=np.float32),
            activation=activation,
        )

    @property
    def in_dim(self) -> int:
        return self.weight.shape[0]

    @property
    def out_dim(self) -> int:
        return self.weight.shape[1]

    @contract("(n, *) f -> (n, *) f")
    def combine(self, x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """The dense half (CPE): ``x @ W + b`` without the activation,
        into ``out`` when given (the same additions)."""
        if out is None:
            return _matmul_rows(x, self.weight) + self.bias
        _matmul_rows(x, self.weight, out=out)
        out += self.bias
        return out

    @contract("_, (n, *) f, ?(r,) i -> (*, *) f")
    def forward(
        self, snap: CSRSnapshot, x: np.ndarray, rows: np.ndarray | None = None
    ) -> np.ndarray:
        """Full layer: aggregate over ``snap``, combine, activate.

        Combination runs *before* aggregation when it shrinks the width
        (``out_dim < in_dim``) — the standard FLOP-minimising order that
        both the software engines and the accelerator use.  With ``rows``
        (vertex ids) only those output rows are computed and returned —
        ``forward(snap, x)[rows]`` bit for bit.
        """
        if x.shape[1] != self.in_dim:
            raise ValueError(f"input width {x.shape[1]} != layer in_dim {self.in_dim}")
        if self.out_dim < self.in_dim:
            h = snap.aggregate(self.combine(x), rows=rows)
        else:
            h = self.combine(snap.aggregate(x, rows=rows))
        return self.act(h)

    def flops(self, num_vertices: int, num_edges: int) -> int:
        """MAC count of one forward pass (aggregation + combination)."""
        combine = 2 * num_vertices * self.in_dim * self.out_dim
        agg_dim = min(self.in_dim, self.out_dim)
        aggregate = 2 * num_edges * agg_dim
        return combine + aggregate


class GCNStack:
    """A stack of GCN layers — the full GNN module of one model."""

    def __init__(self, dims: list[int], *, activation: str = "relu", seed: int = 0):
        if len(dims) < 2:
            raise ValueError("need at least [in_dim, out_dim]")
        self.layers = [
            GCNLayer.create(
                dims[i], dims[i + 1], activation=activation, seed=seed + i
            )
            for i in range(len(dims) - 1)
        ]

    @property
    def in_dim(self) -> int:
        return self.layers[0].in_dim

    @property
    def out_dim(self) -> int:
        return self.layers[-1].out_dim

    def forward(self, snap: CSRSnapshot, x: np.ndarray) -> np.ndarray:
        """Run every layer on one snapshot, producing :math:`Z^t`."""
        h = x
        for layer in self.layers:
            h = layer.forward(snap, h)
        return h

    def forward_window(
        self, snaps: list[CSRSnapshot], xs: list[np.ndarray], *, ws=None
    ) -> list[np.ndarray]:
        """Run every layer over a whole window of snapshots at once.

        The elementwise activation runs once per layer on the stacked
        ``(K*n, d)`` block — ufuncs are row-independent, so this is
        bit-identical to K per-snapshot calls.  The combine deliberately
        stays at per-snapshot shape: BLAS gemm rounding depends on the
        row count, so a stacked ``(K*n, d) @ W`` would *not* reproduce
        the per-snapshot bits and engine outputs must not depend on how
        snapshots are windowed.

        Each snapshot's layer output is written straight into its rows
        of the block, and every layer but the last activates in place.
        With ``ws`` (a leased :class:`~repro.engine.workspace.Workspace`)
        those blocks are two of its blocks used in turn, so only the
        returned last layer is allocated.
        """
        K = len(snaps)
        n = len(xs[0])
        hs = list(xs)
        for li, layer in enumerate(self.layers):
            if any(h.shape[1] != layer.in_dim for h in hs):
                raise ValueError(
                    f"input width does not match layer in_dim {layer.in_dim}"
                )
            shape = (K * n, layer.out_dim)
            dtype = np.result_type(*hs, layer.weight, layer.bias)
            last = li == len(self.layers) - 1
            if ws is None or last:
                block = np.empty(shape, dtype)
            else:  # the layer below reads the other block
                block = ws.take(f"gnn.stack{li % 2}", shape, dtype)
            for t, (s, h) in enumerate(zip(snaps, hs)):
                rows = block[t * n : (t + 1) * n]
                if layer.out_dim < layer.in_dim:
                    rows[...] = s.aggregate(layer.combine(h))
                else:
                    layer.combine(s.aggregate(h), out=rows)
            hs = np.split(layer.act(block, out=block), K)
        return hs

    def flops(self, num_vertices: int, num_edges: int) -> int:
        return sum(l.flops(num_vertices, num_edges) for l in self.layers)
