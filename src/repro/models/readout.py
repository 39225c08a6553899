"""Readout training and the synthetic prediction task for accuracy studies.

The paper's Table 5 measures *model accuracy* of TaGNN's cell skipping
against exact inference and against prior RNN-approximation schemes.  Per
DESIGN.md, we reproduce that with a reservoir protocol:

1. a hidden **teacher** network (seeded GCN over the evolving graph, with a
   temporally-smoothed state) assigns each present vertex a class label per
   snapshot — labels thus depend on topology, features, *and* history, like
   the dynamic node-classification tasks the real datasets are used for;
2. a model variant (exact, or any approximation) produces embeddings
   :math:`H^t`;
3. a closed-form **ridge readout** is trained on the variant's own
   embeddings over training vertices and evaluated on held-out vertices.

Degrading the embeddings degrades exactly the quantity Table 5 reports,
without requiring end-to-end backprop (the readout is one NumPy solve).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..check.shapes import contract
from ..graphs.dynamic import DynamicGraph
from .layers import GCNStack

__all__ = [
    "RidgeReadout",
    "evaluate_accuracy",
    "fit_readout",
    "make_teacher_labels",
    "split_vertices",
    "test_vertex_accuracy",
]


@dataclass
class RidgeReadout:
    """Closed-form multiclass ridge classifier (one-vs-all on one-hot)."""

    reg: float = 1e-2
    weight: np.ndarray | None = None
    classes_: np.ndarray | None = None

    def fit(self, x: np.ndarray, y: np.ndarray) -> "RidgeReadout":
        """Solve ``(XᵀX + reg I) W = Xᵀ Y`` with a bias column."""
        x = np.asarray(x, dtype=np.float64)
        xb = np.concatenate([x, np.ones((len(x), 1))], axis=1)
        self.classes_ = np.unique(y)
        onehot = (y[:, None] == self.classes_[None, :]).astype(np.float64)
        gram = xb.T @ xb
        gram[np.diag_indices_from(gram)] += self.reg
        self.weight = np.linalg.solve(gram, xb.T @ onehot)
        return self

    def decision(self, x: np.ndarray) -> np.ndarray:
        if self.weight is None:
            raise RuntimeError("fit() first")
        xb = np.concatenate(
            [np.asarray(x, dtype=np.float64), np.ones((len(x), 1))], axis=1
        )
        return xb @ self.weight

    def predict(self, x: np.ndarray) -> np.ndarray:
        assert self.classes_ is not None
        return self.classes_[np.argmax(self.decision(x), axis=1)]

    def accuracy(self, x: np.ndarray, y: np.ndarray) -> float:
        return float(np.mean(self.predict(x) == y))


@contract("_, int, int -> (t, n) i64")
def make_teacher_labels(
    window: DynamicGraph, num_classes: int = 4, *, seed: int = 1234
) -> np.ndarray:
    """Per-snapshot class labels from a hidden teacher network.

    The teacher is a seeded 2-layer GCN whose per-snapshot logits are
    blended with an exponential moving average over time (so labels carry
    temporal information an RNN can exploit).  Returns an ``(T, n)`` int
    array; absent vertices get label -1.
    """
    teacher = GCNStack([window.dim, num_classes], activation="tanh", seed=seed)
    labels = np.full((window.num_snapshots, window.num_vertices), -1, dtype=np.int64)
    ema: np.ndarray | None = None
    for t, snap in enumerate(window):
        logits = teacher.forward(snap, snap.features).astype(np.float64)
        ema = logits if ema is None else 0.6 * ema + 0.4 * logits
        labels[t, snap.present] = np.argmax(ema[snap.present], axis=1)
    return labels


@contract("n, float, int -> (*,) i64, (*,) i64")
def split_vertices(
    num_vertices: int, train_frac: float = 0.6, *, seed: int = 7
) -> tuple[np.ndarray, np.ndarray]:
    """Deterministic train/test vertex split."""
    rng = np.random.default_rng(seed)
    perm = rng.permutation(num_vertices)
    k = int(round(train_frac * num_vertices))
    return np.sort(perm[:k]), np.sort(perm[k:])


def _gather_samples(embeddings, labels, window, mask):
    xs, ys = [], []
    for t, snap in enumerate(window):
        valid = snap.present & (labels[t] >= 0) & mask
        xs.append(embeddings[t][valid])
        ys.append(labels[t][valid])
    return np.concatenate(xs), np.concatenate(ys)


@contract("_, (t, n) i, _, float, float, int -> _")
def fit_readout(
    embeddings: list[np.ndarray],
    labels: np.ndarray,
    window: DynamicGraph,
    *,
    train_frac: float = 0.6,
    reg: float = 1e-2,
    seed: int = 7,
) -> RidgeReadout:
    """Train the readout on training-vertex samples of these embeddings."""
    if len(embeddings) != labels.shape[0]:
        raise ValueError("embeddings/labels snapshot count mismatch")
    train_v, _ = split_vertices(window.num_vertices, train_frac, seed=seed)
    train_mask = np.zeros(window.num_vertices, dtype=bool)
    train_mask[train_v] = True
    x_tr, y_tr = _gather_samples(embeddings, labels, window, train_mask)
    return RidgeReadout(reg=reg).fit(x_tr, y_tr)


@contract("_, (t, n) i, _, _, float, int -> float")
def test_vertex_accuracy(
    embeddings: list[np.ndarray],
    labels: np.ndarray,
    window: DynamicGraph,
    readout: RidgeReadout,
    *,
    train_frac: float = 0.6,
    seed: int = 7,
) -> float:
    """Held-out-vertex accuracy of ``embeddings`` under a given readout.

    This is Table 5's deployment protocol: the readout is trained once on
    the *exact* model's embeddings (the trained network), then each
    approximation scheme is evaluated under that fixed readout — an
    approximation that shifts the embedding distribution pays for it, as
    it would in a deployed model.
    """
    if len(embeddings) != labels.shape[0]:
        raise ValueError("embeddings/labels snapshot count mismatch")
    train_v, _ = split_vertices(window.num_vertices, train_frac, seed=seed)
    train_mask = np.zeros(window.num_vertices, dtype=bool)
    train_mask[train_v] = True
    x_te, y_te = _gather_samples(embeddings, labels, window, ~train_mask)
    return readout.accuracy(x_te, y_te)


@contract("_, (t, n) i, _, float, float, int, _ -> float")
def evaluate_accuracy(
    embeddings: list[np.ndarray],
    labels: np.ndarray,
    window: DynamicGraph,
    *,
    train_frac: float = 0.6,
    reg: float = 1e-2,
    seed: int = 7,
    readout: RidgeReadout | None = None,
) -> float:
    """Held-out accuracy of a variant's embeddings.

    Without ``readout``, trains on the variant's own embeddings (the
    self-trained protocol); with ``readout``, evaluates under the given
    fixed readout (the deployment protocol used for Table 5).
    """
    if readout is None:
        readout = fit_readout(
            embeddings, labels, window, train_frac=train_frac, reg=reg, seed=seed
        )
    return test_vertex_accuracy(
        embeddings, labels, window, readout, train_frac=train_frac, seed=seed
    )
