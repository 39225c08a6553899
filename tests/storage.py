"""Storage-format oracle shared by the equivalence tests."""

import numpy as np


def all_edges(store) -> np.ndarray:
    """A store's content as a canonical sorted ``(source, target,
    timestamp)`` array, read through its scalar ``gather()`` so formats
    with different layouts compare equal exactly when they store the
    same edges."""
    rows = []
    for s in store.selection.sources.tolist():
        tgt, ts = store.gather(s)
        rows.extend((s, t_, k_) for t_, k_ in zip(tgt.tolist(), ts.tolist()))
    if not rows:
        return np.empty((0, 3), dtype=np.int64)
    e = np.array(rows, dtype=np.int64)
    return e[np.lexsort((e[:, 1], e[:, 2], e[:, 0]))]
