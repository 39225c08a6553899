"""What one window hands to the next.

The paper's execution loop runs a K-snapshot window and passes the
recurrent state on to the next batch; :class:`Carry` is that hand-off,
explicit.  Both engines' ``step(carry, window, ...)`` take one and return
its successor, so a batch run is a fold over it, a stream holds exactly
one, a rollback point is the carry itself (no window writes one), and a
checkpoint (:mod:`repro.resilience.checkpoint`) is its fields but the
snapshot written out: the feed replays it.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from ..graphs.snapshot import CSRSnapshot
from ..models.rnn import IdentityCell
from ..skipping.delta import DeltaCellCache
from .metrics import ExecutionMetrics

__all__ = ["Carry"]


@dataclass(frozen=True, eq=False)
class Carry:
    """Everything carried across a window boundary: a value.

    The first group is the stream position; the second is the
    recurrent hand-off, all ``None`` until the first window ran.  A
    ``step`` builds its successor and never writes into its input
    carry — not its arrays either (the delta baseline it advances is
    its own copy, :meth:`delta_cache`) — so a carry kept anywhere
    resumes from exactly where it was taken, as often as it is
    installed.

    ``rows`` is ownership: the ascending ids of the rows this carry's
    per-vertex arrays are about (None = every row).  A row-local cell
    computes them alone (:meth:`computed_rows`); outside them the arrays
    hold zeros or stale values that no owned row's update reads, and a
    checkpoint, which stores the computed rows only, brings them back
    as zeros.
    """

    window_size: int
    rows: np.ndarray | None = None
    timestamp: int = 0  # snapshots executed so far
    window_index: int = 0  # drives weight evolution (advance_window)
    num_vertices: int | None = None  # pinned by the first snapshot
    metrics: ExecutionMetrics = field(default_factory=ExecutionMetrics)

    state: object = None  # LSTMState / GRUState
    #: the Delta Generation baseline; the concurrent engine's only —
    #: the reference path never allocates one
    cache: DeltaCellCache | None = None
    h_prev: np.ndarray | None = None  # last released output
    z_prev: np.ndarray | None = None  # last GNN output (delta baseline)
    snap_prev: CSRSnapshot | None = None

    def computed_rows(self, model) -> np.ndarray | None:
        """The rows a window of ``model`` computes from this carry (None
        = every row): the owned rows, unless the model's cell reads its
        neighbours' state, which makes every row an input to every
        owned one.  :meth:`ConcurrentEngine.step` runs on these rows and
        the checkpoint writer stores these rows, so the two cannot
        drift apart."""
        return None if model.cell_reads_neighbours else self.rows

    def begin(self, model, n: int):
        """Open this carry's next window on ``model``; returns the
        ``(state, h_prev)`` it starts from (the model's initial state
        before the first window).  Weight-evolving (RNN-free) models
        advance per batch — idempotently, so replaying a window from a
        kept carry leaves nothing behind."""
        if hasattr(model, "advance_window"):
            model.advance_window(self.window_index)
        if self.state is None:
            zeros = np.zeros((n, model.out_dim), dtype=np.float32)
            return model.init_state(n), zeros
        return self.state, self.h_prev

    def delta_cache(self, cell, n: int) -> DeltaCellCache | None:
        """A delta baseline the window owns and may write: a copy of
        the carried one, or zeros before the first.  RNN-free models
        (IdentityCell) keep none: their "cell update" is free and always
        exact, so a DELTA decision is counted as FULL."""
        if self.cache is not None:
            return DeltaCellCache(self.cache.z_input.copy())
        if isinstance(cell, IdentityCell):
            return None
        return DeltaCellCache.zeros(cell, n)

    def advance(self, snaps, state, h_prev, z_prev, cache) -> "Carry":
        """The successor after ``snaps`` executed: position moved on by
        one window, hand-off replaced (``self`` is left as it was)."""
        return replace(
            self,
            timestamp=self.timestamp + len(snaps),
            window_index=self.window_index + 1,
            num_vertices=snaps[-1].num_vertices,
            state=state,
            cache=cache,
            h_prev=h_prev,
            z_prev=z_prev,
            snap_prev=snaps[-1],
        )
