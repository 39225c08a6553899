"""What one window hands to the next.

The paper's execution loop runs a K-snapshot window and passes the
recurrent state on to the next batch; :class:`Carry` is that hand-off,
explicit.  Both engines' ``step(carry, window, ...)`` take one and return
its successor, so a batch run is a fold over it, a stream holds exactly
one, a rollback point is a :meth:`Carry.copy`, and a checkpoint
(:mod:`repro.resilience.checkpoint`) is its fields but the snapshots
written out: the feed replays those.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from ..graphs.snapshot import CSRSnapshot
from ..models.rnn import IdentityCell
from ..skipping.delta import DeltaCellCache
from .metrics import ExecutionMetrics

__all__ = ["Carry"]


def _copied(value):
    return None if value is None else value.copy()


@dataclass
class Carry:
    """Everything carried across a window boundary.

    The first group is the stream position (only
    :class:`~repro.engine.streaming.StreamingInference` moves
    ``pending`` and ``metrics``); the second is the recurrent hand-off,
    all ``None`` until the first window ran.  A ``step`` replaces every
    array it advances and never writes into its input carry — with one
    exception: ``cache`` is updated **in place**, so a caller that may
    roll back takes :meth:`copy` first.

    ``rows`` is ownership: the ascending ids of the rows this carry's
    per-vertex arrays are about (None = every row).  A row-local cell
    computes them alone (:meth:`computed_rows`); outside them the arrays
    hold zeros or stale values that no owned row's update reads, and a
    checkpoint, which stores the computed rows only, brings them back
    as zeros.
    """

    window_size: int
    rows: np.ndarray | None = None
    pending: list[CSRSnapshot] = field(default_factory=list)
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
    first: bool = True  # no snapshot executed yet

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
        copied carry leaves nothing behind."""
        if hasattr(model, "advance_window"):
            model.advance_window(self.window_index)
        if self.state is None:
            zeros = np.zeros((n, model.out_dim), dtype=np.float32)
            return model.init_state(n), zeros
        return self.state, self.h_prev

    def delta_cache(self, cell, n: int) -> DeltaCellCache | None:
        """The carried delta baseline, created on first need.  RNN-free
        models (IdentityCell) keep none: their "cell update" is free
        and always exact, so a DELTA decision is counted as FULL."""
        if self.cache is not None or isinstance(cell, IdentityCell):
            return self.cache
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
            first=False,
        )

    def copy(self) -> "Carry":
        """A rollback point: installing it later resumes from exactly
        this point whatever ran in between.  The recurrent hand-off
        (``state``, ``cache``, ``h_prev``, ``z_prev``) and the counters
        are copied; the snapshots (``pending``, ``snap_prev``) are
        shared, because no window writes a snapshot's arrays — a
        serving shard's are read-only copies
        (:meth:`~repro.graphs.snapshot.CSRSnapshot.frozen_copy`), shared
        with every other shard.  Only the ``pending`` list is new."""
        return replace(
            self,
            pending=list(self.pending),
            metrics=replace(self.metrics),
            state=_copied(self.state),
            cache=_copied(self.cache),
            h_prev=_copied(self.h_prev),
            z_prev=_copied(self.z_prev),
        )
