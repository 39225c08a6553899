"""Streaming (push-based) DGNN inference.

Production dynamic-graph services do not hold the whole history in
memory: snapshots arrive one at a time and results must come out with
bounded latency.  :class:`StreamingInference` wraps the TaGNN-S engine
in a push API:

- ``push(snapshot)`` appends one snapshot; once a full window has
  accumulated, the window is processed (classification, multi-snapshot
  GNN, similarity-gated cell updates) and the per-snapshot results come
  back;
- ``flush()`` processes a trailing partial window;
- recurrent state, the last GNN output, and weight-evolution state carry
  across windows exactly as in the batch engine — a test invariant is
  that pushing snapshot-by-snapshot produces **the same outputs** as one
  batch run over the whole sequence.

A complete window is re-packed into a ``DynamicGraph``, classified,
and handed to :meth:`ConcurrentEngine.step` — the same method the batch
``run`` folds over — so all batching semantics live in exactly one
place, and everything the stream remembers between windows is one
:class:`~repro.engine.carry.Carry` plus the snapshots it has buffered
towards the next window.  A stream built with a ``planner``
is the one loop that plans windows at runtime (:mod:`repro.adaptive`):
it profiles each window, asks for a plan, drift-probes it when the
planner asks, executes it, and records its latency on the audit trail.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace

import numpy as np

from ..analysis.classify import classify_window
from ..graphs.dynamic import DynamicGraph
from ..graphs.snapshot import CSRSnapshot, absent_row_violation
from ..models.base import DGNNModel
from ..skipping.policy import SkipThresholds
from .carry import Carry
from .concurrent import ConcurrentEngine
from .metrics import ExecutionMetrics

__all__ = ["StreamingInference", "StreamResult"]


@dataclass
class StreamResult:
    """Outputs released by one push/flush call."""

    timestamps: list[int]
    outputs: list[np.ndarray]
    metrics: ExecutionMetrics = field(default_factory=ExecutionMetrics)


class StreamingInference:
    """Push-based wrapper around the topology-aware concurrent engine.

    ``rows`` (vertex ids; None = all) makes this an *owned-row* stream,
    one shard of a partitioned deployment: it reads whole snapshots but
    computes, and releases valid output for, those rows only — each bit
    for bit the unrestricted stream's (every other released row is zero
    or stale).  The ownership rides in the :class:`Carry`.

    ``planner`` (an :class:`~repro.adaptive.AdaptivePlanner`; None =
    the static configuration) plans every window this stream executes.
    """

    def __init__(
        self,
        model: DGNNModel,
        *,
        window_size: int = 4,
        thresholds: SkipThresholds | None = None,
        enable_skipping: bool = True,
        planner=None,
        rows=None,
    ):
        self.model = model
        self.window_size = window_size
        self._engine = ConcurrentEngine(  # validates window_size
            model,
            window_size=window_size,
            thresholds=thresholds,
            enable_skipping=enable_skipping,
        )
        self.planner = planner
        if rows is not None:
            rows = np.unique(np.asarray(rows, dtype=np.int64))
            if rows.size and rows[0] < 0:
                raise ValueError(f"owned row ids must be >= 0, got {rows[0]}")
        self._carry = Carry(window_size=window_size, rows=rows)
        self._buffer: list[CSRSnapshot] = []  # the next window, so far

    # ------------------------------------------------------------------
    @property
    def pending(self) -> int:
        """Snapshots buffered but not yet processed."""
        return len(self._buffer)

    @property
    def metrics(self) -> ExecutionMetrics:
        """Aggregate counters over everything processed so far."""
        return self._carry.metrics

    @property
    def timestamp(self) -> int:
        """Snapshots processed so far (the next window's first step)."""
        return self._carry.timestamp

    @property
    def window_index(self) -> int:
        """Windows processed so far."""
        return self._carry.window_index

    @property
    def num_vertices(self) -> int | None:
        """Vertex count pinned by the first push (None before it)."""
        return self._carry.num_vertices

    @property
    def rows(self) -> np.ndarray | None:
        """Ascending ids of the rows this stream owns (None = all)."""
        return self._carry.rows

    def push(self, snapshot: CSRSnapshot) -> StreamResult | None:
        """Append one snapshot; returns results when a window completes.

        Shape mismatches fail *here* with a clear message rather than as
        a numpy broadcast error deep inside the window processing: the
        feature dimension must match the model's input width and the
        vertex count must equal the first pushed snapshot's.  So does a
        snapshot outside the canonical form, whose absent vertex holds
        edges: the window's changed-row counters would miss the hop
        through it.
        """
        carry = self._carry
        if snapshot.dim != self.model.in_dim:
            raise ValueError(
                f"snapshot feature dimension {snapshot.dim} does not match"
                f" model input dimension {self.model.in_dim}"
            )
        reason = absent_row_violation(snapshot.indptr, snapshot.present)
        if reason is not None:
            raise ValueError(reason)
        if carry.num_vertices is None:
            owned = carry.rows
            if owned is not None and owned.size and owned[-1] >= snapshot.num_vertices:
                raise ValueError(
                    f"owned row {owned[-1]} is outside the snapshot's"
                    f" {snapshot.num_vertices} vertices"
                )
            self._carry = replace(carry, num_vertices=snapshot.num_vertices)
        elif snapshot.num_vertices != carry.num_vertices:
            raise ValueError(
                f"snapshot vertex count changed mid-stream: got"
                f" {snapshot.num_vertices}, stream carries"
                f" {carry.num_vertices}"
            )
        self._buffer.append(snapshot)
        if len(self._buffer) < self.window_size:
            return None
        return self._process_window()

    def flush(self) -> StreamResult | None:
        """Process a trailing partial window (end of stream)."""
        if not self._buffer:
            return None
        return self._process_window()

    @property
    def buffered(self) -> list[CSRSnapshot]:
        """The snapshots buffered towards the next window (a new list)."""
        return list(self._buffer)

    # ------------------------------------------------------------------
    def _process_window(self) -> StreamResult:
        engine, carry = self._engine, self._carry
        window = DynamicGraph(
            self._buffer, name=f"stream[{carry.timestamp}]"
        )
        self._buffer = []
        for off, s in enumerate(window.snapshots):
            s.timestamp = carry.timestamp + off
        m = ExecutionMetrics()
        cls = classify_window(window)
        planner = self.planner
        if planner is None:
            carry, outputs = engine.step(carry, window, cls, None, m)
            return self._commit(carry, outputs, m)
        from ..adaptive import profile_window, relative_drift

        plan = planner.plan(profile_window(window, cls, self.model))

        # Drift probe: run this window from the same carry at the
        # *default* thresholds and drop the result, then run the
        # tuned plan — the relative divergence between the two output
        # sets is exactly the quantity the drift budget bounds.  While
        # the controller is still at the defaults the divergence is zero
        # by construction, so the probe is free — that zero is what
        # bootstraps the aggressiveness ramp.
        probe = planner.wants_probe()
        baseline: list[np.ndarray] | None = None
        if probe and plan.thresholds != SkipThresholds():
            _, baseline = engine.step(
                carry,
                window,
                cls,
                replace(plan, thresholds=SkipThresholds()),
                ExecutionMetrics(),
            )

        t0 = time.perf_counter()  # repro: noqa R001 — plan audit latency, recorded on PlanRecord, read by no decision
        carry, outputs = engine.step(carry, window, cls, plan, m)
        elapsed = time.perf_counter() - t0  # repro: noqa R001 — plan audit latency, recorded on PlanRecord, read by no decision
        planner.observe(plan, elapsed)

        if probe:
            planner.observe_drift(
                0.0 if baseline is None else relative_drift(baseline, outputs)
            )
            m.drift_probes += 1
        return self._commit(carry, outputs, m)

    def _commit(self, carry: Carry, outputs, m) -> StreamResult:
        """Make ``carry`` the stream's, folding the window's counters
        into the cumulative ones."""
        self._carry = replace(carry, metrics=carry.metrics.merge(m))
        return StreamResult(
            timestamps=list(
                range(carry.timestamp - len(outputs), carry.timestamp)
            ),
            outputs=outputs,
            metrics=m,
        )

    # ------------------------------------------------------------------
    # carry-state checkpointing (repro.resilience.checkpoint)
    # ------------------------------------------------------------------
    @property
    def carry(self) -> Carry:
        """The carry at the last window boundary: a value no later
        window writes, so it is also a rollback point
        (:mod:`repro.resilience.checkpoint` serialises it)."""
        return self._carry

    def restore_carry(self, carry: Carry) -> None:
        """Install ``carry`` (another stream's :attr:`carry` or a loaded
        checkpoint) and drop the buffered snapshots; fed from
        ``carry.timestamp`` on, the stream resumes bit-identically.

        The stream keeps its own ``rows``; a carry whose state does not
        cover them (it was captured by a stream owning other rows) is
        refused.  The model/config must match the one the carry was
        captured from; a checkpoint is loaded without a model, so its
        baseline's width is checked against the cell here.
        """
        if carry.window_size != self.window_size:
            raise ValueError(
                f"checkpoint window_size {carry.window_size} does not"
                f" match stream window_size {self.window_size}"
            )
        h_prev = carry.h_prev
        if h_prev is not None and h_prev.shape[1] != self.model.out_dim:
            raise ValueError(
                f"checkpoint output width {h_prev.shape[1]} does not"
                f" match model out_dim {self.model.out_dim}"
            )
        owned = self._carry.rows
        if carry.rows is not None and (
            owned is None or not np.isin(owned, carry.rows).all()
        ):
            raise ValueError(
                f"checkpoint state is valid on {len(carry.rows)} owned rows"
                " only and does not cover the rows this stream owns"
            )
        if carry.cache is not None:
            carry.cache.check(self.model.cell)  # an identity cell fits none
        self._carry = replace(carry, rows=owned)
        self._buffer = []

    # ------------------------------------------------------------------
    # graceful degradation (repro.resilience.supervisor)
    # ------------------------------------------------------------------
    def adopt_window(
        self, carry: Carry, outputs: list[np.ndarray], metrics: ExecutionMetrics
    ) -> StreamResult:
        """Install a window executed outside the stream.

        The resilience supervisor calls this with the successor carry
        and outputs of :meth:`ReferenceEngine.step` run from the
        stream's carry; the stream continues as if it had processed the
        window itself.  The reference path keeps no delta baseline, so
        the successor carries its own copy (or zeros) set to the
        window's last GNN output on the present rows: later windows'
        DELTA rows count their deltas against it.
        """
        last = carry.snap_prev
        cache = carry.delta_cache(self.model.cell, last.num_vertices)
        if cache is not None:
            cache.reset(np.flatnonzero(last.present), carry.z_prev)
        self._buffer = []
        return self._commit(replace(carry, cache=cache), outputs, metrics)
