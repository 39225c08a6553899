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

Internally each complete window is re-packed into a ``DynamicGraph`` and
driven through :class:`ConcurrentEngine`'s window path, so all batching
semantics live in exactly one place.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..graphs.dynamic import DynamicGraph
from ..graphs.snapshot import CSRSnapshot
from ..models.base import DGNNModel
from ..skipping.policy import SkipThresholds
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
    """Push-based wrapper around the topology-aware concurrent engine."""

    def __init__(
        self,
        model: DGNNModel,
        *,
        window_size: int = 4,
        thresholds: SkipThresholds | None = None,
        enable_skipping: bool = True,
        planner=None,
    ):
        if window_size < 1:
            raise ValueError("window_size must be >= 1")
        self.model = model
        self.window_size = window_size
        self._engine = ConcurrentEngine(
            model,
            window_size=window_size,
            thresholds=thresholds,
            enable_skipping=enable_skipping,
            planner=planner,
        )
        self._pending: list[CSRSnapshot] = []
        self._timestamp = 0
        self._window_index = 0
        self._metrics = ExecutionMetrics()
        self._num_vertices: int | None = None  # pinned by the first push
        # carried engine state (mirrors ConcurrentEngine.run locals)
        self._state = None
        self._cache = None
        self._h_prev: np.ndarray | None = None
        self._z_prev: np.ndarray | None = None
        self._snap_prev: CSRSnapshot | None = None
        self._first = True

    # ------------------------------------------------------------------
    @property
    def pending(self) -> int:
        """Snapshots buffered but not yet processed."""
        return len(self._pending)

    @property
    def metrics(self) -> ExecutionMetrics:
        """Aggregate counters over everything processed so far."""
        return self._metrics

    @property
    def planner(self):
        """The adaptive planner driving this stream (None when static)."""
        return self._engine.planner

    def push(self, snapshot: CSRSnapshot) -> StreamResult | None:
        """Append one snapshot; returns results when a window completes.

        Shape mismatches fail *here* with a clear message rather than as
        a numpy broadcast error deep inside the window processing: the
        feature dimension must match the model's input width and the
        vertex count must equal the first pushed snapshot's.
        """
        if snapshot.dim != self.model.in_dim:
            raise ValueError(
                f"snapshot feature dimension {snapshot.dim} does not match"
                f" model input dimension {self.model.in_dim}"
            )
        if self._num_vertices is None:
            self._num_vertices = snapshot.num_vertices
        elif snapshot.num_vertices != self._num_vertices:
            raise ValueError(
                f"snapshot vertex count changed mid-stream: got"
                f" {snapshot.num_vertices}, stream carries"
                f" {self._num_vertices}"
            )
        self._pending.append(snapshot)
        if len(self._pending) < self.window_size:
            return None
        return self._process_window()

    def flush(self) -> StreamResult | None:
        """Process a trailing partial window (end of stream)."""
        if not self._pending:
            return None
        return self._process_window()

    # ------------------------------------------------------------------
    def _process_window(self) -> StreamResult:
        from ..analysis.classify import classify_window
        from ..models.rnn import IdentityCell
        from ..skipping.delta import DeltaCellCache

        snaps = self._pending
        self._pending = []
        first_ts = self._timestamp
        window = DynamicGraph(list(snaps), name=f"stream[{first_ts}]")
        for off, s in enumerate(window.snapshots):
            s.timestamp = first_ts + off
        self._timestamp += len(snaps)

        engine = self._engine
        model = self.model
        n = window.num_vertices
        if self._state is None:
            self._state = model.init_state(n)
            self._cache = (
                None
                if isinstance(model.cell, IdentityCell)
                else DeltaCellCache(model.cell, n)
            )
            self._h_prev = np.zeros((n, model.out_dim), dtype=np.float32)

        if hasattr(model, "advance_window"):
            model.advance_window(self._window_index)

        m = ExecutionMetrics()
        cls = classify_window(window)
        plan = engine.plan_window(m, window, cls)

        # Drift probe: replay this window from the same carried state at
        # the *default* thresholds, roll back, then run the tuned plan —
        # the relative divergence between the two output sets is exactly
        # the quantity the drift budget bounds.  While the controller is
        # still at the defaults the divergence is zero by construction,
        # so the probe is free — that zero is what bootstraps the
        # aggressiveness ramp.
        probe = plan is not None and engine.planner.wants_probe()
        replay = probe and plan.thresholds != SkipThresholds()
        baseline: list[np.ndarray] | None = None
        if replay:
            from dataclasses import replace as _dc_replace

            carry = self.carry_state()
            baseline = self._execute_window(
                window,
                cls,
                _dc_replace(plan, thresholds=SkipThresholds()),
                ExecutionMetrics(),
                observe=False,
            )
            self.restore_carry(carry)

        outputs = self._execute_window(window, cls, plan, m, observe=True)

        if probe:
            if replay:
                from ..adaptive import relative_drift

                drift = relative_drift(baseline, outputs)
            else:
                drift = 0.0
            engine.planner.observe_drift(drift)
            m.drift_probes += 1

        m.windows_processed += 1
        self._window_index += 1
        self._metrics = self._metrics.merge(m)
        return StreamResult(
            timestamps=list(range(first_ts, self._timestamp)),
            outputs=outputs,
            metrics=m,
        )

    def _execute_window(
        self,
        window: DynamicGraph,
        cls,
        plan,
        m: ExecutionMetrics,
        *,
        observe: bool,
    ) -> list[np.ndarray]:
        """Run one window under ``plan`` (or the static configuration
        when ``plan`` is None), committing the carried stream state."""
        import time

        engine = self._engine
        union = engine._window_union(window, plan)
        engine._account_overhead(
            m, window, engine._subgraph_vertices(window, cls, union)
        )
        base_modes = (m.cells_full, m.cells_delta, m.cells_skipped)
        base_delta_nnz = m.delta_nnz
        outputs: list[np.ndarray] = []
        decisions: list = []
        t0 = time.perf_counter()  # repro: noqa R001 — planner latency feedback, not simulated time
        with engine._plan_context(plan):
            zs = engine._gnn_window(m, window, cls, union)
            for t, snap in enumerate(window):
                self._h_prev, self._state = engine._rnn_step(
                    m,
                    snap,
                    zs[t],
                    self._z_prev,
                    self._snap_prev,
                    self._state,
                    self._cache,
                    cls,
                    self._h_prev,
                    first=self._first
                    or (t == 0 and engine.refresh_each_window),
                    decisions=decisions,
                )
                outputs.append(self._h_prev.copy())
                self._z_prev, self._snap_prev = zs[t], snap
                self._first = False
                m.snapshots_processed += 1
        if observe and plan is not None:
            elapsed = time.perf_counter() - t0  # repro: noqa R001 — planner latency feedback
            engine.planner.observe(plan, elapsed)
        m.record_window_modes(
            m.cells_full - base_modes[0],
            m.cells_delta - base_modes[1],
            m.cells_skipped - base_modes[2],
        )
        engine._update_delta_probe(
            m.cells_delta - base_modes[1], m.delta_nnz - base_delta_nnz
        )
        return outputs

    # ------------------------------------------------------------------
    # carry-state checkpointing (repro.resilience.checkpoint)
    # ------------------------------------------------------------------
    def carry_state(self) -> dict:
        """Deep copy of every value carried across windows.

        The returned mapping is fully detached from the live stream
        (all arrays copied), so :meth:`restore_carry` rolls back to
        exactly this point no matter what ran in between.  The keys are
        the contract :mod:`repro.resilience.checkpoint` serialises.
        """
        cache = None
        if self._cache is not None:
            cache = {
                "zx": self._cache.zx.copy(),
                "zh": self._cache.zh.copy(),
                "z_input": self._cache.z_input.copy(),
            }
        return {
            "window_size": self.window_size,
            "pending": [s.copy() for s in self._pending],
            "timestamp": self._timestamp,
            "window_index": self._window_index,
            "metrics": ExecutionMetrics(**self._metrics.as_dict()),
            "state": None if self._state is None else self._state.copy(),
            "cache": cache,
            "h_prev": None if self._h_prev is None else self._h_prev.copy(),
            "z_prev": None if self._z_prev is None else self._z_prev.copy(),
            "snap_prev": (
                None if self._snap_prev is None else self._snap_prev.copy()
            ),
            "first": self._first,
            "num_vertices": self._num_vertices,
        }

    def restore_carry(self, carry: dict) -> None:
        """Install a carry mapping produced by :meth:`carry_state`.

        The stream resumes bit-identically from the captured boundary.
        The carry is copied in, so one checkpoint can be restored any
        number of times.  The model/config must match the one the carry
        was captured from.
        """
        from ..models.rnn import IdentityCell
        from ..skipping.delta import DeltaCellCache

        if carry["window_size"] != self.window_size:
            raise ValueError(
                f"checkpoint window_size {carry['window_size']} does not"
                f" match stream window_size {self.window_size}"
            )
        h_prev = carry["h_prev"]
        if h_prev is not None and h_prev.shape[1] != self.model.out_dim:
            raise ValueError(
                f"checkpoint output width {h_prev.shape[1]} does not"
                f" match model out_dim {self.model.out_dim}"
            )
        self._pending = [s.copy() for s in carry["pending"]]
        self._timestamp = carry["timestamp"]
        self._window_index = carry["window_index"]
        self._metrics = ExecutionMetrics(**carry["metrics"].as_dict())
        state = carry["state"]
        self._state = None if state is None else state.copy()
        cache = carry["cache"]
        if cache is None:
            self._cache = None
        else:
            if isinstance(self.model.cell, IdentityCell):
                raise ValueError(
                    "checkpoint carries a delta cache but the model has"
                    " an identity cell"
                )
            rebuilt = DeltaCellCache(self.model.cell, cache["zx"].shape[0])
            rebuilt.zx[...] = cache["zx"]
            rebuilt.zh[...] = cache["zh"]
            rebuilt.z_input[...] = cache["z_input"]
            self._cache = rebuilt
        self._h_prev = None if h_prev is None else h_prev.copy()
        z_prev = carry["z_prev"]
        self._z_prev = None if z_prev is None else z_prev.copy()
        snap_prev = carry["snap_prev"]
        self._snap_prev = None if snap_prev is None else snap_prev.copy()
        self._first = carry["first"]
        self._num_vertices = carry["num_vertices"]

    # ------------------------------------------------------------------
    # graceful degradation (repro.resilience.supervisor)
    # ------------------------------------------------------------------
    def adopt_window(
        self,
        snapshots: list[CSRSnapshot],
        outputs: list[np.ndarray],
        state,
        z_last: np.ndarray,
        metrics: ExecutionMetrics,
    ) -> StreamResult:
        """Install externally-computed results for the pending window.

        The resilience supervisor calls this after re-executing a failed
        window on the exact reference path: the stream adopts the given
        outputs/state as if it had processed the window itself, clears
        the pending buffer, and refreshes the delta cache so later
        windows' DELTA-mode updates read consistent pre-activations.
        """
        from ..models.rnn import IdentityCell
        from ..skipping.delta import DeltaCellCache

        if not snapshots or len(snapshots) != len(outputs):
            raise ValueError("adopt_window needs one output per snapshot")
        first_ts = self._timestamp
        last = snapshots[-1]
        self._pending = []
        self._timestamp += len(snapshots)
        self._window_index += 1
        self._state = state
        self._h_prev = outputs[-1].copy()
        self._z_prev = z_last
        self._snap_prev = last
        self._first = False
        self._num_vertices = last.num_vertices
        if self._cache is None and not isinstance(
            self.model.cell, IdentityCell
        ):
            self._cache = DeltaCellCache(self.model.cell, last.num_vertices)
        if self._cache is not None:
            rows = np.flatnonzero(last.present)
            self._cache.refresh(
                rows, z_last, self.model.recurrent_drive(state, last)
            )
        self._metrics = self._metrics.merge(metrics)
        return StreamResult(
            timestamps=list(range(first_ts, self._timestamp)),
            outputs=outputs,
            metrics=metrics,
        )
