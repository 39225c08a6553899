"""TaGNN-S: the topology-aware concurrent execution engine (software).

This is the paper's approach in software form (evaluated as *TaGNN-S* in
Figs. 8–9):

1. **Window classification** — vertices of a K-snapshot window are split
   into unaffected / stable / affected (:mod:`repro.analysis.classify`).
   The engine's unit of recomputation is the per-layer row mask grown
   from those labels; the stable-rooted DFS order is the O-CSR layout
   order, consumed by the accelerator model only (:mod:`repro.accel`).
2. **Multi-snapshot GNN** — snapshot 0 of the window is computed once as
   the *representative*; for later snapshots only the per-layer *changed
   sets* are recomputed.  The changed set of layer ``i`` is the closed
   (i-1)-hop neighbourhood of the stable∪affected set over the window's
   snapshots: an unaffected vertex's layer-1 output is provably identical
   across the window, but deeper layers see change leaking in one hop per
   layer.  This makes the GNN phase *exact* while loading/computing
   unaffected vertices once per layer, as the paper claims.
3. **Similarity-aware cell skipping** — per consecutive snapshot pair,
   stable/affected vertices are scored with :math:`\\theta`; SKIP rows
   reuse the previous final feature, DELTA rows take the condensed
   partial update, FULL rows run the real cell.  Unaffected vertices are
   skipped directly without scoring (their :math:`\\theta` is exactly 1).

With ``enable_skipping=False`` the engine's outputs are bit-comparable to
the reference engine (a test invariant); with skipping on they differ by
the bounded approximation the accuracy benches quantify.
"""

from __future__ import annotations

import time

import numpy as np

from ..analysis.classify import classify_window
from ..analysis.similarity import similarity_scores
from ..graphs.dynamic import DynamicGraph
from ..models.base import DGNNModel
from ..skipping.policy import CellUpdateMode, SkippingPolicy, SkipThresholds
from .carry import Carry
from .metrics import ExecutionMetrics
from .reference import EngineResult
from .workspace import WORKSPACE

__all__ = ["ConcurrentEngine"]


class ConcurrentEngine:
    """The TaGNN-S engine.

    Parameters
    ----------
    model:
        Any :class:`DGNNModel`.
    window_size:
        Snapshots processed concurrently (paper default 4).
    thresholds:
        Skipping thresholds; defaults to the Fig. 14(a) optimum.
    epsilon:
        Delta-mode zero threshold fed to the Condense Unit.
    enable_overlap:
        The OADL half (multi-snapshot GNN with changed-set propagation).
        Off = recompute every vertex per snapshot (ablation WO/OADL).
    enable_skipping:
        The ADSC half (similarity-gated cell updates).  Off = full cell
        update everywhere (ablation WO/ADSC) and the engine is exact.
    planner:
        Optional :class:`~repro.adaptive.AdaptivePlanner`.  When set,
        each window is profiled and executed under the planner's
        :class:`~repro.adaptive.ExecutionPlan` — kernel and threshold
        choices per window — with each window's realized latency
        recorded on the planner's audit trail.
    """

    name = "TaGNN-S"

    def __init__(
        self,
        model: DGNNModel,
        *,
        window_size: int = 4,
        thresholds: SkipThresholds | None = None,
        epsilon: float = 1e-3,
        enable_overlap: bool = True,
        enable_skipping: bool = True,
        refresh_each_window: bool = True,
        planner=None,
    ):
        if window_size < 1:
            raise ValueError("window_size must be >= 1")
        self.model = model
        self.window_size = window_size
        self.policy = SkippingPolicy(thresholds)
        self.epsilon = epsilon
        self.enable_overlap = enable_overlap
        self.enable_skipping = enable_skipping
        #: full cell update on the first snapshot of each batch — the
        #: paper's per-batch recalculation that stops error accumulating
        #: over prolonged skipping (ablated by the design benches)
        self.refresh_each_window = refresh_each_window
        self.planner = planner

    # ------------------------------------------------------------------
    def run(self, graph: DynamicGraph) -> EngineResult:
        """Batch inference: a fold of :meth:`step` over ``graph``'s
        disjoint K-snapshot windows."""
        m = ExecutionMetrics()
        carry = Carry(window_size=self.window_size)
        outputs: list[np.ndarray] = []
        decisions: list = []
        classifications = []
        plans = []
        k = self.window_size
        for start in range(0, graph.num_snapshots, k):
            window = graph.window(start, min(k, graph.num_snapshots - start))
            cls = classify_window(window)
            plan = self.plan_window(m, window, cls)
            if plan is not None:
                plans.append(plan)
            classifications.append(cls)
            carry, outs = self.step(
                carry, window, cls, plan, m, decisions=decisions
            )
            outputs.extend(outs)

        extra = {"decisions": decisions, "classifications": classifications}
        if self.planner is not None:
            extra["plans"] = plans
        return EngineResult(outputs, m, extra=extra)

    def step(
        self,
        carry: Carry,
        window: DynamicGraph,
        cls,
        plan,
        m: ExecutionMetrics,
        *,
        decisions: list | None = None,
    ) -> tuple[Carry, list[np.ndarray]]:
        """Execute one classified window from ``carry`` — the only copy
        of the window body; returns ``(successor, outputs)``.

        ``plan`` (None = the static configuration) is an argument, never
        ambient state, and reaches the window body as two locals:
        ``overlap`` (``delta-condensed`` keeps the OADL changed-set path,
        ``batched-spmm`` recomputes every snapshot in full — bit-identical
        by construction, tests/adaptive) and ``policy`` (the plan's
        thresholds).  The elapsed time goes to the planner's audit trail
        (a drift probe's replayed plan is a copy and matches no record).

        ``carry.rows`` (None = every row) are the rows this window
        computes: the last GCN layer, the cell update, the similarity
        scores and the delta cache run on them alone, and every bit of
        an owned row is the full engine's (``_owned_closure``).  A model
        whose cell reads its neighbours' state runs every row whatever
        the carry owns.

        ``carry`` is left as it was except for its delta cache, updated
        **in place** (a copy per window would tax every plain stream): a
        caller that may roll back takes ``carry.copy()`` first.

        The window body holds the lease on the process's scratch
        :data:`~repro.engine.workspace.WORKSPACE`; its large temporaries
        live there, and nothing it returns or carries aliases a block.
        """
        model = self.model
        n = window.num_vertices
        owned = None if model.cell_reads_neighbours else carry.rows
        owned_mask = None
        if owned is not None:
            owned_mask = np.zeros(n, dtype=bool)
            owned_mask[owned] = True
        overlap, policy = self.enable_overlap, self.policy
        if plan is not None:
            from ..adaptive import KernelChoice

            overlap = plan.kernel is KernelChoice.DELTA_CONDENSED
            policy = SkippingPolicy(plan.thresholds)
        if decisions is None:
            decisions = []
        state, h_prev = carry.begin(model, n)
        z_prev, snap_prev, first = carry.z_prev, carry.snap_prev, carry.first
        cache = carry.delta_cache(model.cell, n)

        self._account_overhead(m, window, cls)

        base_modes = (m.cells_full, m.cells_delta, m.cells_skipped)
        outputs: list[np.ndarray] = []
        t0 = time.perf_counter()  # repro: noqa R001 — plan audit latency, recorded on PlanRecord, read by no decision
        with WORKSPACE.lease() as ws:
            zs = self._gnn_window(m, window, cls, overlap, owned, ws)
            for t, snap in enumerate(window):
                # The first snapshot of every batch takes the full cell
                # update: the paper "recalculates similarity scores for
                # each vertex in the new batch, rather than reusing
                # scores and skipping decisions" to stop error
                # accumulating over prolonged skipping — a periodic
                # state refresh is what bounds the drift (and what
                # keeps Table 5's loss < 1%).
                h_prev, state = self._rnn_step(
                    m,
                    snap,
                    zs[t],
                    z_prev,
                    snap_prev,
                    state,
                    cache,
                    cls,
                    h_prev,
                    owned_mask,
                    ws,
                    first=first or (t == 0 and self.refresh_each_window),
                    policy=policy,
                    decisions=decisions,
                )
                outputs.append(h_prev.copy())
                z_prev, snap_prev = zs[t], snap
                first = False
        if plan is not None and self.planner is not None:
            elapsed = time.perf_counter() - t0  # repro: noqa R001 — plan audit latency, recorded on PlanRecord, read by no decision
            self.planner.observe(plan, elapsed)
        m.record_window_modes(
            m.cells_full - base_modes[0],
            m.cells_delta - base_modes[1],
            m.cells_skipped - base_modes[2],
        )
        m.snapshots_processed += len(outputs)
        m.windows_processed += 1
        successor = carry.advance(
            window.snapshots, state, h_prev, z_prev, cache
        )
        return successor, outputs

    # ------------------------------------------------------------------
    # adaptive planning support (repro.adaptive)
    # ------------------------------------------------------------------
    def plan_window(self, m, window, cls):
        """Profile the window and ask the planner for an
        :class:`~repro.adaptive.ExecutionPlan` (None without a planner)."""
        if self.planner is None:
            return None
        from ..adaptive import profile_window

        plan = self.planner.plan(profile_window(window, cls, self.model))
        m.windows_planned += 1
        return plan

    # ------------------------------------------------------------------
    # GNN phase
    # ------------------------------------------------------------------
    def _gnn_window(self, m, window, cls, overlap, owned, ws) -> list[np.ndarray]:
        """Multi-snapshot GNN with changed-set propagation (exact).

        With ``owned`` (ascending ids) layer ``l`` is computed on
        ``need[l]`` only — :func:`_owned_closure` — and its other rows
        are zeros nothing reads.  At the later snapshots every layer's
        input is a workspace block (``ws``); the GNN outputs are kept,
        so they are allocated."""
        model = self.model
        layers = model.gnn.layers
        n = window.num_vertices
        if not overlap:
            # ablation WO/OADL: every snapshot fully recomputed through
            # the window kernel, on every row (a superset is exact)
            zs = model.gnn_forward_window(window.snapshots, ws=ws)
            for snap in window:
                self._account_full_gnn(m, snap, [None] * len(layers))
            return zs

        need = _owned_closure(window, owned, len(layers))

        # --- representative pass on snapshot 0 of the window -----------
        # For shrinking layers the combine output (y = xW + b) is stashed:
        # it is reusable verbatim at later snapshots for every row whose
        # input did not change — the core OADL saving.
        snap0 = window[0]
        rep_inputs: list[np.ndarray] = [snap0.features]
        rep_combined: list[np.ndarray | None] = []
        h = snap0.features
        for li, layer in enumerate(layers):
            if layer.out_dim < layer.in_dim:
                # the features are all here, so the first layer combines
                # every row; a deeper one the rows the layer below made
                src = need[li - 1] if li else None
                y = _spread(layer.combine(h if src is None else h[src]), src, n)
                rep_combined.append(y)
                h = layer.act(snap0.aggregate(y, rows=need[li]))
            else:
                rep_combined.append(None)
                h = layer.forward(snap0, h, rows=need[li])
            h = _spread(h, need[li], n)
            rep_inputs.append(h)
        self._account_full_gnn(m, snap0, need)
        zs = [rep_inputs[-1]]

        if window.num_snapshots == 1:
            return zs

        # stable or affected (VertexClass order)
        layer_rows = _changed_rows(window, cls.labels != 0, len(layers))
        if owned is not None:  # of the rows this window computes at all
            layer_rows = [
                np.intersect1d(changed, rows, assume_unique=True)
                for changed, rows in zip(layer_rows, need)
            ]

        # --- later snapshots: recompute only the changed rows ----------
        last = len(layers) - 1
        for t in range(1, window.num_snapshots):
            snap = window[t]
            x = ws.take_copy("gnn.x", rep_inputs[0])
            in_rows = np.flatnonzero(
                (snap.features != rep_inputs[0]).any(axis=1)
            )
            x[in_rows] = snap.features[in_rows]
            m.feature_words += len(in_rows) * window.dim  # only churned rows
            for li, layer in enumerate(layers):
                rows = layer_rows[li]
                rep = rep_inputs[li + 1]
                if li == last:  # the GNN output: kept, so allocated
                    out = rep.copy()
                else:  # x, when a layer's input, is the other block
                    out = ws.take_copy(f"gnn.h{li % 2}", rep)
                out[rows] = self._layer_rows(
                    m, layer, snap, x, rows, in_rows, rep_combined[li], ws
                )
                x = out
                in_rows = rows  # next layer's inputs changed on `rows`
            zs.append(x)
        return zs

    def _layer_rows(self, m, layer, snap, x, rows, in_rows, rep_y, ws) -> np.ndarray:
        """One GCN layer restricted to ``rows`` (exact under the
        mean-normalised aggregation, see :meth:`CSRSnapshot.aggregate`).

        ``in_rows`` are the rows whose *input* differs from the
        representative; only those rows' combine outputs are recomputed —
        the rest reuse ``rep_y``.
        """
        if layer.out_dim < layer.in_dim:
            y = ws.take_copy("gnn.y", rep_y)
            y[in_rows] = layer.combine(x[in_rows])
            m.combination_macs += len(in_rows) * layer.in_dim * layer.out_dim
        else:
            y = x
        agg = snap.aggregate(y, rows=rows)
        gathered = int(snap.degrees[rows].sum())  # edges of the changed rows
        m.aggregation_macs += gathered * y.shape[1]
        m.feature_words += gathered * y.shape[1]  # neighbour gathers
        m.structure_words += len(agg) + gathered

        if layer.out_dim < layer.in_dim:
            res = agg
        else:
            res = layer.combine(agg)
            m.combination_macs += len(agg) * layer.in_dim * layer.out_dim
        return layer.act(res)

    def _account_full_gnn(self, m, snap, need) -> None:
        """Accounting of one GNN snapshot pass (the representative, or
        every snapshot when overlap is disabled) that computed layer
        ``l`` on ``need[l]`` (None = every row).  Weights are loaded
        once per *window*, not per snapshot, so none are counted here."""
        works = [_work(snap, rows) for rows in need]
        # need[0] is the widest set: the structure every layer walks
        m.structure_words += (works[0][0] + 1) + works[0][2]
        src_present = snap.num_present  # the features are all here
        for layer, (_, n_present, e) in zip(self.model.gnn.layers, works):
            # a shrinking layer combines its input rows, then aggregates
            combined = src_present if layer.out_dim < layer.in_dim else n_present
            agg_dim = min(layer.in_dim, layer.out_dim)
            m.feature_words += combined * layer.in_dim + e * agg_dim
            m.combination_macs += combined * layer.in_dim * layer.out_dim
            m.aggregation_macs += e * agg_dim
            src_present = n_present

    # ------------------------------------------------------------------
    # RNN phase
    # ------------------------------------------------------------------
    def _rnn_step(
        self,
        m,
        snap,
        z,
        z_prev,
        snap_prev,
        state,
        cache,
        cls,
        h_prev,
        owned_mask,
        ws,
        *,
        first: bool,
        policy: SkippingPolicy,
        decisions: list,
    ):
        model = self.model
        h_out = h_prev.copy()
        # the rows whose cell this window updates, scores or skips
        present = snap.present if owned_mask is None else snap.present & owned_mask

        if first or not self.enable_skipping or z_prev is None:
            rows = np.flatnonzero(present)
            h_out[rows], st_rows = _full_update(
                model, cache, z, state, rows, snap, ws
            )
            new_state = _splice_rows(state.copy(), rows, st_rows)
            m.cells_full += len(rows)
            m.cell_macs += len(rows) * model.cell.flops_per_vertex() // 2
            m.output_words += len(rows) * model.out_dim
            return h_out, new_state

        # --- scored set: stable + affected vertices present now ----------
        scored_mask = (cls.labels != 0) & present
        if snap_prev is not None:
            scored_mask &= snap_prev.present  # arrivals have no history
        arrivals = present & ~(
            snap_prev.present if snap_prev is not None else present
        )
        scored = np.flatnonzero(scored_mask)

        # pairwise feature stability between the two snapshots
        feat_stable = (
            (snap.features == snap_prev.features).all(axis=1)
            & snap.present
            & snap_prev.present
        )
        theta = similarity_scores(z_prev, z, snap_prev, snap, scored, feat_stable)
        m.overhead_ops += len(scored) * (z.shape[1] + 8)
        decision = policy.decide(scored, theta)
        decisions.append(decision)

        full_rows = decision.rows(CellUpdateMode.FULL)
        full_rows = np.union1d(full_rows, np.flatnonzero(arrivals))
        delta_rows = decision.rows(CellUpdateMode.DELTA)
        skip_rows = decision.rows(CellUpdateMode.SKIP)
        if cache is None:
            # identity cell: the "partial" update is the full (free) one
            full_rows = np.union1d(full_rows, delta_rows)
            delta_rows = np.empty(0, dtype=np.int64)

        # one fresh state per snapshot; both modes read the old one
        new_state = state.copy() if len(full_rows) or len(delta_rows) else state
        if len(full_rows):
            h_out[full_rows], st_rows = _full_update(
                model, cache, z, state, full_rows, snap, ws
            )
            _splice_rows(new_state, full_rows, st_rows)
            m.cells_full += len(full_rows)
            m.cell_macs += len(full_rows) * model.cell.flops_per_vertex() // 2
        if len(delta_rows):
            h_rows, st_rows, nnz = cache.partial_step(
                delta_rows, z, state, epsilon=self.epsilon
            )
            h_out[delta_rows] = h_rows
            _splice_rows(new_state, delta_rows, st_rows)
            full_cost = len(delta_rows) * model.cell.flops_per_vertex() // 2
            delta_cost = nnz * model.cell.w_x.shape[1]
            m.cells_delta += len(delta_rows)
            m.delta_nnz += nnz
            m.cell_macs += min(delta_cost, full_cost)
            m.cell_macs_saved += max(full_cost - delta_cost, 0)
        # skip rows + unaffected vertices: reuse previous output and state
        n_skip = len(skip_rows) + int(
            ((cls.labels == 0) & present).sum()
        )
        m.cells_skipped += n_skip
        m.cell_macs_saved += n_skip * model.cell.flops_per_vertex() // 2

        m.output_words += (len(full_rows) + len(delta_rows)) * model.out_dim
        return h_out, new_state

    # ------------------------------------------------------------------
    def _account_overhead(self, m, window, cls) -> None:
        """Runtime overhead of the topology analysis itself — the cost
        that makes TaGNN-S only modestly faster than PiPAD (Fig. 8(a))
        and that the accelerator's MSDL pipelines absorb.  The DFS is
        modelled here (and in :mod:`repro.accel`), not run: the host
        computes from per-layer row masks and never reads its order."""
        n = window.num_vertices
        e_total = sum(s.num_edges for s in window)
        # classification: feature compares + fingerprints + scatter
        m.overhead_ops += window.num_snapshots * n * window.dim
        m.overhead_ops += e_total
        # DFS traversal of the union adjacency; it reaches every stable
        # or affected vertex and nothing else, so the label count is
        # the affected subgraph's size
        m.overhead_ops += int((cls.labels != 0).sum()) + e_total
        # structure reads for the analysis
        m.structure_words += e_total + (n + 1) * window.num_snapshots


def _owned_closure(window, owned, num_layers) -> list:
    """Per GCN layer, the ascending ids of the rows an owned-row window
    computes that layer on (None = every row, the whole list when
    ``owned`` is None).

    Only the owned rows of the last layer are released; a layer reads
    the layer below on its rows and their neighbours, so
    ``need[L-1] = owned`` and ``need[l-1] = need[l] | N_t(need[l])``
    over every snapshot ``t`` of the window — nothing to grow for one
    layer.  The first layer's own input is the feature matrix, which
    every stream holds whole.
    """
    need = [owned]
    if owned is None:
        return need * num_layers
    for _ in range(num_layers - 1):
        rows = need[0]
        reads = [rows]
        for snap in window:
            # the rows' CSR slices, concatenated without a Python loop
            deg = snap.degrees[rows]
            ends = np.cumsum(deg)
            at = np.repeat(snap.indptr[rows] - (ends - deg), deg)
            reads.append(snap.indices[at + np.arange(at.size)])
        need.insert(0, np.unique(np.concatenate(reads)))
    return need


def _spread(block, rows, n):
    """``block`` (the values of ``rows``) as an ``n``-row matrix, zeros
    elsewhere; itself when ``rows`` is None (it is every row)."""
    if rows is None:
        return block
    out = np.zeros((n,) + block.shape[1:], dtype=block.dtype)
    out[rows] = block
    return out


def _work(snap, rows) -> tuple[int, int, int]:
    """``(rows, present rows, edges)`` of ``rows`` in ``snap`` — of the
    whole snapshot for None."""
    if rows is None:
        return snap.num_vertices, snap.num_present, snap.num_edges
    return (
        len(rows),
        int(np.count_nonzero(snap.present[rows])),
        int(snap.degrees[rows].sum()),
    )


def _changed_rows(window, changed, num_layers) -> list[np.ndarray]:
    """Ascending ids of the rows each GCN layer recomputes at the
    window's later snapshots: ``changed`` (a mask) for the first layer,
    one more hop over the window's edges per layer after it.

    A row joins the next layer's set when any snapshot's row holds a
    neighbour in the previous one: the same set as one hop over the
    union of the window's edges, without building it.
    """
    layer_rows = [np.flatnonzero(changed)]
    for _ in range(num_layers - 1):
        grown = changed.copy()
        for snap in window:
            # the non-empty rows' pointers cut the edge array into
            # exactly those rows' neighbour lists
            rows = np.flatnonzero(snap.degrees)
            grown[rows] |= np.logical_or.reduceat(
                changed[snap.indices], snap.indptr[rows]
            )
        changed = grown
        layer_rows.append(np.flatnonzero(changed))
    return layer_rows


def _full_update(model, cache, z, state, rows, snap, ws):
    """FULL cell update of ``rows``: ``(h_rows, state_rows)``.  The
    delta cache (None for an RNN-free model) records the update's two
    pre-activation products and the cell evaluates its gates on those
    very blocks, so each is multiplied once — into two workspace blocks
    the cell then uses as scratch."""
    drive = model.recurrent_drive(state, snap, rows)
    pre = None
    if cache is not None:
        r = len(rows)
        w_x, w_h = cache.cell.w_x, cache.cell.w_h
        zx = ws.take("cell.zx", (r, w_x.shape[1]), np.result_type(z, w_x))
        zh = ws.take("cell.zh", (r, w_h.shape[1]), np.result_type(drive, w_h))
        pre = cache.refresh(rows, z, drive, out=(zx, zh))
    return model.cell_step_rows(z, state, rows, snap, drive, pre)


def _splice_rows(state, rows, row_state):
    """Write ``row_state`` into ``rows`` of ``state``; returns ``state``."""
    for k in vars(row_state):
        if k.startswith("_"):
            continue
        getattr(state, k)[rows] = getattr(row_state, k)
    return state
