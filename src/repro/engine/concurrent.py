"""TaGNN-S: the topology-aware concurrent execution engine (software).

This is the paper's approach in software form (evaluated as *TaGNN-S* in
Figs. 8–9):

1. **Window classification** — vertices of a K-snapshot window are split
   into unaffected / stable / affected (:mod:`repro.analysis.classify`).
   The engine's unit of recomputation is the per-layer row mask grown
   from those labels; the stable-rooted DFS order is the O-CSR layout
   order, consumed by the accelerator model only (:mod:`repro.accel`).
2. **Multi-snapshot GNN** — the counters count, and the accelerator
   model prices, the OADL dataflow: snapshot 0 of the window is
   computed once as the *representative*, and later snapshots recompute
   only the per-layer *changed sets*, so unaffected vertices are loaded
   and computed once per layer.  The changed set of layer ``i`` is the
   closed (i-1)-hop neighbourhood of the stable∪affected set over the
   window's snapshots: an unaffected vertex's layer-1 output is
   provably identical across the window, but deeper layers see change
   leaking in one hop per layer.  The host computes the same bits with
   one kernel per window, the stacked window kernel over every row (an
   owned-row window: each layer on the rows it needs), because past
   layer 1 the changed set is 93–100 % of the graph and its reuse
   bookkeeping costs more than it saves (docs/performance.md, "One GNN
   kernel per window").
3. **Similarity-aware cell skipping** — the paper's similarity unit is
   a stage of its own between the GNN and RNN units, and so is the
   host's: once the window's GNN outputs exist, one :math:`\\theta`
   stage scores the stable/affected vertices of every scored snapshot
   pair in one call and decides every cell mode of the window at once
   (:meth:`ConcurrentEngine._theta_window`).  The recurrence then only
   runs the updates: SKIP rows reuse the previous final feature, and
   FULL and DELTA rows run the real cell.  DELTA is a decision, a
   counter and a price: the paper's condensed partial update pays off
   only in hardware, so the host computes a DELTA row with the FULL
   update and counts it as the partial one (:mod:`repro.skipping.delta`).
   Unaffected vertices are skipped directly without scoring (their
   :math:`\\theta` is exactly 1).

With ``enable_skipping=False`` the engine's outputs are bit-comparable to
the reference engine (a test invariant); with skipping on they differ by
the bounded approximation the accuracy benches quantify.
"""

from __future__ import annotations

import numpy as np

from ..analysis.classify import classify_window
from ..analysis.similarity import similarity_scores
from ..graphs.dynamic import DynamicGraph
from ..models.base import DGNNModel
from ..models.layers import _matmul_rows
from ..models.rnn import IdentityCell
from ..skipping.policy import (
    CellUpdateMode,
    ModeDecision,
    SkippingPolicy,
    SkipThresholds,
)
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
        The OADL half (multi-snapshot GNN with changed-set propagation)
        as the counters count it.  Off = every vertex recomputed per
        snapshot (ablation WO/OADL).  The host computes the same bits
        either way.
    enable_skipping:
        The ADSC half (similarity-gated cell updates).  Off = full cell
        update everywhere (ablation WO/ADSC) and the engine is exact.

    A window planned at runtime (:mod:`repro.adaptive`) is executed by
    handing its :class:`~repro.adaptive.ExecutionPlan` to :meth:`step`;
    the one loop that plans is
    :class:`~repro.engine.streaming.StreamingInference`.
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

    # ------------------------------------------------------------------
    def run(self, graph: DynamicGraph) -> EngineResult:
        """Batch inference at the static configuration: a fold of
        :meth:`step` (``plan=None``) over ``graph``'s disjoint
        K-snapshot windows."""
        m = ExecutionMetrics()
        carry = Carry(window_size=self.window_size)
        outputs: list[np.ndarray] = []
        decisions: list = []
        classifications = []
        k = self.window_size
        for start in range(0, graph.num_snapshots, k):
            window = graph.window(start, min(k, graph.num_snapshots - start))
            cls = classify_window(window)
            classifications.append(cls)
            carry, outs = self.step(
                carry, window, cls, None, m, decisions=decisions
            )
            outputs.extend(outs)

        extra = {"decisions": decisions, "classifications": classifications}
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
        ``overlap`` (``delta-condensed`` is the OADL changed-set dataflow,
        ``batched-spmm`` recomputes every snapshot in full — bit-identical
        by construction, tests/adaptive) and ``policy`` (the plan's
        thresholds).  ``overlap`` is the dataflow the counters count, and
        nothing else: the host runs one GNN kernel per window whichever
        it is (:meth:`_gnn_window`).

        The body has three stages: the GNN outputs of every snapshot
        (:meth:`_gnn_window`), every cell mode of the window
        (:meth:`_theta_window`, which reads only those outputs, the
        snapshots and ``cls``), and the recurrence, which runs each
        snapshot's FULL and DELTA rows through the FULL update in order
        (:meth:`_rnn_step`).

        ``carry.rows`` (None = every row) are the rows this window
        computes: the last GCN layer, the cell update, the similarity
        scores and the delta baseline run on them alone, and every bit of
        an owned row is the full engine's (``_owned_closure``).  A model
        whose cell reads its neighbours' state runs every row whatever
        the carry owns, so its windows are whole-graph ones.

        The window body holds the lease on the process's scratch
        :data:`~repro.engine.workspace.WORKSPACE`; its large temporaries
        live there, and nothing it returns or carries aliases a block.
        """
        model = self.model
        n = window.num_vertices
        owned = carry.computed_rows(model)
        owned_mask = None if owned is None else _mask(owned, n)
        overlap, policy = self.enable_overlap, self.policy
        if plan is not None:
            from ..adaptive import KernelChoice

            overlap = plan.kernel is KernelChoice.DELTA_CONDENSED
            policy = SkippingPolicy(plan.thresholds)
        state, h_prev = carry.begin(model, n)
        cache = carry.delta_cache(model.cell, n)

        self._account_overhead(m, window, cls)

        outputs: list[np.ndarray] = []
        with WORKSPACE.lease() as ws:
            zs = self._gnn_window(m, window, cls, overlap, owned, ws)
            full, delta, skipped = self._theta_window(
                m, window, cls, zs, carry, owned_mask, policy, cache, ws,
                decisions,
            )
            for t, snap in enumerate(window):
                h_prev, state = self._rnn_step(
                    m, snap, zs[t], state, cache, h_prev,
                    full[t], delta[t], skipped[t], ws,
                )
                # each snapshot's output is a fresh matrix nothing else
                # holds, except the last one, which the carry copies
                outputs.append(h_prev)
        m.snapshots_processed += len(outputs)
        m.windows_processed += 1
        # the carry owns its hand-off: a released output may be written
        # by its reader, and the window kernel's GNN outputs are views of
        # one K-snapshot block that a carried view would keep alive
        successor = carry.advance(
            window.snapshots, state, h_prev.copy(), zs[-1].copy(), cache
        )
        return successor, outputs

    # ------------------------------------------------------------------
    # GNN phase
    # ------------------------------------------------------------------
    def _gnn_window(self, m, window, cls, overlap, owned, ws) -> list[np.ndarray]:
        """The window's GNN outputs, one per snapshot (exact).

        ``overlap`` picks the dataflow the counters count: the
        representative pass plus each later snapshot's changed rows
        (OADL), or every snapshot in full (ablation WO/OADL).  The host
        computes either with one kernel: a whole-graph window runs the
        stacked window kernel, and an owned-row window (``owned``,
        ascending ids) computes layer ``l`` of each snapshot on
        ``need[l]`` only — :func:`_owned_closure` — its other rows
        zeros nothing reads."""
        model, n = self.model, window.num_vertices
        layers = model.gnn.layers
        need = _owned_closure(window, owned, len(layers))
        if not overlap:
            for snap in window:
                self._account_full_gnn(m, snap, [None] * len(layers))
        else:
            self._account_full_gnn(m, window[0], need)
            if window.num_snapshots > 1:
                # stable or affected rows, grown a hop per layer, and per
                # later snapshot the rows whose features churned: facts
                # of the window, shared with every shard that classified it
                layer_rows = cls.changed_rows(len(layers))
                if owned is not None:
                    layer_rows = [
                        changed[_mask(rows, n)[changed]]
                        for changed, rows in zip(layer_rows, need)
                    ]
                self._account_changed_gnn(
                    m, window, layer_rows, cls.churned_rows()
                )
        if owned is None:
            return model.gnn_forward_window(window.snapshots, ws=ws)
        zs = []
        for snap in window:
            h = snap.features
            for layer, rows in zip(layers, need):
                # a shrinking layer combines every row of its input, so
                # each row's product is the full-height one's
                h = _spread(layer.forward(snap, h, rows=rows), rows, n)
            zs.append(h)
        return zs

    def _account_changed_gnn(self, m, window, layer_rows, feature_rows) -> None:
        """Accounting of the OADL dataflow's later snapshots, which the
        host computes with the window's one kernel: snapshot ``t`` loads
        the rows whose features churned (``feature_rows[t - 1]``) and
        computes layer ``l`` on ``layer_rows[l]``, combining afresh only
        the rows whose input differs from the representative's — the
        churned rows at the first layer, the layer below's rows after
        it.  The counters are sums over those snapshots, so each set
        enters only through its size and its rows' edges in all of
        them."""
        later = window.snapshots[1:]
        # each row's edges over every later snapshot
        degrees = sum(snap.degrees for snap in later)
        inputs = sum(map(len, feature_rows))
        m.feature_words += inputs * window.dim  # only churned rows
        for layer, rows in zip(self.model.gnn.layers, layer_rows):
            macs = layer.in_dim * layer.out_dim
            agg_dim = min(layer.in_dim, layer.out_dim)
            computed = len(later) * len(rows)
            gathered = int(degrees[rows].sum())  # their edges
            # a shrinking layer combines its changed inputs, then
            # aggregates; a growing one combines its aggregated rows
            shrinks = layer.out_dim < layer.in_dim
            m.combination_macs += (inputs if shrinks else computed) * macs
            m.aggregation_macs += gathered * agg_dim
            m.feature_words += gathered * agg_dim  # neighbour gathers
            m.structure_words += computed + gathered
            inputs = computed

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
    # θ stage
    # ------------------------------------------------------------------
    def _theta_window(
        self, m, window, cls, zs, carry, owned_mask, policy, cache, ws,
        decisions,
    ):
        """Every cell mode of the window, decided before its recurrence:
        θ reads only GNN outputs, snapshots and the classification.

        Returns ``(full, delta, skipped)``: per snapshot, the rows that
        take the FULL and the DELTA update as two ``(K, n)`` masks
        (workspace blocks), and the count of rows skipped.  A scored
        pair (``snap_prev``, ``snap``) scores the stable and affected
        rows present in both with one :func:`similarity_scores` call
        over every pair and one ``policy.decide``; arrivals have no
        history and take FULL, unaffected rows are skipped unscored
        (their θ is exactly 1).  Every other snapshot takes FULL on
        each present row: all of them with skipping off, else the first
        after a carry without a snapshot (the stream's first, or one
        resumed from a checkpoint) and, with ``refresh_each_window`` on,
        of each window — the paper "recalculates similarity scores for
        each vertex in the new batch, rather than reusing scores and
        skipping decisions" to stop error accumulating over prolonged
        skipping, and that periodic refresh is what keeps Table 5's
        loss < 1%.  With refresh off the first snapshot is scored
        against the carried one, a pair ``similarity_scores`` merges;
        the classification holds the other pairs' neighbour weights."""
        snaps = window.snapshots
        k, n = len(snaps), window.num_vertices
        full = ws.take("modes.full", (k, n), bool)
        for mask, snap in zip(full, snaps):
            np.copyto(mask, snap.present)
        if owned_mask is not None:
            full &= owned_mask  # the rows whose cell this window updates
        delta = ws.take("modes.delta", (k, n), bool)
        delta.fill(False)
        skipped = [0] * k
        # the first scored snapshot: the window's second, unless the
        # first is scored against the carried one
        carried = carry.snap_prev is not None
        start = 0 if carried and not self.refresh_each_window else 1
        if not self.enable_skipping:
            start = k
        if start >= k:
            return full, delta, skipped
        weights = [cls.neighbor_weights(t) for t in range(k - 1)]
        chain, z = snaps, zs
        if start == 0:
            chain, z = (carry.snap_prev, *snaps), (carry.z_prev, *zs)
            weights.insert(0, None)
        rows = cls.changed_rows(1)[0]  # the stable and affected rows
        if owned_mask is not None:
            rows = rows[owned_mask[rows]]
        theta = similarity_scores(z, chain, rows, weights=weights, ws=ws)

        now = full[start:]  # present (owned) rows of the scored snapshots
        was = ws.take("modes.was", (len(chain), n), bool)[: len(now)]
        for mask, snap in zip(was, chain):
            np.copyto(mask, snap.present)
        present, had = now.take(rows, axis=1), was.take(rows, axis=1)
        scored = present & had  # present on both sides
        decision = policy.decide(rows[np.nonzero(scored)[1]], theta[scored])
        m.overhead_ops += len(decision.vertices) * (z[0].shape[1] + 8)
        if decisions is not None:  # one per pair, as the pairs run
            ends = np.cumsum(scored.sum(axis=1)).tolist()
            for a, b in zip([0] + ends, ends):
                decisions.append(ModeDecision(
                    decision.vertices[a:b], decision.theta[a:b],
                    decision.modes[a:b],
                ))
        modes = np.full(theta.shape, -1, dtype=np.int64)
        modes[scored] = decision.modes
        counted = now.sum(axis=1)
        now &= ~was  # arrivals have no history: FULL
        # every other row present on both sides lies outside ``rows``:
        # unaffected, skipped unscored
        unaffected = counted - now.sum(axis=1) - scored.sum(axis=1)
        skips = (modes == CellUpdateMode.SKIP).sum(axis=1)
        skipped[start:] = (unaffected + skips).tolist()
        now[:, rows] = (present & ~had) | (modes == CellUpdateMode.FULL)
        delta[start:, rows] = modes == CellUpdateMode.DELTA
        if cache is None:
            # identity cell: no baseline, so a DELTA decision counts as
            # the full (free) update
            full |= delta
            delta.fill(False)
        return full, delta, skipped

    # ------------------------------------------------------------------
    # RNN phase
    # ------------------------------------------------------------------
    def _rnn_step(
        self, m, snap, z, state, cache, h_prev, full, delta, n_skip, ws
    ):
        """One snapshot's cell phase: the rows the θ stage gave FULL or
        DELTA (``full`` and ``delta``, (n,) masks) take the FULL update,
        one block in ascending id order; ``n_skip`` rows keep their
        output and state.  A DELTA row is still counted as the paper's
        partial update: it moves its delta baseline and is charged the
        MACs of its surviving delta components."""
        model = self.model
        full_rows, delta_rows = np.flatnonzero(full), np.flatnonzero(delta)
        flops = model.cell.flops_per_vertex() // 2
        h_out = h_prev.copy()
        new_state = state
        rows = np.flatnonzero(full | delta)
        if len(rows):
            h_out[rows], st_rows = _full_update(model, z, state, rows, snap, ws)
            new_state = state.copy()
            new_state.put(rows, st_rows)
        if len(full_rows):
            if cache is not None:
                cache.reset(full_rows, z)
            m.cells_full += len(full_rows)
            m.cell_macs += len(full_rows) * flops
        if len(delta_rows):
            nnz = cache.advance(delta_rows, z, epsilon=self.epsilon)
            full_cost = len(delta_rows) * flops
            delta_cost = nnz * model.cell.w_x.shape[1]
            m.cells_delta += len(delta_rows)
            m.delta_nnz += nnz
            m.cell_macs += min(delta_cost, full_cost)
            m.cell_macs_saved += max(full_cost - delta_cost, 0)
        m.cells_skipped += n_skip
        m.cell_macs_saved += n_skip * flops
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
        # classification: feature compares + neighbour merges + scatter
        m.overhead_ops += window.num_snapshots * n * window.dim
        m.overhead_ops += e_total
        # DFS traversal of the union adjacency; it reaches every stable
        # or affected vertex and nothing else, so the label count is
        # the affected subgraph's size
        m.overhead_ops += len(cls.changed_rows(1)[0]) + e_total
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


def _mask(rows, n):
    """The ``(n,)`` mask of ``rows``."""
    mask = np.zeros(n, dtype=bool)
    mask[rows] = True
    return mask


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


def _full_update(model, z, state, rows, snap, ws):
    """FULL cell update of ``rows``: ``(h_rows, state_rows)``.  The two
    pre-activation products are multiplied into two workspace blocks
    and handed to the cell as ``pre``, which it then uses as scratch,
    so the update allocates no block of its own."""
    cell = model.cell
    if isinstance(cell, IdentityCell):
        return model.cell_step_rows(z, state, rows, snap)
    drive = model.recurrent_drive(state, snap, rows)
    w_x, w_h, r = cell.w_x, cell.w_h, len(rows)
    zx = ws.take("cell.zx", (r, w_x.shape[1]), np.result_type(z, w_x))
    zh = ws.take("cell.zh", (r, w_h.shape[1]), np.result_type(drive, w_h))
    pre = (
        _matmul_rows(z[rows], w_x, out=zx),
        _matmul_rows(drive, w_h, out=zh),
    )
    return model.cell_step_rows(z, state, rows, snap, drive, pre)
