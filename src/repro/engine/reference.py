"""The reference engine: snapshot-by-snapshot exact DGNN inference.

This is the execution pattern of every prior system in Table 1 (DGL,
PyGT, PiPAD, and the baseline accelerators): each snapshot is processed
in isolation — all features re-fetched, the full GNN recomputed, the full
cell update run — regardless of how much of the graph is unchanged.  Its
outputs are the semantic ground truth; its counters quantify exactly the
redundancy TaGNN removes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..graphs.dynamic import DynamicGraph
from ..models.base import DGNNModel
from .carry import Carry
from .metrics import ExecutionMetrics

__all__ = ["EngineResult", "ReferenceEngine"]


@dataclass
class EngineResult:
    """Outputs plus instrumentation of one engine run."""

    outputs: list[np.ndarray]  # H^t per snapshot
    metrics: ExecutionMetrics
    extra: dict = field(default_factory=dict)


class ReferenceEngine:
    """Exact snapshot-by-snapshot execution with full accounting.

    Parameters
    ----------
    model:
        Any :class:`DGNNModel`.
    window_size:
        Only used for *accounting* (redundancy is defined within a
        window); execution itself is strictly sequential.
    """

    name = "reference"

    def __init__(self, model: DGNNModel, *, window_size: int = 4):
        if window_size < 1:
            raise ValueError("window_size must be >= 1")
        self.model = model
        self.window_size = window_size

    # ------------------------------------------------------------------
    def run(self, graph: DynamicGraph) -> EngineResult:
        """Run inference over every snapshot; returns exact outputs and
        the traffic/compute counters of the conventional pattern."""
        m = ExecutionMetrics()
        carry = Carry(window_size=self.window_size)
        outputs: list[np.ndarray] = []
        for start in range(0, len(graph), self.window_size):
            carry, outs = self.step(
                carry, graph.snapshots[start : start + self.window_size], m
            )
            outputs.extend(outs)
        self._account_redundancy(m, graph)
        return EngineResult(outputs, m)

    def step(self, carry: Carry, snaps, m: ExecutionMetrics):
        """Execute one window exactly; returns ``(successor, outputs)``.

        The GNN passes run through the window kernel; the cell updates
        stay sequential because each consumes the previous state.
        ``carry`` is not written to and its ``cache`` is passed through
        untouched (this path needs none).  The resilience supervisor
        degrades a failed window to this same method.
        """
        model = self.model
        state, h_out = carry.begin(model, snaps[0].num_vertices)
        zs = model.gnn_forward_window(snaps)
        outputs: list[np.ndarray] = []
        for snap, z in zip(snaps, zs):
            h, new_state = model.cell_step(z, state, snap)
            # absent vertices are not computed: freeze their output
            # and recurrent state (systems do not schedule absent
            # vertices)
            absent = np.flatnonzero(~snap.present)
            if absent.size:
                if np.may_share_memory(h, z):
                    h = h.copy()  # an identity cell's output is z itself
                h[absent] = h_out[absent]
                new_state.put(absent, state.take(absent))
            h_out = h
            state = new_state
            outputs.append(h_out.copy())
            self._account_snapshot(m, snap)
        m.snapshots_processed += len(snaps)
        return carry.advance(snaps, state, h_out, zs[-1], carry.cache), outputs

    # ------------------------------------------------------------------
    def _account_snapshot(self, m: ExecutionMetrics, snap) -> None:
        """Traffic and compute of one snapshot under the conventional
        pattern: everything loaded, everything computed."""
        n_present = snap.num_present
        e = snap.num_edges
        model = self.model

        # structure: indptr + indices, re-read per snapshot
        m.structure_words += (snap.num_vertices + 1) + e
        # features: per GCN layer, source rows + one gather per edge
        for layer in model.gnn.layers:
            din = layer.in_dim
            agg_dim = min(layer.in_dim, layer.out_dim)
            m.feature_words += n_present * din + e * agg_dim
            m.combination_macs += n_present * din * layer.out_dim
            m.aggregation_macs += e * agg_dim
            m.weight_words += layer.weight.size + layer.bias.size
        # RNN module: inputs are on-chip (streamed from GNN), weights and
        # states move
        m.weight_words += model.cell.w_x.size + model.cell.w_h.size
        m.feature_words += n_present * model.cell.hidden_dim  # prev state
        m.cell_macs += n_present * model.cell.flops_per_vertex() // 2
        m.cells_full += n_present
        # outputs written back
        m.output_words += n_present * model.out_dim

    def _account_redundancy(self, m: ExecutionMetrics, graph: DynamicGraph) -> None:
        """Redundant words: fetches of data whose value was already
        fetched earlier in the same window.

        The conventional pattern re-reads (a) every feature row per
        snapshot although only affected vertices have new versions,
        (b) one target feature per *edge* although a vertex's feature is
        the same for all of its in-edges, and (c) the weights every
        snapshot.  The minimum any system must move per window is one copy
        of each distinct (vertex, version) feature, the structure, and the
        weights once — everything above that is redundant (this is what
        makes the measured useful-data ratios of Fig. 2(c) so low)."""
        k = self.window_size
        model = self.model
        for start in range(0, graph.num_snapshots, k):
            window = graph.snapshots[start : start + k]
            size = len(window)
            # a vertex has one version per snapshot when it arrives,
            # departs or changes its features within the window, else one
            present = np.stack([s.present for s in window])
            same = present.all(axis=0)
            for prev, cur in zip(window, window[1:]):
                same &= (cur.features == prev.features).all(axis=1)
            affected = int((present.any(axis=0) & ~same).sum())
            n_distinct = graph.num_vertices + affected * (size - 1)
            weight_words = sum(
                l.weight.size + l.bias.size for l in model.gnn.layers
            ) + model.cell.w_x.size + model.cell.w_h.size
            total_feature = 0
            minimal_feature = 0
            for layer in model.gnn.layers:
                agg_dim = min(layer.in_dim, layer.out_dim)
                for snap in window:
                    total_feature += (
                        snap.num_present * layer.in_dim + snap.num_edges * agg_dim
                    )
                # minimal: each distinct version once per layer
                minimal_feature += n_distinct * layer.in_dim
            total_struct = sum(
                (graph.num_vertices + 1) + s.num_edges for s in window
            )
            minimal_struct = (graph.num_vertices + 1) + max(
                s.num_edges for s in window
            )
            m.redundant_words += max(0, total_feature - minimal_feature)
            m.redundant_words += max(0, total_struct - minimal_struct)
            m.redundant_words += weight_words * (size - 1)
            m.windows_processed += 1
