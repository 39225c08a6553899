"""Execution instrumentation shared by every engine and platform model.

Engines count the quantities the paper's evaluation is built on:

* words moved off-chip, split by class (features / structure / weights /
  outputs) — Fig. 2(c)'s useful-data ratio and Fig. 8(b)'s access
  breakdown are functions of these;
* *redundant* words: reads whose value was already read earlier in the
  same window (re-fetching an unaffected vertex's features is the paper's
  canonical example);
* MACs, split by phase (aggregation / combination / cell update) —
  Fig. 2(a)'s time breakdown comes from these plus the memory counters;
* cell-update mode counts (full / delta / skip) and the runtime overhead
  of the topology analysis itself (Fig. 8(a)'s "runtime overhead" bar).

Every field is a plain integer, in *words* (4 bytes), *MACs* or
events, so platform cost models can convert them to seconds/joules with
their own bandwidth/compute/energy constants, and summing two records
(:meth:`ExecutionMetrics.merge`) is the whole of combining windows,
shards or datasets.  A window's own counters are the
``StreamResult.metrics`` its push returns.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

__all__ = ["ExecutionMetrics", "WORD_BYTES"]

WORD_BYTES = 4


@dataclass
class ExecutionMetrics:
    """Counter bundle for one engine run: a flat record of integers.

    The counters count the *configured* dataflow, not the host kernel
    that computed it.  An OADL window is counted as its representative
    pass plus its changed rows, although the host runs one GNN kernel
    per window.  The accelerator models price cycles from these
    counters, so a host-side kernel must not move them.
    """

    # --- off-chip traffic (words) ------------------------------------
    feature_words: int = 0
    structure_words: int = 0
    weight_words: int = 0
    output_words: int = 0
    redundant_words: int = 0  # subset of the above that re-read known data

    # --- compute (MACs) ------------------------------------------------
    aggregation_macs: int = 0
    combination_macs: int = 0
    cell_macs: int = 0
    cell_macs_saved: int = 0  # avoided by skip/delta modes
    overhead_ops: int = 0  # classification / traversal / similarity work

    # --- cell-update modes ----------------------------------------------
    cells_full: int = 0
    cells_delta: int = 0
    cells_skipped: int = 0
    #: Condense-Unit output size: total surviving non-zeros across every
    #: DELTA-mode partial update (the delta-mode MAC accounting reads it).
    delta_nnz: int = 0

    # --- bookkeeping ---------------------------------------------------
    snapshots_processed: int = 0
    windows_processed: int = 0

    # --- resilience (repro.resilience) ---------------------------------
    incidents: int = 0  # anomalies the supervisor absorbed
    retries: int = 0  # transient-storage retry attempts
    retry_attempts: int = 0  # total call attempts made under with_retry
    retry_backoff_ns: int = 0  # virtual backoff scheduled by with_retry (ns)
    fallback_windows: int = 0  # windows degraded to the reference engine
    dead_letter_events: int = 0  # poison events/snapshots dead-lettered
    restores: int = 0  # carry-state rollbacks after a fault

    # --- sharded serving (repro.serving) ---------------------------------
    shed_events: int = 0  # pushes refused by admission control
    stale_serves: int = 0  # queries answered with stale shard rows
    shard_restarts: int = 0  # shard workers restarted by the supervisor
    boundary_words: int = 0  # cross-shard boundary feature re-fetches

    # --- adaptive execution (repro.adaptive) -----------------------------
    drift_probes: int = 0  # exact-replay drift verifications run

    # ------------------------------------------------------------------
    @property
    def total_words(self) -> int:
        """All off-chip words moved."""
        return (
            self.feature_words
            + self.structure_words
            + self.weight_words
            + self.output_words
        )

    @property
    def total_bytes(self) -> int:
        return self.total_words * WORD_BYTES

    @property
    def total_macs(self) -> int:
        return self.aggregation_macs + self.combination_macs + self.cell_macs

    def useful_ratio(self) -> float:
        """Fraction of fetched data that was not redundant (Fig. 2(c))."""
        if self.total_words == 0:
            return 1.0
        return 1.0 - self.redundant_words / self.total_words

    def skip_ratio(self) -> float:
        """Fraction of cell updates avoided entirely."""
        total = self.cells_full + self.cells_delta + self.cells_skipped
        return self.cells_skipped / total if total else 0.0

    def breakdown(self) -> dict[str, int]:
        """Phase-level MAC breakdown used by the Fig. 2(a) bench."""
        return {
            "aggregation": self.aggregation_macs,
            "combination": self.combination_macs,
            "cell_update": self.cell_macs,
            "overhead": self.overhead_ops,
        }

    # ------------------------------------------------------------------
    def merge(self, other: "ExecutionMetrics") -> "ExecutionMetrics":
        """Element-wise sum (combining windows, shards or datasets)."""
        out = ExecutionMetrics()
        for f in fields(ExecutionMetrics):
            setattr(out, f.name, getattr(self, f.name) + getattr(other, f.name))
        return out

    def as_dict(self) -> dict[str, int]:
        """Field mapping: ``ExecutionMetrics(**m.as_dict())`` is a copy."""
        return {f.name: getattr(self, f.name) for f in fields(ExecutionMetrics)}
