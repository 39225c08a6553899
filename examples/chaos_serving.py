#!/usr/bin/env python
"""Surviving a hostile update feed — the resilience layer end to end.

Scenario: a dynamic-graph service consumes a live event feed that is
everything production feeds are — events arrive corrupted, duplicated
and out of order, a snapshot is torn mid-write, an invariant trips
mid-window, and the storage backend hiccups.  The resilient serving path
(``repro.resilience``) absorbs every one of those faults and still
releases an output for every timestamp:

1. a seeded :class:`FaultPlan` schedules one fault of every kind;
2. :func:`run_chaos_campaign` replays the graph's event stream through
   guarded ingestion + the supervised streaming engine under that plan
   (a single stream is a one-shard, one-tenant serving cluster);
3. the incident report reconciles what happened against the plan and
   checks the released bits against an unsharded stream degraded at the
   same window;
4. a checkpoint taken mid-stream proves crash/replay resumes the
   uninterrupted outputs bit-identically.

Run:  python examples/chaos_serving.py
"""

import io

import numpy as np

from repro.engine import StreamingInference
from repro.graphs import load_dataset
from repro.models import make_model
from repro.resilience import FaultPlan, load_checkpoint, save_checkpoint
from repro.serving import run_chaos_campaign

WINDOW = 4
SEED = 3
FAULT_SEED = 11


def main() -> None:
    graph = load_dataset("GT", num_snapshots=8, seed=SEED)

    def factory():
        return make_model("T-GCN", graph.dim, hidden_dim=32, seed=SEED)

    # --- 1-3: the chaos campaign -----------------------------------
    plan = FaultPlan.generate(seed=FAULT_SEED, num_steps=graph.num_snapshots)
    print(f"injecting {len(plan)} faults into {graph.num_snapshots} steps "
          f"of {factory().name} on GT:\n")
    report = run_chaos_campaign(
        factory, graph, plan, num_shards=1, window_size=WINDOW
    )
    print(report.summary())
    assert len(report.outputs["tenant-0"]) == graph.num_snapshots
    assert report.identical
    print(f"\nevery timestamp got an output despite {len(plan)} faults.")

    # --- 4: crash + checkpoint/replay ------------------------------
    def run(stream, snapshots):
        outs = []
        for snap in snapshots:
            r = stream.push(snap.copy())
            if r is not None:
                outs.extend(r.outputs)
        r = stream.flush()
        if r is not None:
            outs.extend(r.outputs)
        return outs

    uninterrupted = run(
        StreamingInference(factory(), window_size=WINDOW), list(graph)
    )

    crash_at = 5
    first = StreamingInference(factory(), window_size=WINDOW)
    early = []
    for snap in list(graph)[:crash_at]:
        r = first.push(snap.copy())
        if r is not None:
            early.extend(r.outputs)
    checkpoint = io.BytesIO()
    save_checkpoint(first, checkpoint)
    del first  # the "crash": the process and its carry state are gone

    checkpoint.seek(0)
    resumed = StreamingInference(factory(), window_size=WINDOW)
    resumed.restore_carry(load_checkpoint(checkpoint))
    # a checkpoint holds no snapshot: replay the feed from the last
    # window boundary it recorded
    late = run(resumed, list(graph)[resumed.timestamp:])

    replayed = early + late
    assert len(replayed) == len(uninterrupted)
    worst = max(
        float(np.abs(a - b).max()) for a, b in zip(uninterrupted, replayed)
    )
    print(f"crash at t={crash_at}, restore from checkpoint, replay rest: "
          f"max |diff| = {worst:.2e}")
    assert worst == 0.0
    print("checkpoint/replay reproduced the uninterrupted run bit-identically.")


if __name__ == "__main__":
    main()
