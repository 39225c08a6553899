#!/usr/bin/env python
"""Multi-tenant serving on a supervised shard cluster.

Scenario: one dynamic-graph inference service hosts several tenants on a
cluster of four shards.  Each shard owns a slice of the vertex set (cut
by the accelerator's GSPM partitioner); outputs are stitched from every
shard's owned rows, so the service only releases a timestamp once all
shards agree on it.  Three stories unfold:

1. **steady state** — two tenants stream side by side and every released
   output is bit-identical to the unsharded engine;
2. **shard failures** — a seeded campaign crashes, stalls, slows and
   checkpoint-tears every shard at least once; the supervisor restarts
   each one from its rotating checkpoints plus catch-up replay, and the
   outputs *still* match the unsharded engine exactly, with zero lost
   (non-dead-lettered) events;
3. **overload** — a hot shard falls behind, the per-tenant admission
   gate sheds with explicit backpressure (structured incidents, rejects
   into the dead-letter queue), the circuit breaker opens, and queries
   keep serving stale rows until the shard catches up.

Run:  python examples/sharded_serving.py
"""

import numpy as np

from repro.engine import StreamingInference
from repro.graphs import load_dataset
from repro.models import make_model
from repro.resilience import FaultPlan
from repro.serving import ShardCluster, run_chaos_campaign

WINDOW = 3
SEED = 3
FAULT_SEED = 11
SHARDS = 4
SNAPSHOTS = 6


def factory():
    return make_model("T-GCN", 32, hidden_dim=8, seed=SEED)


def unsharded(graph):
    stream = StreamingInference(factory(), window_size=WINDOW,
                                enable_skipping=True)
    outs = []
    for snap in graph:
        r = stream.push(snap.copy())
        if r is not None:
            outs.extend(r.outputs)
    r = stream.flush()
    if r is not None:
        outs.extend(r.outputs)
    return outs


def main() -> None:
    tenants = {
        "acme": load_dataset("GT", scale=0.05, num_snapshots=SNAPSHOTS,
                             seed=SEED),
        "globex": load_dataset("GT", scale=0.05, num_snapshots=SNAPSHOTS,
                               seed=SEED + 1),
    }

    # --- 1: steady-state multi-tenant serving -----------------------
    cluster = ShardCluster(factory, num_shards=SHARDS, window_size=WINDOW,
                           seed=SEED)
    for name in sorted(tenants):
        cluster.register_tenant(name)
    for t in range(SNAPSHOTS):
        for name in sorted(tenants):
            cluster.push(name, tenants[name][t].copy())
    for name in sorted(tenants):
        cluster.flush(name)
    smap = cluster.shard_map
    print(f"{SHARDS}-shard cluster serving {len(tenants)} tenants "
          f"({smap.num_vertices} vertices, {smap.cut_edges} cut edges):")
    for name in sorted(tenants):
        got = cluster.released(name)
        expected = unsharded(tenants[name])
        identical = len(got) == len(expected) and all(
            np.array_equal(a, b) for a, b in zip(got, expected)
        )
        print(f"  {name:>8}: {len(got)} outputs released, "
              f"bit-identical to unsharded engine: {identical}")
        assert identical

    # --- 2: the shard-failure campaign ------------------------------
    plan = FaultPlan.generate_cluster(
        seed=FAULT_SEED, num_steps=SNAPSHOTS, num_shards=SHARDS
    )
    print(f"\ninjecting {len(plan)} shard faults "
          f"(every shard x every kind):\n")
    report = run_chaos_campaign(
        factory, tenants, plan,
        num_shards=SHARDS, window_size=WINDOW, seed=SEED,
    )
    print(report.summary())
    assert report.identical and report.lost == 0
    assert report.restarted_shards == list(range(SHARDS))

    # --- 3: overload, backpressure and stale serves -----------------
    hot = ShardCluster(
        factory, num_shards=SHARDS, window_size=2,
        max_backlog=2, breaker_threshold=2, seed=SEED,
    )
    hot.register_tenant("acme")
    hot.register_tenant("globex")
    shed = {"acme": 0, "globex": 0}
    for t in range(SNAPSHOTS):
        if t == 2:
            hot.workers[1].slow(40)  # shard 1 goes hot: 40 ticks/snapshot
        for name in sorted(tenants):
            receipt = hot.push(name, tenants[name][t].copy())
            if not receipt.accepted:
                shed[name] += 1
    matrix, stale = hot.query("acme")
    print(f"\nhot shard 1 (40x service time), max_backlog=2:")
    for name in sorted(shed):
        stats = hot.gate.stats(name)
        print(f"  {name:>8}: admitted {stats['admitted']}, "
              f"shed {stats['shed']} "
              f"(breaker {'open' if stats['breaker_open'] else 'closed'})")
    print(f"  query served {matrix.shape[0]} rows with {stale} shard(s) "
          f"stale; {len(hot.dlq)} rejects in the dead-letter queue")
    assert sum(shed.values()) > 0
    assert len(hot.dlq) == sum(shed.values())
    shed_incidents = [i for i in hot.incidents if i.action == "shed"]
    assert len(shed_incidents) == sum(shed.values())
    hot.drain_backlogs()  # the slow shard eventually catches up
    receipt = hot.push("acme", tenants["acme"][SNAPSHOTS - 1].copy())
    print("  backlog drained after the burst; next push admitted again: "
          f"{receipt.accepted}")
    assert receipt.accepted


if __name__ == "__main__":
    main()
