"""Fault-tolerant sharded multi-tenant serving layer (docs/serving.md).

A :class:`ShardCluster` partitions vertex ownership across N supervised
:class:`ShardWorker`\\ s via the accelerator's GSPM partitioner, routes
per-tenant snapshot/event streams to every shard, and stitches the
owned rows back into full outputs — surviving worker crashes, stalls,
slow shards and torn checkpoints with bit-identical recovery.
"""

from .campaign import ChaosReport, run_chaos_campaign
from .clock import VirtualClock
from .cluster import PushReceipt, ShardCluster, ShardSupervisor
from .sharding import ShardMap
from .tenants import TenantGate
from .worker import ShardWorker

__all__ = [
    "ChaosReport",
    "PushReceipt",
    "ShardCluster",
    "ShardMap",
    "ShardSupervisor",
    "ShardWorker",
    "TenantGate",
    "VirtualClock",
    "run_chaos_campaign",
]
