"""Dynamic-graph substrate: snapshots, dynamic graphs, generators, datasets.

Public surface::

    from repro.graphs import (
        CSRSnapshot, DynamicGraph, SnapshotDelta,
        load_dataset, available_datasets, paper_stats,
        generate_dynamic_graph, DynamicGraphSpec, ChurnConfig,
    )
"""

from .snapshot import CSRSnapshot, build_csr, degrees_from_indptr
from .dynamic import DynamicGraph, SnapshotDelta, snapshot_delta
from .generators import (
    ChurnConfig,
    DynamicGraphSpec,
    chung_lu_edges,
    generate_dynamic_graph,
)
from .datasets import (
    DATASET_NAMES,
    DATASET_SPECS,
    TABLE2,
    PaperDatasetStats,
    available_datasets,
    dataset_spec,
    load_dataset,
    paper_stats,
)
from .io import FORMAT_VERSION, load_dynamic_graph, save_dynamic_graph
from .real import TemporalEdgeList, load_edge_list, parse_edge_list
from .updates import (
    EventBatch,
    UpdateEvent,
    UpdateKind,
    apply_events,
    delta_to_events,
    event_stream,
    event_violation,
)

__all__ = [
    "CSRSnapshot",
    "build_csr",
    "degrees_from_indptr",
    "DynamicGraph",
    "SnapshotDelta",
    "snapshot_delta",
    "ChurnConfig",
    "DynamicGraphSpec",
    "chung_lu_edges",
    "generate_dynamic_graph",
    "DATASET_NAMES",
    "DATASET_SPECS",
    "TABLE2",
    "PaperDatasetStats",
    "available_datasets",
    "dataset_spec",
    "load_dataset",
    "paper_stats",
    "FORMAT_VERSION",
    "TemporalEdgeList",
    "load_edge_list",
    "parse_edge_list",
    "load_dynamic_graph",
    "save_dynamic_graph",
    "EventBatch",
    "UpdateEvent",
    "UpdateKind",
    "apply_events",
    "delta_to_events",
    "event_stream",
    "event_violation",
]
