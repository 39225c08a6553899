"""Multi-snapshot storage formats: CSR, O-CSR and PMA.

The three formats the paper compares in Fig. 13(b).  All implement
:class:`~repro.formats.base.MultiSnapshotStorage` over a
:class:`~repro.formats.base.WindowSelection`, so the benches can swap
them freely.  They are a measurement artefact: no engine stores a
window in them and the adaptive planner has no storage decision.
"""

from .base import (
    RANDOM_ACCESS_CYCLES,
    WORDS_PER_CYCLE,
    AccessCost,
    MultiSnapshotStorage,
    WindowSelection,
)
from .csr import SnapshotCSRStorage
from .ocsr import OCSRStorage
from .pma import PackedMemoryArray, PMAStorage

FORMATS = {
    "CSR": SnapshotCSRStorage,
    "O-CSR": OCSRStorage,
    "PMA": PMAStorage,
}

__all__ = [
    "AccessCost",
    "MultiSnapshotStorage",
    "WindowSelection",
    "RANDOM_ACCESS_CYCLES",
    "WORDS_PER_CYCLE",
    "SnapshotCSRStorage",
    "OCSRStorage",
    "PackedMemoryArray",
    "PMAStorage",
    "FORMATS",
]
