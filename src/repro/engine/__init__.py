"""Execution engines: the conventional reference and TaGNN-S."""

from .carry import Carry
from .concurrent import ConcurrentEngine
from .metrics import WORD_BYTES, ExecutionMetrics
from .reference import EngineResult, ReferenceEngine
from .streaming import StreamingInference, StreamResult

__all__ = [
    "Carry",
    "ConcurrentEngine",
    "ExecutionMetrics",
    "WORD_BYTES",
    "EngineResult",
    "ReferenceEngine",
    "StreamingInference",
    "StreamResult",
]
