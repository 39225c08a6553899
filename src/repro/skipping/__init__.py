"""Similarity-aware cell skipping: policy, delta/condense path, and the
prior-work approximation baselines of Table 5."""

from .approx import (
    APPROXIMATORS,
    ALSTMApprox,
    ATLASApprox,
    DeltaRNNApprox,
    ExactRNN,
    RNNApproximator,
    hard_sigmoid,
    hard_tanh,
    quantize,
    truncate_mantissa,
)
from .delta import CondensedDelta, DeltaCellCache, condense, generate_delta
from .policy import CellUpdateMode, ModeDecision, SkippingPolicy, SkipThresholds

__all__ = [
    "APPROXIMATORS",
    "ALSTMApprox",
    "ATLASApprox",
    "DeltaRNNApprox",
    "ExactRNN",
    "RNNApproximator",
    "hard_sigmoid",
    "hard_tanh",
    "quantize",
    "truncate_mantissa",
    "CondensedDelta",
    "DeltaCellCache",
    "condense",
    "generate_delta",
    "CellUpdateMode",
    "ModeDecision",
    "SkippingPolicy",
    "SkipThresholds",
]
