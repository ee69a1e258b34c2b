"""Cost model C(W,Q), compiled evaluation kernel, and state evaluation."""

from .evaluate import (
    EvaluatedInterface,
    coordinate_descent,
    exhaustive_evaluation,
    sampled_evaluation,
    worst_sampled_evaluation,
)
from .kernel import (
    BoundedLRU,
    CompiledSequence,
    CostKernel,
    KernelStats,
)
from .model import CostBreakdown, CostModel, CostWeights

__all__ = [
    "CostModel",
    "CostWeights",
    "CostBreakdown",
    "CostKernel",
    "CompiledSequence",
    "KernelStats",
    "BoundedLRU",
    "EvaluatedInterface",
    "sampled_evaluation",
    "exhaustive_evaluation",
    "coordinate_descent",
    "worst_sampled_evaluation",
]
