"""Cost-based optimizer: estimation, DP join enumeration, planning."""

from repro.engine.optimizer.cardinality import (
    CardinalityEstimator,
    TraditionalEstimator,
)
from repro.engine.optimizer.cost import CostModel
from repro.engine.optimizer.planner import Planner

__all__ = [
    "CardinalityEstimator",
    "TraditionalEstimator",
    "CostModel",
    "Planner",
]
