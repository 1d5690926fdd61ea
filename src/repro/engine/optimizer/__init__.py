"""Cost-based optimizer: estimation, enumeration, planning."""

from repro.engine.optimizer.cardinality import (
    CardinalityEstimator,
    TraditionalEstimator,
)
from repro.engine.optimizer.cost import CostModel
from repro.engine.optimizer.join_enum import dp_left_deep, order_cost
from repro.engine.optimizer.planner import Planner

__all__ = [
    "CardinalityEstimator",
    "TraditionalEstimator",
    "CostModel",
    "dp_left_deep",
    "order_cost",
    "Planner",
]
