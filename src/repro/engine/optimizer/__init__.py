"""Cost-based optimizer: estimation, enumeration, planning."""

from repro.engine.optimizer.cardinality import (
    CardinalityEstimator,
    TraditionalEstimator,
)
from repro.engine.optimizer.cost import CostModel
from repro.engine.optimizer.join_enum import (
    dp_left_deep,
    greedy_order,
    random_order,
    order_cost,
)
from repro.engine.optimizer.planner import Planner
from repro.engine.optimizer.ues import (
    UpperBoundEstimator,
    max_frequency,
    ues_bounds,
    ues_order,
)

__all__ = [
    "CardinalityEstimator",
    "TraditionalEstimator",
    "CostModel",
    "dp_left_deep",
    "greedy_order",
    "random_order",
    "order_cost",
    "Planner",
    "UpperBoundEstimator",
    "max_frequency",
    "ues_bounds",
    "ues_order",
]
