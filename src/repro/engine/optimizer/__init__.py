"""Cost-based optimizer: estimation, enumeration, planning, rewriting."""

from repro.engine.optimizer.cardinality import (
    CardinalityEstimator,
    TraditionalEstimator,
    SamplingEstimator,
    TrueCardinalityEstimator,
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
from repro.engine.optimizer.rules import (
    RewriteRule,
    RemoveDuplicatePredicates,
    TightenRangePredicates,
    DetectContradictions,
    PropagateEqualityConstants,
    EliminateRedundantJoins,
    default_rules,
    apply_rules_fixed_order,
)

__all__ = [
    "CardinalityEstimator",
    "TraditionalEstimator",
    "SamplingEstimator",
    "TrueCardinalityEstimator",
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
    "RewriteRule",
    "RemoveDuplicatePredicates",
    "TightenRangePredicates",
    "DetectContradictions",
    "PropagateEqualityConstants",
    "EliminateRedundantJoins",
    "default_rules",
    "apply_rules_fixed_order",
]
