"""Learned database optimization: estimation (and the sampling, oracle and
upper-bound estimators it is scored against, with the oracle's exact
counter), cardinality feedback, join ordering (the greedy, random and UES
orders the engine's DP is raced against, installed through ``order=``,
and the one objective that prices them all), end-to-end."""

from repro.ai4db.optimization.cardinality import (
    QueryFeaturizer,
    LearnedCardinalityEstimator,
    generate_training_queries,
)
from repro.ai4db.optimization.estimators import (
    SamplingEstimator,
    TrueCardinalityEstimator,
    UpperBoundEstimator,
    count_join_rows,
)
from repro.ai4db.optimization.feedback import (
    FeedbackCorrectedEstimator,
    FeedbackLoop,
    QueryFeedbackStore,
)
from repro.ai4db.optimization.cost import LearnedCostModel, PlanFeaturizer
from repro.ai4db.optimization.join_order import (
    MCTSJoinOrderer,
    DQNJoinOrderer,
    compare_orderers,
    dp_left_deep,
    greedy_order,
    order_cost,
    random_order,
)
from repro.ai4db.optimization.ues import ues_bounds, ues_order
from repro.ai4db.optimization.end_to_end import NeoLiteOptimizer

__all__ = [
    "QueryFeaturizer",
    "LearnedCardinalityEstimator",
    "generate_training_queries",
    "SamplingEstimator",
    "TrueCardinalityEstimator",
    "UpperBoundEstimator",
    "count_join_rows",
    "FeedbackCorrectedEstimator",
    "FeedbackLoop",
    "QueryFeedbackStore",
    "LearnedCostModel",
    "PlanFeaturizer",
    "MCTSJoinOrderer",
    "DQNJoinOrderer",
    "compare_orderers",
    "dp_left_deep",
    "greedy_order",
    "order_cost",
    "random_order",
    "ues_bounds",
    "ues_order",
    "NeoLiteOptimizer",
]
