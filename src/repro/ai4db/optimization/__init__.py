"""Learned database optimization: estimation (and the sampling, oracle and
upper-bound estimators it is scored against), cardinality feedback, join
ordering (the greedy, random and UES orders the engine's DP is raced
against, installed through ``order=``), end-to-end."""

from repro.ai4db.optimization.cardinality import (
    QueryFeaturizer,
    LearnedCardinalityEstimator,
    generate_training_queries,
)
from repro.ai4db.optimization.estimators import (
    SamplingEstimator,
    TrueCardinalityEstimator,
    UpperBoundEstimator,
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
    greedy_order,
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
    "FeedbackCorrectedEstimator",
    "FeedbackLoop",
    "QueryFeedbackStore",
    "LearnedCostModel",
    "PlanFeaturizer",
    "MCTSJoinOrderer",
    "DQNJoinOrderer",
    "compare_orderers",
    "greedy_order",
    "random_order",
    "ues_bounds",
    "ues_order",
    "NeoLiteOptimizer",
]
