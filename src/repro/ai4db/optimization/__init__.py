"""Learned database optimization: estimation (and the sampling and oracle
estimators it is scored against), cardinality feedback, join ordering,
end-to-end."""

from repro.ai4db.optimization.cardinality import (
    QueryFeaturizer,
    LearnedCardinalityEstimator,
    generate_training_queries,
)
from repro.ai4db.optimization.estimators import (
    SamplingEstimator,
    TrueCardinalityEstimator,
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
)
from repro.ai4db.optimization.end_to_end import NeoLiteOptimizer

__all__ = [
    "QueryFeaturizer",
    "LearnedCardinalityEstimator",
    "generate_training_queries",
    "SamplingEstimator",
    "TrueCardinalityEstimator",
    "FeedbackCorrectedEstimator",
    "FeedbackLoop",
    "QueryFeedbackStore",
    "LearnedCostModel",
    "PlanFeaturizer",
    "MCTSJoinOrderer",
    "DQNJoinOrderer",
    "compare_orderers",
    "NeoLiteOptimizer",
]
