"""Learned database configuration (paper §2.1, category 1)."""

from repro.ai4db.config.knob_tuning import (
    TuningResult,
    DefaultConfigTuner,
    RandomSearchTuner,
    GridSearchTuner,
    BayesianOptimizationTuner,
    CDBTuneLite,
    QTuneLite,
    run_tuning_session,
)
from repro.ai4db.config.index_advisor import (
    IndexCandidate,
    enumerate_index_candidates,
    workload_cost,
    GreedyIndexAdvisor,
    RLIndexAdvisor,
    ClassifierIndexAdvisor,
)
from repro.ai4db.config.view_advisor import (
    ViewCandidate,
    enumerate_view_candidates,
    materialize_view,
    GreedyViewAdvisor,
    RLViewAdvisor,
)
from repro.ai4db.config.rules import (
    RewriteRule,
    RemoveDuplicatePredicates,
    TightenRangePredicates,
    DetectContradictions,
    PropagateEqualityConstants,
    EliminateRedundantJoins,
    default_rules,
    apply_rules_fixed_order,
)
from repro.ai4db.config.sql_rewriter import (
    LearnedRewriter,
    FixedOrderRewriter,
    rewrite_benefit,
    make_rewrite_corpus,
)
from repro.ai4db.config.partitioner import (
    PartitioningCostModel,
    HeuristicPartitioner,
    RLPartitioner,
)

__all__ = [
    "TuningResult",
    "DefaultConfigTuner",
    "RandomSearchTuner",
    "GridSearchTuner",
    "BayesianOptimizationTuner",
    "CDBTuneLite",
    "QTuneLite",
    "run_tuning_session",
    "IndexCandidate",
    "enumerate_index_candidates",
    "workload_cost",
    "GreedyIndexAdvisor",
    "RLIndexAdvisor",
    "ClassifierIndexAdvisor",
    "ViewCandidate",
    "enumerate_view_candidates",
    "materialize_view",
    "GreedyViewAdvisor",
    "RLViewAdvisor",
    "RewriteRule",
    "RemoveDuplicatePredicates",
    "TightenRangePredicates",
    "DetectContradictions",
    "PropagateEqualityConstants",
    "EliminateRedundantJoins",
    "default_rules",
    "apply_rules_fixed_order",
    "LearnedRewriter",
    "FixedOrderRewriter",
    "rewrite_benefit",
    "make_rewrite_corpus",
    "PartitioningCostModel",
    "HeuristicPartitioner",
    "RLPartitioner",
]
