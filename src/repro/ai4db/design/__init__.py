"""Learned database design (paper §2.1, category 3)."""

from repro.ai4db.design.btree import BPlusTree
from repro.ai4db.design.learned_index import (
    RMIIndex,
    PGMIndex,
    ALEXLiteIndex,
    BinarySearchIndex,
    evaluate_index,
)
from repro.ai4db.design.learned_kv import (
    KVWorkload,
    KVDesign,
    KVCostModel,
    DesignContinuumSearch,
    classic_designs,
)
from repro.ai4db.design.txn_mgmt import (
    TransactionFeaturizer,
    ConflictClassifier,
    LearnedScheduler,
    evaluate_schedulers,
)

__all__ = [
    "BPlusTree",
    "RMIIndex",
    "PGMIndex",
    "ALEXLiteIndex",
    "BinarySearchIndex",
    "evaluate_index",
    "KVWorkload",
    "KVDesign",
    "KVCostModel",
    "DesignContinuumSearch",
    "classic_designs",
    "TransactionFeaturizer",
    "ConflictClassifier",
    "LearnedScheduler",
    "evaluate_schedulers",
]
