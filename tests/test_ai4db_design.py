"""Tests for learned design: learned indexes, KV continuum, txn scheduling."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.ai4db.design.btree import BPlusTree
from repro.ai4db.design.learned_index import (
    ALEXLiteIndex,
    BinarySearchIndex,
    PGMIndex,
    RMIIndex,
    evaluate_index,
)
from repro.ai4db.design.learned_kv import (
    DesignContinuumSearch,
    KVCostModel,
    KVDesign,
    KVWorkload,
    classic_designs,
)
from repro.ai4db.design.txn_mgmt import (
    ConflictClassifier,
    LearnedScheduler,
    TransactionFeaturizer,
    evaluate_schedulers,
)
from repro.common import ModelError, NotFittedError
from repro.sim.txn import Transaction, hotspot_workload


@pytest.fixture(scope="module")
def keys():
    rng = np.random.default_rng(0)
    return np.unique(rng.lognormal(10, 1.2, 30000))


class TestLearnedIndexCorrectness:
    @pytest.mark.parametrize("cls,kwargs", [
        (BinarySearchIndex, {}),
        (RMIIndex, {"n_models": 128}),
        (PGMIndex, {"epsilon": 16}),
        (ALEXLiteIndex, {}),
    ])
    def test_every_present_key_found(self, keys, cls, kwargs):
        index = cls(keys[:5000], **kwargs)
        rng = np.random.default_rng(1)
        probe = keys[:5000][rng.choice(5000, 500, replace=False)]
        metrics = evaluate_index(index, probe, probe[:1] + 0.5)
        assert metrics["hit_accuracy"] == 1.0

    @pytest.mark.parametrize("cls,kwargs", [
        (RMIIndex, {"n_models": 64}),
        (PGMIndex, {"epsilon": 8}),
        (ALEXLiteIndex, {}),
    ])
    def test_absent_keys_not_found(self, keys, cls, kwargs):
        subset = keys[:3000]
        index = cls(subset, **kwargs)
        gaps = subset[:-1] + np.diff(subset) / 2
        for g in gaps[::100]:
            pos, __ = index.lookup(float(g))
            assert pos is None

    def test_rmi_positions_correct(self, keys):
        subset = np.sort(keys[:2000])
        index = RMIIndex(subset, n_models=64)
        for i in range(0, 2000, 97):
            pos, __ = index.lookup(float(subset[i]))
            assert pos == i

    def test_pgm_epsilon_bounds_window(self, keys):
        index = PGMIndex(keys[:5000], epsilon=8)
        # Probe cost is bounded by segment routing + log2(2*eps+1).
        __, comps = index.lookup(float(keys[100]))
        bound = np.ceil(np.log2(index.n_segments + 1)) + np.ceil(
            np.log2(2 * 8 + 2)
        ) + 2
        assert comps <= bound

    def test_learned_much_smaller_than_btree(self, keys):
        subset = keys[:20000]
        rmi = RMIIndex(subset, n_models=256)
        pgm = PGMIndex(subset, epsilon=32)
        btree = BPlusTree.bulk_load(
            [(float(k), i) for i, k in enumerate(subset)]
        )
        assert rmi.size_bytes() * 20 < btree.size_bytes()
        assert pgm.size_bytes() * 20 < btree.size_bytes()

    def test_rmi_more_models_lower_error(self, keys):
        small = RMIIndex(keys, n_models=16)
        large = RMIIndex(keys, n_models=512)
        assert large.max_error() <= small.max_error()

    def test_invalid_params(self, keys):
        with pytest.raises(ModelError):
            RMIIndex(keys, n_models=0)
        with pytest.raises(ModelError):
            PGMIndex(keys, epsilon=0)
        with pytest.raises(ModelError):
            RMIIndex(np.array([]))
        with pytest.raises(ModelError):
            ALEXLiteIndex(max_leaf_size=4)


class TestALEXInserts:
    def test_insert_then_find(self, keys):
        index = ALEXLiteIndex(keys[:1000])
        new = float(keys[5000])
        assert index.lookup(new)[0] is None
        index.insert(new)
        assert index.lookup(new)[0] is not None
        assert len(index) == 1001

    def test_many_inserts_stay_correct(self):
        rng = np.random.default_rng(3)
        index = ALEXLiteIndex([], max_leaf_size=32)
        inserted = []
        for __ in range(800):
            k = float(rng.uniform(0, 1e6))
            index.insert(k)
            inserted.append(k)
        for k in inserted[::37]:
            assert index.lookup(k)[0] is not None

    def test_global_positions_ordered(self):
        index = ALEXLiteIndex([], max_leaf_size=16)
        for k in [50.0, 10.0, 90.0, 30.0, 70.0]:
            index.insert(k)
        positions = [index.lookup(k)[0] for k in [10.0, 30.0, 50.0, 70.0, 90.0]]
        assert positions == sorted(positions)


@settings(max_examples=30, deadline=None)
@given(st.lists(st.floats(min_value=0, max_value=1e9, allow_nan=False),
                min_size=2, max_size=400, unique=True))
def test_learned_indexes_find_all_keys_property(key_list):
    """Property: every learned index finds every key it was built on."""
    arr = np.array(sorted(key_list))
    for index in (RMIIndex(arr, n_models=8), PGMIndex(arr, epsilon=4)):
        for i, k in enumerate(arr):
            pos, __ = index.lookup(float(k))
            assert pos == i


@settings(max_examples=20, deadline=None)
@given(st.lists(st.floats(min_value=0, max_value=1e6, allow_nan=False),
                min_size=1, max_size=200))
def test_alex_insert_lookup_property(key_list):
    """Property: ALEX-lite finds everything inserted (duplicates allowed)."""
    index = ALEXLiteIndex([], max_leaf_size=16)
    for k in key_list:
        index.insert(float(k))
    for k in set(key_list):
        assert index.lookup(float(k))[0] is not None
    assert len(index) == len(key_list)


class TestKVDesign:
    def test_bounds_enforced(self):
        with pytest.raises(ModelError):
            KVDesign(size_ratio=1.0)
        with pytest.raises(ModelError):
            KVDesign(merge_policy=2.0)

    def test_with_knob_clips(self):
        d = KVDesign().with_knob("size_ratio", 999.0)
        assert d.size_ratio == KVDesign.BOUNDS["size_ratio"][1]

    def test_workload_fractions_validated(self):
        with pytest.raises(ModelError):
            KVWorkload("bad", 0.5, 0.5, 0.5)

    def test_tiering_cheaper_writes_leveling_cheaper_reads(self):
        cm = KVCostModel()
        wl = KVWorkload("x", 0.5, 0.45, 0.05)
        leveling = KVDesign(merge_policy=0.0, size_ratio=8)
        tiering = KVDesign(merge_policy=1.0, size_ratio=8)
        assert cm.write_cost(tiering, wl) < cm.write_cost(leveling, wl)
        assert cm.point_read_cost(leveling, wl) < cm.point_read_cost(tiering, wl)

    def test_bloom_filters_cut_read_cost(self):
        cm = KVCostModel()
        wl = KVWorkload("x", 0.9, 0.05, 0.05)
        with_bloom = KVDesign(bloom_bits=10)
        without = KVDesign(bloom_bits=0)
        assert cm.point_read_cost(with_bloom, wl) < cm.point_read_cost(
            without, wl
        )

    def test_memory_model_counts_components(self):
        cm = KVCostModel()
        wl = KVWorkload("x", 0.5, 0.4, 0.1)
        lean = KVDesign(buffer_mb=1, bloom_bits=0, fence_granularity=4096)
        rich = KVDesign(buffer_mb=512, bloom_bits=16, fence_granularity=16)
        assert cm.memory_mb(rich, wl) > cm.memory_mb(lean, wl)

    def test_search_beats_all_fixed_designs(self):
        cm = KVCostModel()
        search = DesignContinuumSearch(cm)
        for wl in (KVWorkload("r", 0.85, 0.1, 0.05),
                   KVWorkload("w", 0.1, 0.85, 0.05)):
            __, cost, trajectory = search.search(wl)
            fixed_best = min(cm.total_cost(d, wl)
                             for d in classic_designs().values())
            assert cost <= fixed_best + 1e-9
            assert trajectory  # it actually moved

    def test_search_trajectory_monotone(self):
        cm = KVCostModel()
        search = DesignContinuumSearch(cm)
        __, ___, trajectory = search.search(KVWorkload("m", 0.4, 0.5, 0.1))
        costs = [c for __, ___, c in trajectory]
        assert all(b <= a + 1e-12 for a, b in zip(costs, costs[1:]))


class TestTxnScheduling:
    @pytest.fixture(scope="class")
    def classifier(self):
        train = hotspot_workload(n_txns=200, hot_fraction=0.7, seed=1)
        return ConflictClassifier(seed=0).fit(train, n_pairs=1200, seed=2)

    def test_classifier_accuracy_high(self, classifier):
        test = hotspot_workload(n_txns=200, hot_fraction=0.7, seed=3)
        assert classifier.accuracy(test, n_pairs=400, seed=4) > 0.85

    def test_classifier_unfitted(self):
        clf = ConflictClassifier()
        a = Transaction(0, {1}, {2}, 1.0)
        with pytest.raises(NotFittedError):
            clf.conflict_probability(a, a)

    def test_featurizer_overlap_counts(self):
        f = TransactionFeaturizer()
        a = Transaction(0, reads={1, 2}, writes={3}, duration=2.0)
        b = Transaction(1, reads={3}, writes={2}, duration=3.0)
        feats = f.pair_features(a, b)
        # ww, wr (a.writes & b.reads), rw (a.reads & b.writes)
        assert feats[4] == 0 and feats[5] == 1 and feats[6] == 1

    def test_learned_scheduler_covers_all_txns(self, classifier):
        txns = hotspot_workload(n_txns=80, seed=5)
        queues = LearnedScheduler(classifier).schedule(txns, 4)
        scheduled = [t.txn_id for q in queues for t in q]
        assert sorted(scheduled) == sorted(t.txn_id for t in txns)

    def test_learned_beats_fifo_on_hotspot(self, classifier):
        txns = hotspot_workload(n_txns=200, hot_fraction=0.75, seed=6)
        results = evaluate_schedulers(txns, n_workers=4,
                                      classifier=classifier)
        assert results["learned"].total_wait < results["fifo"].total_wait
        assert results["learned"].makespan <= results["fifo"].makespan * 1.05

    def test_all_schedulers_commit_everything(self, classifier):
        txns = hotspot_workload(n_txns=100, seed=7)
        results = evaluate_schedulers(txns, n_workers=3,
                                      classifier=classifier)
        for r in results.values():
            assert r.committed == 100
