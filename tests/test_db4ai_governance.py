"""Tests for governance: discovery EKG, cleaning, labeling, lineage."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.common import CatalogError, ReproError
from repro.db4ai.governance.cleaning import (
    ActiveCleanSession,
    CorruptedDataset,
    RandomCleanSession,
    cleaning_curve,
)
from repro.db4ai.governance.discovery import (
    EnterpriseKnowledgeGraph,
    joinable_pairs,
)
from repro.db4ai.governance.labeling import (
    DawidSkene,
    SimulatedCrowd,
    active_label_acquisition,
    majority_vote,
)
from repro.db4ai.governance.lineage import LineageTable, LineageTracker
from repro.engine.catalog import Catalog
from repro.sim import datagen


class TestEKG:
    @pytest.fixture(scope="class")
    def ekg(self):
        catalog = Catalog()
        datagen.make_star_schema(catalog, n_customers=300, n_products=80,
                                 n_dates=60, n_sales=2000, seed=0)
        return EnterpriseKnowledgeGraph().build(catalog)

    def test_fk_columns_joinable(self, ekg):
        matches = ekg.joinable_columns("sales", "s_customer")
        assert matches
        assert matches[0][0] == "customer.c_id"

    def test_keyword_search(self, ekg):
        hits = ekg.keyword_search("region")
        assert "customer.c_region" in hits

    def test_related_tables(self, ekg):
        related = ekg.related_tables("sales", max_hops=1)
        assert "customer" in related

    def test_unknown_column_rejected(self, ekg):
        with pytest.raises(CatalogError):
            ekg.joinable_columns("sales", "nope")

    def test_joinable_pairs_sorted(self, ekg):
        pairs = joinable_pairs(ekg, min_overlap=0.3)
        overlaps = [p[2] for p in pairs]
        assert overlaps == sorted(overlaps, reverse=True)

    def test_no_self_table_edges(self, ekg):
        for a, b in ekg.graph.edges():
            assert a.split(".")[0] != b.split(".")[0]


class TestCleaning:
    @pytest.fixture(scope="class")
    def dataset(self):
        return CorruptedDataset(seed=0)

    def test_corruption_hurts_model(self, dataset):
        dirty = ActiveCleanSession(dataset, seed=0).test_accuracy()
        # Fully cleaned reference:
        session = ActiveCleanSession(dataset, batch_size=10**6, seed=0)
        session.step()
        clean = session.test_accuracy()
        assert clean > dirty + 0.03

    def test_activeclean_dominates_random(self, dataset):
        counts, active = cleaning_curve(ActiveCleanSession, dataset,
                                        n_batches=6, seed=0)
        __, random_ = cleaning_curve(RandomCleanSession, dataset,
                                     n_batches=6, seed=0)
        # Compare areas under the accuracy curve (budget-efficiency).
        assert np.trapezoid(active, counts) > np.trapezoid(random_, counts)

    def test_cleaning_only_touches_dirty_pool(self, dataset):
        session = ActiveCleanSession(dataset, batch_size=30, seed=0)
        chosen = session.step()
        assert all(dataset.is_dirty[i] for i in chosen)

    def test_cleaning_is_idempotent_per_record(self, dataset):
        session = RandomCleanSession(dataset, batch_size=50, seed=0)
        seen = set()
        for __ in range(5):
            batch = session.step()
            assert not (set(batch) & seen)
            seen.update(batch)

    def test_curve_lengths(self, dataset):
        counts, accs = cleaning_curve(RandomCleanSession, dataset,
                                      n_batches=4, seed=1)
        assert len(counts) == len(accs) == 5
        assert counts[0] == 0


class TestLabeling:
    def test_dawid_skene_beats_majority_with_spammers(self, rng):
        crowd = SimulatedCrowd(n_workers=15, n_classes=3, n_spammers=5,
                               seed=0)
        truths = rng.integers(0, 3, 400)
        votes = crowd.collect(truths, redundancy=5)
        mv_acc = float(np.mean(majority_vote(votes, 3, seed=0) == truths))
        ds = DawidSkene(3).fit(votes, crowd.n_workers)
        ds_acc = float(np.mean(ds.predict() == truths))
        assert ds_acc > mv_acc

    def test_dawid_skene_identifies_spammers(self, rng):
        crowd = SimulatedCrowd(n_workers=12, n_classes=3, n_spammers=3,
                               seed=1)
        truths = rng.integers(0, 3, 500)
        votes = crowd.collect(truths, redundancy=5)
        ds = DawidSkene(3).fit(votes, crowd.n_workers)
        reliability = ds.worker_reliability()
        # The three spammers (workers 0-2) should rank lowest.
        worst3 = set(np.argsort(reliability)[:3].tolist())
        assert worst3 == {0, 1, 2}

    def test_perfect_workers_give_perfect_inference(self, rng):
        crowd = SimulatedCrowd(n_workers=8, n_classes=2,
                               reliability_range=(0.999, 1.0), n_spammers=0,
                               seed=2)
        truths = rng.integers(0, 2, 100)
        votes = crowd.collect(truths, redundancy=3)
        ds = DawidSkene(2).fit(votes, crowd.n_workers)
        assert np.array_equal(ds.predict(), truths)

    def test_accuracy_improves_with_redundancy(self, rng):
        crowd = SimulatedCrowd(n_workers=20, n_classes=3, seed=3)
        truths = rng.integers(0, 3, 300)
        accs = []
        for redundancy in (1, 7):
            votes = crowd.collect(truths, redundancy=redundancy)
            ds = DawidSkene(3).fit(votes, crowd.n_workers)
            accs.append(float(np.mean(ds.predict() == truths)))
        assert accs[1] > accs[0]

    def test_active_acquisition_beats_uniform_at_budget(self, rng):
        crowd = SimulatedCrowd(n_workers=15, n_classes=3, n_spammers=3,
                               seed=4)
        truths = rng.integers(0, 3, 200)
        budget = 200 * 3
        active_labels, votes = active_label_acquisition(
            crowd, truths, budget=budget, initial_redundancy=1, batch=100,
            seed=5,
        )
        total_votes = sum(len(v) for v in votes)
        assert total_votes <= budget
        uniform_votes = crowd.collect(truths, redundancy=3)
        ds = DawidSkene(3).fit(uniform_votes, crowd.n_workers)
        uniform_acc = float(np.mean(ds.predict() == truths))
        active_acc = float(np.mean(active_labels == truths))
        assert active_acc >= uniform_acc - 0.05  # at worst competitive


class TestLineage:
    def _pipeline(self):
        tracker = LineageTracker()
        src = tracker.source("raw", [{"id": i, "v": i} for i in range(10)])
        filtered = tracker.filter(src, lambda r: r["v"] % 2 == 0)
        mapped = tracker.map(filtered, lambda r: {"id": r["id"],
                                                  "sq": r["v"] ** 2})
        return tracker, src, filtered, mapped

    def test_filter_provenance(self):
        tracker, __, filtered, ___ = self._pipeline()
        assert len(filtered) == 5
        assert LineageTracker.backward(filtered, 0) == {"raw": [0]}
        assert LineageTracker.backward(filtered, 4) == {"raw": [8]}

    def test_map_preserves_provenance(self):
        tracker, __, ___, mapped = self._pipeline()
        assert LineageTracker.backward(mapped, 2) == {"raw": [4]}

    def test_forward_lineage(self):
        tracker, __, ___, mapped = self._pipeline()
        assert LineageTracker.forward(mapped, "raw", 4) == [2]
        assert LineageTracker.forward(mapped, "raw", 3) == []

    def test_join_unions_provenance(self):
        tracker = LineageTracker()
        left = tracker.source("l", [{"k": 1, "a": "x"}, {"k": 2, "a": "y"}])
        right = tracker.source("r", [{"k": 1, "b": "z"}])
        joined = tracker.join(left, right, lambda r: r["k"], lambda r: r["k"],
                              lambda a, b: {**a, **b})
        assert len(joined) == 1
        prov = LineageTracker.backward(joined, 0)
        assert prov == {"l": [0], "r": [0]}

    def test_aggregate_unions_members(self):
        tracker = LineageTracker()
        src = tracker.source("s", [{"g": i % 2, "v": i} for i in range(6)])
        agg = tracker.aggregate(src, lambda r: r["g"],
                                lambda key, members: {
                                    "g": key,
                                    "sum": sum(m["v"] for m in members),
                                })
        idx = next(i for i, row in enumerate(agg.rows) if row["g"] == 0)
        assert LineageTracker.backward(agg, idx) == {"s": [0, 2, 4]}

    def test_union_keeps_sources_distinct(self):
        tracker = LineageTracker()
        a = tracker.source("a", [{"v": 1}])
        b = tracker.source("b", [{"v": 2}])
        u = tracker.union(a, b)
        assert LineageTracker.backward(u, 0) == {"a": [0]}
        assert LineageTracker.backward(u, 1) == {"b": [0]}

    def test_log_records_steps(self):
        tracker, __, ___, ____ = self._pipeline()
        kinds = [entry[0] for entry in tracker.log]
        assert kinds == ["source", "filter", "map"]

    def test_out_of_range_index(self):
        tracker, src, __, ___ = self._pipeline()
        with pytest.raises(ReproError):
            LineageTracker.backward(src, 99)

    def test_derived_without_provenance_rejected(self):
        with pytest.raises(ReproError):
            LineageTable("x", [1, 2], provenance=None, source=False)

    @settings(max_examples=25, deadline=None)
    @given(st.lists(st.integers(min_value=0, max_value=100), min_size=1,
                    max_size=50),
           st.integers(min_value=0, max_value=100))
    def test_filter_backward_forward_inverse_property(self, values, cutoff):
        """Property: backward(forward(x)) always contains x for survivors."""
        tracker = LineageTracker()
        src = tracker.source("src", values)
        out = tracker.filter(src, lambda v: v <= cutoff)
        for src_id, v in enumerate(values):
            hits = LineageTracker.forward(out, "src", src_id)
            if v <= cutoff:
                assert len(hits) == 1
                assert LineageTracker.backward(out, hits[0]) == {
                    "src": [src_id]
                }
            else:
                assert hits == []
