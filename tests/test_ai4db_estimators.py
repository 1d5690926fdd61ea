"""Tests for the sampling and exact-count estimators, which live in
``repro.ai4db.optimization.estimators`` and install on a planner from
outside."""

import pytest

from repro.ai4db.optimization.estimators import (
    SamplingEstimator,
    TrueCardinalityEstimator,
    count_join_rows,
)
from repro.engine import Database
from repro.engine.optimizer.cardinality import TraditionalEstimator
from repro.engine.query import ConjunctiveQuery, Predicate


class TestSamplingEstimator:
    def test_full_sample_is_near_exact(self, correlated_catalog):
        est = SamplingEstimator(correlated_catalog, sample_size=10**6, seed=0)
        q = ConjunctiveQuery(
            tables=["facts"],
            predicates=[Predicate("facts", "a", "<", 10),
                        Predicate("facts", "b", "<", 10)],
        )
        true = count_join_rows(correlated_catalog, q, ["facts"])
        assert est.estimate_table(q, "facts") == pytest.approx(true)

    def test_captures_correlation_better_than_histogram(
        self, correlated_catalog
    ):
        sampling = SamplingEstimator(correlated_catalog, sample_size=800,
                                     seed=0)
        hist = TraditionalEstimator(correlated_catalog)
        q = ConjunctiveQuery(
            tables=["facts"],
            predicates=[Predicate("facts", "a", "<", 10),
                        Predicate("facts", "b", "<", 10)],
        )
        true = count_join_rows(correlated_catalog, q, ["facts"])
        err_sampling = abs(sampling.estimate_table(q, "facts") - true)
        err_hist = abs(hist.estimate_table(q, "facts") - true)
        assert err_sampling < err_hist

    def test_join_sampling(self, chain_catalog):
        catalog, names, edges = chain_catalog
        est = SamplingEstimator(catalog, sample_size=10**6, seed=0)
        q = ConjunctiveQuery(tables=names[:3], join_edges=edges[:2])
        true = count_join_rows(catalog, q, names[:3])
        assert est.estimate_subset(q, names[:3]) == pytest.approx(true)


    def test_sample_refreshes_when_the_plan_version_moves(self):
        """A sample is redrawn exactly when a plan built from it would be
        re-planned: after ANALYZE, not after a write inside the row-count
        band."""
        db = Database()
        db.execute("CREATE TABLE t (a INT)")
        table = db.catalog.table("t")
        table.insert_rows([(i % 10,) for i in range(100)])
        db.execute("ANALYZE t")
        est = SamplingEstimator(db.catalog, sample_size=10**4, seed=0)
        q = ConjunctiveQuery(tables=["t"],
                             predicates=[Predicate("t", "a", "=", 3)])
        assert est.estimate_table(q, "t") == 10
        table.insert_rows([(3,)] * 900)
        db.execute("ANALYZE t")
        assert est.estimate_table(q, "t") == 910
        table.insert_rows([(3,)])  # 1,001 rows: still in the 512-1,023 band
        assert est.estimate_table(q, "t") == 910
        db.execute("ANALYZE t")
        assert est.estimate_table(q, "t") == 911


class TestTrueEstimatorAndCache:
    def test_oracle_matches_execution(self, chain_catalog):
        catalog, names, edges = chain_catalog
        est = TrueCardinalityEstimator(
            lambda q, ts: count_join_rows(catalog, q, ts)
        )
        q = ConjunctiveQuery(tables=names[:2], join_edges=[edges[0]],
                             predicates=[Predicate(names[0], "val", "<", 50)])
        true = count_join_rows(catalog, q, names[:2])
        assert est.estimate_subset(q, names[:2]) == true

    def test_cache_hit(self, chain_catalog):
        catalog, names, edges = chain_catalog
        calls = []

        def counting(q, ts):
            calls.append(1)
            return count_join_rows(catalog, q, ts)

        est = TrueCardinalityEstimator(counting)
        q = ConjunctiveQuery(tables=names[:2], join_edges=[edges[0]])
        est.estimate_subset(q, names[:2])
        est.estimate_subset(q, names[:2])
        assert len(calls) == 1

    def test_cache_invalidated_on_epoch_change(self, chain_catalog):
        # Regression: the memo must observe the catalog's versions —
        # counts cached before an INSERT/DDL were once served stale forever.
        catalog, names, edges = chain_catalog
        est = TrueCardinalityEstimator(
            lambda q, ts: count_join_rows(catalog, q, ts), catalog=catalog
        )
        q = ConjunctiveQuery(tables=[names[0]])
        before = est.estimate_subset(q, [names[0]])
        table = catalog.table(names[0])
        table.insert_rows([(10**6 + i, 0, 0) for i in range(5)])
        after = est.estimate_subset(q, [names[0]])
        assert after == before + 5

    def test_cache_stale_without_catalog(self, chain_catalog):
        # Documents the legacy behavior the catalog kwarg exists to fix.
        catalog, names, edges = chain_catalog
        est = TrueCardinalityEstimator(
            lambda q, ts: count_join_rows(catalog, q, ts)
        )
        q = ConjunctiveQuery(tables=[names[0]])
        before = est.estimate_subset(q, [names[0]])
        table = catalog.table(names[0])
        table.insert_rows([(10**6 + i, 0, 0) for i in range(5)])
        assert est.estimate_subset(q, [names[0]]) == before
