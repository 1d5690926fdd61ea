"""Tests for the cardinality feedback loop.

Covers the :mod:`repro.ai4db.optimization.feedback` primitives (store,
corrected estimator, execution ingestion), :class:`FeedbackLoop` on a
database (drift → plan cache emptied → replan), the learned estimator's
:meth:`refit_from_feedback`, and the two headline behaviours: a skewed
workload must drop the learned estimator's median q-error vs its cold
state, and a drifted join estimate must trigger a re-plan to a cheaper
join order.
"""

import statistics

import pytest

from repro.ai4db.optimization.estimators import count_join_rows
from repro.ai4db.optimization.feedback import (
    FeedbackCorrectedEstimator,
    FeedbackLoop,
    QueryFeedbackStore,
    induced_subquery,
)
from repro.engine import plans as P
from repro.engine.catalog import Catalog
from repro.engine.database import Database
from repro.engine.optimizer.cardinality import CardinalityEstimator
from repro.engine.query import Aggregate, ConjunctiveQuery, JoinEdge, Predicate
from repro.engine.telemetry import q_error
from repro.sim import datagen


class TestQError:
    def test_symmetric_and_floored(self):
        assert q_error(10, 10) == 1.0
        assert q_error(100, 10) == 10.0
        assert q_error(10, 100) == 10.0
        assert q_error(0, 0) == 1.0  # both floored at 1
        assert q_error(50, 0) == 50.0

    def test_none_propagates(self):
        assert q_error(None, 10) is None
        assert q_error(10, None) is None


class TestInducedSubquery:
    def test_keeps_subset_structure(self):
        q = ConjunctiveQuery(
            tables=["a", "b", "c"],
            join_edges=[JoinEdge("a", "x", "b", "x"),
                        JoinEdge("b", "y", "c", "y")],
            predicates=[Predicate("a", "x", "<", 5),
                        Predicate("c", "y", "=", 1)],
        )
        sub = induced_subquery(q, ["a", "b"])
        assert sub.tables == ["a", "b"]
        assert len(sub.join_edges) == 1  # only the a-b edge survives
        assert [p.table for p in sub.predicates] == ["a"]

    def test_signature_stable_across_call_sites(self):
        q = ConjunctiveQuery(
            tables=["a", "b"],
            join_edges=[JoinEdge("a", "x", "b", "x")],
        )
        assert (induced_subquery(q, ["a", "b"]).signature()
                == induced_subquery(q, ["B", "A"]).signature())


class TestQueryFeedbackStore:
    def _q(self, value=5):
        return ConjunctiveQuery(
            tables=["t"], predicates=[Predicate("t", "x", "<", value)]
        )

    def test_observe_then_lookup(self):
        store = QueryFeedbackStore()
        q = self._q()
        assert store.lookup(q, ["t"]) is None
        store.observe(q, ["t"], est_rows=100, actual_rows=40)
        assert store.lookup(q, ["t"]) == 40
        assert len(store) == 1

    def test_drift_bumps_version_once(self):
        store = QueryFeedbackStore(drift_threshold=2.0)
        q = self._q()
        assert store.version == 0
        # 100 vs 10 is q-error 10 — drift.
        assert store.observe(q, ["t"], 100, 10) is True
        assert store.version == 1
        # Re-observing the same stable actual is not new information.
        assert store.observe(q, ["t"], 100, 10) is False
        assert store.version == 1
        # The actual changing underneath us is drift again.
        assert store.observe(q, ["t"], 100, 1000) is True
        assert store.version == 2

    def test_small_error_never_drifts(self):
        store = QueryFeedbackStore(drift_threshold=2.0)
        assert store.observe(self._q(), ["t"], 100, 60) is False
        assert store.version == 0
        assert store.lookup(self._q(), ["t"]) == 60  # still remembered

    def test_none_estimate_never_drifts(self):
        store = QueryFeedbackStore()
        assert store.observe(self._q(), ["t"], None, 10) is False
        assert store.lookup(self._q(), ["t"]) == 10

    def test_lru_capacity(self):
        store = QueryFeedbackStore(capacity=2)
        for v in (1, 2, 3):
            store.observe(self._q(v), ["t"], 10, 10)
        assert len(store) == 2
        assert store.lookup(self._q(1), ["t"]) is None  # evicted
        assert store.lookup(self._q(3), ["t"]) == 10

    def test_pairs_and_clear(self):
        store = QueryFeedbackStore()
        store.observe(self._q(1), ["t"], 10, 7)
        store.observe(self._q(2), ["t"], 10, 9)
        queries, actuals = store.pairs()
        assert len(queries) == 2 and actuals == [7, 9]
        store.clear()
        assert len(store) == 0

    def test_validation(self):
        with pytest.raises(ValueError):
            QueryFeedbackStore(drift_threshold=0.5)
        with pytest.raises(ValueError):
            QueryFeedbackStore(capacity=0)


class _ConstantEstimator(CardinalityEstimator):
    def __init__(self, value):
        self.value = value

    def estimate_table(self, query, table):
        return self.value

    def estimate_subset(self, query, tables):
        return self.value


class TestFeedbackCorrectedEstimator:
    def test_exact_hit_overrides_base(self):
        store = QueryFeedbackStore()
        est = FeedbackCorrectedEstimator(_ConstantEstimator(999.0), store)
        q = ConjunctiveQuery(tables=["t"])
        assert est.estimate_table(q, "t") == 999.0  # cold: delegate
        store.observe(q, ["t"], 999, 123)
        assert est.estimate_table(q, "t") == 123.0  # corrected
        assert est.estimate_subset(q, ["t"]) == 123.0

    def test_miss_delegates(self):
        store = QueryFeedbackStore()
        est = FeedbackCorrectedEstimator(_ConstantEstimator(7.0), store)
        q1 = ConjunctiveQuery(tables=["t"],
                              predicates=[Predicate("t", "x", "<", 1)])
        q2 = ConjunctiveQuery(tables=["t"],
                              predicates=[Predicate("t", "x", "<", 2)])
        store.observe(q1, ["t"], 7, 42)
        assert est.estimate_table(q2, "t") == 7.0  # different signature


def _correlated_db():
    """A DB with a perfectly correlated two-column table and a feedback
    loop installed on it.

    ``a == b`` on every row, so the independence assumption underestimates
    ``a < K AND b < K`` by 4x at K = domain/4 — comfortably past the 2x
    drift threshold.
    """
    db = Database()
    db.execute("CREATE TABLE facts (id INT, a INT, b INT)")
    db.catalog.table("facts").insert_rows(
        [(i, i % 40, i % 40) for i in range(2000)]
    )
    db.execute("ANALYZE")
    return db, FeedbackLoop(db)


class TestFeedbackLoop:
    def test_install_wraps_the_estimator_and_drops_cached_plans(self):
        db = Database()
        db.execute("CREATE TABLE t (id INT)")
        db.query("SELECT COUNT(*) FROM t")
        base = db.planner.estimator
        loop = FeedbackLoop(db)
        assert isinstance(db.planner.estimator, FeedbackCorrectedEstimator)
        assert db.planner.estimator.base is base
        assert db.planner.estimator.store is loop.store
        assert len(db.pipeline.plan_cache) == 0

    def test_drift_invalidates_cached_plan_then_stabilizes(self):
        db, loop = _correlated_db()
        q = ConjunctiveQuery(
            tables=["facts"],
            predicates=[Predicate("facts", "a", "<", 10),
                        Predicate("facts", "b", "<", 10)],
            aggregates=[Aggregate("count")],
        )
        v0 = loop.store.version
        res1 = loop.run(q)
        assert res1.rows == [(500,)]
        # The misestimate (~125 est vs 500 actual) is drift: version moved.
        assert loop.store.version > v0
        # Drift emptied the plan cache, so the next run must replan…
        res2 = loop.run(q)
        assert res2.trace.cache_outcome == "miss"
        # …and the replanned run re-observes a now-stable actual with a
        # corrected estimate — no new drift, so the cache goes warm.
        v_after = loop.store.version
        res3 = loop.run(q)
        assert res3.trace.cache_hit is True
        assert loop.store.version == v_after
        assert res3.rows == res1.rows

    def test_only_the_loop_route_teaches_the_store(self):
        """The loop runs SELECT text too; statements run outside it
        (embedded, snapshot) use the corrections but observe nothing."""
        db, loop = _correlated_db()
        sql = "SELECT COUNT(*) FROM facts WHERE a < 10 AND b < 10"
        db.query(sql)
        db.snapshot().query(sql)
        assert loop.store.observations == 0
        assert loop.run(sql).rows == [(500,)]
        assert loop.store.drifts == 1
        assert loop.store.lookup(db.pipeline.lower_sql(sql), ["facts"]) == 500

    def test_estimator_corrected_after_one_execution(self):
        db, loop = _correlated_db()
        q = ConjunctiveQuery(
            tables=["facts"],
            predicates=[Predicate("facts", "a", "<", 10),
                        Predicate("facts", "b", "<", 10)],
        )
        cold = db.planner.estimator.estimate_table(q, "facts")
        true = count_join_rows(db.catalog, q, ["facts"])
        assert q_error(cold, true) > 2.0  # independence underestimates
        loop.run(q)
        warm = db.planner.estimator.estimate_table(q, "facts")
        assert warm == true

    def test_explain_analyze_reports_est_and_actual(self):
        db, loop = _correlated_db()
        sql = "SELECT COUNT(*) FROM facts WHERE a < 10 AND b < 10"
        res = db.explain_analyze(sql)
        assert "actual=" in res.text and "rows=" in res.text
        node_stats = res.trace.execute.node_stats
        assert node_stats == res.result.telemetry.node_stats
        leaf = node_stats[-1]
        assert leaf["op"] == "SeqScan"
        assert leaf["actual_rows"] == 500
        assert leaf["q_error"] > 2.0
        # Once the loop has run it, the estimate is feedback-corrected.
        loop.run(sql)
        res2 = db.explain_analyze(sql)
        assert res2.trace.execute.node_stats[-1]["q_error"] == \
            pytest.approx(1.0)

    def test_stable_workload_keeps_cache_warm(self):
        db, loop = _correlated_db()
        # A well-estimated query: single predicate, no correlation trap.
        q = ConjunctiveQuery(
            tables=["facts"],
            predicates=[Predicate("facts", "a", "<", 10)],
        )
        loop.run(q)
        v = loop.store.version
        for __ in range(3):
            res = loop.run(q)
        assert res.trace.cache_hit is True
        assert loop.store.version == v


class TestLearnedEstimatorRefit:
    def test_median_q_error_drops_after_feedback(self):
        from repro.ai4db.optimization.cardinality import (
            LearnedCardinalityEstimator,
            QueryFeaturizer,
            generate_training_queries,
        )

        catalog = Catalog()
        datagen.make_correlated_table(
            catalog, "facts", n_rows=2000, n_values=40, correlation=0.9,
            seed=0,
        )
        featurizer = QueryFeaturizer(catalog, ["facts"], [])
        # Cold state: trained only on single-predicate queries, so the
        # model has seen marginal selectivities but never the a/b
        # correlation — conjunctive queries get underestimated.
        base_q, base_c = generate_training_queries(
            catalog, "facts", ["a", "b"], n_queries=120, n_values=40,
            seed=1, max_predicates=1,
        )
        est = LearnedCardinalityEstimator(
            featurizer, hidden=(32,), epochs=80, seed=0
        ).fit(base_q, base_c)

        # The skewed workload: correlated conjunctions.
        workload = [
            ConjunctiveQuery(
                tables=["facts"],
                predicates=[Predicate("facts", "a", "<", k),
                            Predicate("facts", "b", "<", k)],
            )
            for k in (5, 8, 10, 12, 15, 20, 25, 30)
        ]
        truths = [count_join_rows(catalog, q, ["facts"]) for q in workload]

        def median_q(estimator):
            return statistics.median(
                q_error(estimator.estimate_table(q, "facts"), t)
                for q, t in zip(workload, truths)
            )

        cold = median_q(est)
        store = QueryFeedbackStore()
        for q, t in zip(workload, truths):
            store.observe(q, ["facts"], est.estimate_table(q, "facts"), t)
        used = est.refit_from_feedback(store)
        assert used == len(workload)
        warm = median_q(est)
        assert warm < cold

    def test_refit_skips_out_of_vocab_observations(self):
        from repro.ai4db.optimization.cardinality import (
            LearnedCardinalityEstimator,
            QueryFeaturizer,
            generate_training_queries,
        )

        catalog = Catalog()
        datagen.make_correlated_table(
            catalog, "facts", n_rows=500, n_values=20, correlation=0.5,
            seed=0,
        )
        featurizer = QueryFeaturizer(catalog, ["facts"], [])
        base_q, base_c = generate_training_queries(
            catalog, "facts", ["a", "b"], n_queries=30, n_values=20, seed=2,
        )
        est = LearnedCardinalityEstimator(
            featurizer, hidden=(16,), epochs=20, seed=0
        ).fit(base_q, base_c)
        store = QueryFeedbackStore()
        store.observe(ConjunctiveQuery(tables=["unknown"]), ["unknown"],
                      10, 20)
        assert est.refit_from_feedback(store) == 0


def _scan_order(plan):
    """Base-table scan order of a left-deep plan. Preorder descends the
    left spine first, so the first two entries are the innermost (first)
    join's inputs and later entries join progressively higher up."""
    return [n.table for n in plan.walk()
            if isinstance(n, (P.SeqScan, P.IndexScan))]


class TestJoinOrderReplan:
    """A stale join estimate must trigger replanning to a cheaper order.

    ``f ⋈ b`` is empty (disjoint key domains) but the traditional
    estimator — assuming key-domain containment — predicts it *bigger*
    than ``f ⋈ a``, so the cold plan joins ``a`` first. Once feedback
    observes the empty ``f ⋈ b``, the drift empties the plan cache and
    the replanner joins ``b`` first, collapsing the pipeline after an
    empty intermediate.
    """

    def _db(self):
        db = Database()
        db.execute("CREATE TABLE f (id INT, fk_a INT, fk_b INT)")
        db.catalog.table("f").insert_rows(
            [(i, i % 100, i % 10) for i in range(2000)]
        )
        db.execute("CREATE TABLE a (id INT)")
        db.catalog.table("a").insert_rows([(i,) for i in range(100)])
        # b's ids never overlap f.fk_b — the join is empty, but the
        # estimator cannot know that from per-column stats.
        db.execute("CREATE TABLE b (id INT)")
        db.catalog.table("b").insert_rows(
            [(1000 + (j % 50),) for j in range(200)]
        )
        db.execute("ANALYZE")
        return db, FeedbackLoop(db)

    def _q3(self):
        return ConjunctiveQuery(
            tables=["f", "a", "b"],
            join_edges=[JoinEdge("f", "fk_a", "a", "id"),
                        JoinEdge("f", "fk_b", "b", "id")],
        )

    def test_feedback_replans_to_cheaper_join_order(self):
        db, loop = self._db()
        q3 = self._q3()
        cold_order = _scan_order(db.planner.plan(q3))
        # Cold estimates: |f ⋈ a| = 2000 vs |f ⋈ b| = 8000, so the cold
        # plan joins a before b.
        assert cold_order.index("a") < cold_order.index("b"), cold_order
        res1 = loop.run(q3)
        assert res1.rows == []
        # A pair query teaches the store that f ⋈ b is empty (Leo-style
        # cross-query feedback) — a massive q-error, so the version bumps.
        v_before = loop.store.version
        qfb = ConjunctiveQuery(
            tables=["f", "b"],
            join_edges=[JoinEdge("f", "fk_b", "b", "id")],
        )
        assert loop.run(qfb).rows == []
        assert loop.store.version > v_before
        # Replanned order now joins the (known-empty) f ⋈ b first.
        warm_order = _scan_order(db.planner.plan(q3))
        assert warm_order != cold_order
        assert warm_order.index("b") < warm_order.index("a"), warm_order
        # The drift emptied the plan cache; the re-run replans and does
        # strictly less work than the cold execution.
        res2 = loop.run(q3)
        assert res2.trace.cache_outcome == "miss"
        assert res2.rows == []
        assert res2.work < res1.work
