"""Tests for learned optimization: cardinality, cost, join order, NEO."""

import numpy as np
import pytest

from repro.ai4db.optimization.cardinality import (
    LearnedCardinalityEstimator,
    QueryFeaturizer,
    generate_training_queries,
)
from repro.ai4db.optimization.cost import LearnedCostModel, PlanFeaturizer
from repro.ai4db.optimization.end_to_end import NeoLiteOptimizer, _order_of
from repro.ai4db.optimization.join_order import (
    DQNJoinOrderer,
    MCTSJoinOrderer,
    compare_orderers,
    dp_left_deep,
)
from repro.common import ModelError, NotFittedError
from repro.engine import Database
from repro.engine.catalog import Catalog
from repro.engine.optimizer.cardinality import TraditionalEstimator
from repro.engine.optimizer.cost import CostModel
from repro.engine.query import ConjunctiveQuery, Predicate
from repro.ml import q_error_summary
from repro.sim import datagen


@pytest.fixture(scope="module")
def trained_estimator():
    catalog = Catalog()
    datagen.make_correlated_table(catalog, "facts", n_rows=4000, n_values=40,
                                  correlation=0.9, seed=0)
    queries, cards = generate_training_queries(
        catalog, "facts", ["a", "b", "c"], n_queries=350, n_values=40, seed=1
    )
    featurizer = QueryFeaturizer(catalog, ["facts"], [])
    estimator = LearnedCardinalityEstimator(featurizer, hidden=(64, 32),
                                            epochs=80, seed=0)
    split = 280
    estimator.fit(queries[:split], cards[:split])
    return catalog, estimator, queries[split:], cards[split:]


class TestQueryFeaturizer:
    def test_dim_and_determinism(self, correlated_catalog):
        featurizer = QueryFeaturizer(correlated_catalog, ["facts"], [])
        q = ConjunctiveQuery(tables=["facts"],
                             predicates=[Predicate("facts", "a", "<", 10)])
        v1 = featurizer.featurize(q)
        v2 = featurizer.featurize(q)
        assert v1.shape == (featurizer.dim,)
        assert np.array_equal(v1, v2)

    def test_predicates_change_encoding(self, correlated_catalog):
        featurizer = QueryFeaturizer(correlated_catalog, ["facts"], [])
        q1 = ConjunctiveQuery(tables=["facts"],
                              predicates=[Predicate("facts", "a", "<", 10)])
        q2 = ConjunctiveQuery(tables=["facts"],
                              predicates=[Predicate("facts", "a", "<", 30)])
        assert not np.array_equal(featurizer.featurize(q1),
                                  featurizer.featurize(q2))

    def test_unknown_table_rejected(self, correlated_catalog):
        featurizer = QueryFeaturizer(correlated_catalog, ["facts"], [])
        q = ConjunctiveQuery(tables=["facts"])
        q.tables = ["other"]
        with pytest.raises(ModelError):
            featurizer.featurize(q)


class TestLearnedCardinality:
    def test_beats_histogram_tail_on_correlated(self, trained_estimator):
        catalog, estimator, test_q, test_c = trained_estimator
        learned = q_error_summary(test_c, estimator.predict(test_q))
        trad = TraditionalEstimator(catalog)
        trad_pred = [trad.estimate_subset(q, q.tables) for q in test_q]
        hist = q_error_summary(test_c, trad_pred)
        assert learned["q95"] < hist["q95"]

    def test_estimator_contract_subset(self, trained_estimator):
        __, estimator, test_q, ___ = trained_estimator
        q = test_q[0]
        est = estimator.estimate_subset(q, q.tables)
        assert est >= 0.0
        assert estimator.estimate_table(q, q.tables[0]) >= 0.0

    def test_unfitted_raises(self, correlated_catalog):
        featurizer = QueryFeaturizer(correlated_catalog, ["facts"], [])
        with pytest.raises(NotFittedError):
            LearnedCardinalityEstimator(featurizer).predict([])

    def test_fit_length_mismatch(self, correlated_catalog):
        featurizer = QueryFeaturizer(correlated_catalog, ["facts"], [])
        q = ConjunctiveQuery(tables=["facts"])
        with pytest.raises(ModelError):
            LearnedCardinalityEstimator(featurizer).fit([q], [1, 2])

    def test_training_queries_meet_min_card(self, correlated_catalog):
        queries, cards = generate_training_queries(
            correlated_catalog, "facts", ["a", "b"], n_queries=50,
            n_values=40, seed=2, min_card=5,
        )
        assert all(c >= 5 for c in cards)


class TestLearnedCostModel:
    @pytest.fixture(scope="class")
    def plan_corpus(self):
        db = Database()
        names, edges = datagen.make_join_graph_schema(
            db.catalog, "chain", n_tables=4, rows_per_table=400, seed=0,
            prefix="lc_",
        )
        queries = datagen.join_graph_workload(names, edges, n_queries=24,
                                              seed=1, min_tables=2)
        plans, works = [], []
        for q in queries:
            plan = db.planner.plan(q)
            plans.append(plan)
            works.append(db.executor.execute(plan).work)
        return plans, works

    def test_featurizer_fixed_dim(self, plan_corpus):
        plans, __ = plan_corpus
        featurizer = PlanFeaturizer()
        for plan in plans:
            assert featurizer.featurize(plan).shape == (featurizer.dim,)

    def test_predictions_close_on_train(self, plan_corpus):
        plans, works = plan_corpus
        model = LearnedCostModel(n_estimators=40).fit(plans, works)
        preds = model.predict(plans)
        qerr = q_error_summary(works, preds)
        assert qerr["q90"] < 2.0

    def test_generalizes_to_held_out(self, plan_corpus):
        plans, works = plan_corpus
        model = LearnedCostModel(n_estimators=40).fit(plans[:18], works[:18])
        preds = model.predict(plans[18:])
        qerr = q_error_summary(works[18:], preds)
        assert qerr["q50"] < 3.0

    def test_unfitted_raises(self, plan_corpus):
        plans, __ = plan_corpus
        with pytest.raises(NotFittedError):
            LearnedCostModel().predict(plans[:1])


class TestJoinOrderAgents:
    @pytest.fixture(scope="class")
    def clique(self):
        catalog = Catalog()
        names, edges = datagen.make_join_graph_schema(
            catalog, "clique", n_tables=6, rows_per_table=400, seed=2,
            prefix="jo_",
        )
        queries = datagen.join_graph_workload(names, edges, n_queries=5,
                                              seed=3, min_tables=5)
        return catalog, names, queries

    def test_mcts_close_to_dp(self, clique):
        catalog, __, queries = clique
        estimator = TraditionalEstimator(catalog)
        cm = CostModel()
        mcts = MCTSJoinOrderer(estimator, cm, n_iterations=200, seed=0)
        for q in queries:
            __, dp_cost = dp_left_deep(q, estimator, cm)
            order, mcts_cost = mcts.order(q)
            assert mcts_cost <= dp_cost * 1.3
            assert sorted(t.lower() for t in order) == sorted(
                t.lower() for t in q.tables
            )

    def test_mcts_single_table(self, clique):
        catalog, names, __ = clique
        estimator = TraditionalEstimator(catalog)
        cm = CostModel()
        q = ConjunctiveQuery(tables=[names[0]])
        order, cost = MCTSJoinOrderer(estimator, cm, seed=0).order(q)
        assert order == [names[0]]

    def test_dqn_trains_and_orders(self, clique):
        catalog, names, queries = clique
        estimator = TraditionalEstimator(catalog)
        cm = CostModel()
        dqn = DQNJoinOrderer(names, estimator, cm, episodes_per_query=3,
                             epochs=2, seed=0)
        dqn.fit(queries)
        order, cost = dqn.order(queries[0])
        assert sorted(t.lower() for t in order) == sorted(
            t.lower() for t in queries[0].tables
        )
        # The order must be valid for order_cost (no exception, finite).
        assert np.isfinite(cost)

    def test_dqn_unfitted_raises(self, clique):
        catalog, names, queries = clique
        dqn = DQNJoinOrderer(names, TraditionalEstimator(catalog), CostModel())
        with pytest.raises(NotFittedError):
            dqn.order(queries[0])

    def test_dqn_rejects_foreign_tables(self, clique):
        catalog, names, __ = clique
        dqn = DQNJoinOrderer(names[:2], TraditionalEstimator(catalog),
                             CostModel())
        foreign = ConjunctiveQuery(tables=[names[-1]])
        with pytest.raises(ModelError):
            dqn.fit([foreign])

    def test_compare_orderers_keys(self, clique):
        catalog, __, queries = clique
        results = compare_orderers(queries[:2],
                                   TraditionalEstimator(catalog),
                                   CostModel(), mcts_iterations=50, seed=0)
        assert set(results) == {"dp", "greedy", "random", "mcts"}
        for v in results.values():
            assert len(v["cost"]) == 2


class TestNeoLite:
    @pytest.fixture(scope="class")
    def neo_setup(self):
        db = Database()
        names, edges = datagen.make_join_graph_schema(
            db.catalog, "clique", n_tables=4, rows_per_table=300, seed=3,
            prefix="neo_", correlated=True,
        )
        workload = datagen.join_graph_workload(names, edges, n_queries=10,
                                               seed=4, min_tables=3)
        neo = NeoLiteOptimizer(db, names, epochs=60, seed=0)
        neo.bootstrap(workload[:6], extra_random_orders=1).train()
        return db, neo, workload

    def test_plan_order_covers_tables(self, neo_setup):
        __, neo, workload = neo_setup
        for q in workload[6:]:
            order = neo.plan_order(q)
            assert sorted(t.lower() for t in order) == sorted(
                t.lower() for t in q.tables
            )

    def test_execute_returns_correct_result(self, neo_setup):
        db, neo, workload = neo_setup
        q = workload[7]
        neo_result, __ = neo.execute(q, learn=False)
        reference = db.run_query_object(q)
        assert sorted(neo_result.rows) == sorted(reference.rows)

    def test_experience_grows_when_learning(self, neo_setup):
        __, neo, workload = neo_setup
        before = len(neo._experience)
        neo.execute(workload[8], learn=True)
        assert len(neo._experience) == before + 1

    def test_train_before_bootstrap_raises(self):
        db = Database()
        datagen.make_join_graph_schema(db.catalog, "chain", n_tables=2,
                                       rows_per_table=50, seed=0,
                                       prefix="nx_")
        neo = NeoLiteOptimizer(db, ["nx_0", "nx_1"])
        with pytest.raises(ModelError):
            neo.train()

    def test_order_recovery_from_plan(self, neo_setup):
        db, __, workload = neo_setup
        q = workload[0]
        plan = db.planner.plan(q)
        order = _order_of(plan, q)
        assert sorted(t.lower() for t in order) == sorted(
            t.lower() for t in q.tables
        )
