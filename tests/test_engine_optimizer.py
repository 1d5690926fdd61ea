"""Tests for the optimizer: the traditional estimator, cost model,
enumeration, planner."""

import pytest

from repro.ai4db.optimization import (
    count_join_rows,
    dp_left_deep,
    greedy_order,
    order_cost,
    random_order,
)
from repro.common import PlanError
from repro.engine import plans as P
from repro.engine.catalog import Catalog
from repro.engine.optimizer.cardinality import TraditionalEstimator
from repro.engine.optimizer.cost import CostModel
from repro.engine.optimizer.join_enum import dp_order
from repro.engine.optimizer.planner import Planner
from repro.engine.query import Aggregate, ConjunctiveQuery, Predicate
from repro.sim import datagen


class TestTraditionalEstimator:
    def test_single_table_filter(self, correlated_catalog):
        est = TraditionalEstimator(correlated_catalog)
        q = ConjunctiveQuery(tables=["facts"],
                             predicates=[Predicate("facts", "a", "<", 20)])
        true = count_join_rows(correlated_catalog, q, ["facts"])
        assert est.estimate_table(q, "facts") == pytest.approx(true, rel=0.2)

    def test_independence_assumption_underestimates_correlated(
        self, correlated_catalog
    ):
        est = TraditionalEstimator(correlated_catalog)
        q = ConjunctiveQuery(
            tables=["facts"],
            predicates=[Predicate("facts", "a", "<", 10),
                        Predicate("facts", "b", "<", 10)],
        )
        true = count_join_rows(correlated_catalog, q, ["facts"])
        est_rows = est.estimate_table(q, "facts")
        # a and b are 0.9-correlated: independence must underestimate.
        assert est_rows < true * 0.6

    def test_join_estimate_reasonable(self, chain_catalog):
        catalog, names, edges = chain_catalog
        est = TraditionalEstimator(catalog)
        q = ConjunctiveQuery(tables=names[:2], join_edges=[edges[0]])
        true = count_join_rows(catalog, q, names[:2])
        estimate = est.estimate_subset(q, names[:2])
        assert 0.2 * true <= estimate <= 5 * max(true, 1)

    def test_empty_subset(self, chain_catalog):
        catalog, names, __ = chain_catalog
        est = TraditionalEstimator(catalog)
        q = ConjunctiveQuery(tables=names[:2])
        assert est.estimate_subset(q, []) == 0.0


class TestCostModel:
    def test_hash_beats_nl_on_large_inputs(self):
        cm = CostModel()
        kind, __ = cm.choose_join(10000, 10000, 5000)
        assert kind == "hash"

    def test_nl_wins_on_tiny_inputs(self):
        cm = CostModel()
        kind, __ = cm.choose_join(2, 2, 1)
        assert kind == "nl"

    def test_spill_penalty_applies(self):
        cheap = CostModel({"work_mem_rows": 10**9})
        spilling = CostModel({"work_mem_rows": 10})
        assert spilling.hash_join(100, 1000, 100) > cheap.hash_join(100, 1000, 100)

    def test_unknown_param_rejected(self):
        with pytest.raises(PlanError):
            CostModel({"bogus": 1.0})

    def test_sort_superlinear(self):
        cm = CostModel()
        assert cm.sort(20000) > 2 * cm.sort(10000)

    def test_annotation_populates_all_nodes(self, star_db, star_workload):
        plan = star_db.planner.plan(star_workload[0])
        for node in plan.walk():
            assert node.est_rows is not None
            assert node.est_cost is not None
        # Root cost dominates children.
        for child in plan.children:
            assert plan.est_cost >= child.est_cost


class TestJoinEnumeration:
    def _setup(self, topology, n=5):
        catalog = Catalog()
        names, edges = datagen.make_join_graph_schema(
            catalog, topology, n_tables=n, rows_per_table=300, seed=1,
            prefix="e_%s" % topology,
        )
        queries = datagen.join_graph_workload(names, edges, n_queries=4,
                                              seed=2, min_tables=n)
        return catalog, queries

    def test_dp_never_worse_than_greedy_or_random(self):
        for topology in ("chain", "star", "clique"):
            catalog, queries = self._setup(topology)
            est = TraditionalEstimator(catalog)
            cm = CostModel()
            for q in queries:
                __, dp_cost = dp_left_deep(q, est, cm)
                __, greedy_cost = greedy_order(q, est, cm)
                __, rand_cost = random_order(q, est, cm, seed=3)
                assert dp_cost <= greedy_cost + 1e-6
                assert dp_cost <= rand_cost + 1e-6

    def test_order_cost_requires_full_cover(self):
        catalog, queries = self._setup("chain")
        est = TraditionalEstimator(catalog)
        cm = CostModel()
        q = queries[0]
        with pytest.raises(PlanError):
            order_cost(q, q.tables[:-1], est, cm)

    def test_orders_cover_all_tables(self):
        catalog, queries = self._setup("star")
        est = TraditionalEstimator(catalog)
        cm = CostModel()
        for q in queries:
            for fn in (dp_left_deep, greedy_order):
                order, __ = fn(q, est, cm)
                assert sorted(t.lower() for t in order) == sorted(
                    t.lower() for t in q.tables
                )

    def test_left_deep_order_is_the_priced_order(self):
        """The planner joins in DP's priced order without pricing it."""
        catalog, queries = self._setup("clique")
        est = TraditionalEstimator(catalog)
        cm = CostModel()
        planner = Planner(catalog, estimator=est, cost_model=cm)
        for q in queries:
            order = dp_left_deep(q, est, cm)[0]
            assert dp_order(q, est, cm) == order
            plan = planner.plan(q)
            assert [n.table for n in plan.walk()
                    if isinstance(n, (P.SeqScan, P.IndexScan))] == order

    def test_random_order_connected(self):
        catalog, queries = self._setup("chain")
        est = TraditionalEstimator(catalog)
        cm = CostModel()
        q = queries[0]
        order, __ = random_order(q, est, cm, seed=5)
        # Each prefix must stay connected on a chain graph.
        for i in range(1, len(order)):
            assert q.edges_between(order[:i], order[i])


class TestPlanner:
    def test_single_table_plan(self, tiny_db):
        from repro.engine.sql import parse_sql, lower_select

        q = lower_select(parse_sql("SELECT name FROM users WHERE age > 30"),
                         tiny_db.catalog)
        plan = tiny_db.planner.plan(q)
        kinds = [n.op_name for n in plan.walk()]
        assert "SeqScan" in kinds
        assert "Project" in kinds

    def test_index_scan_chosen_when_selective(self, star_db):
        star_db.catalog.create_index("idx_age", "customer", "c_age")
        q = ConjunctiveQuery(
            tables=["customer"],
            predicates=[Predicate("customer", "c_age", "<", 20)],
            aggregates=[Aggregate("count")],
        )
        plan = star_db.planner.plan(q)
        assert any(isinstance(n, P.IndexScan) for n in plan.walk())

    def test_seq_scan_for_unselective_predicate(self, star_db):
        star_db.catalog.create_index("idx_age2", "customer", "c_age")
        q = ConjunctiveQuery(
            tables=["customer"],
            predicates=[Predicate("customer", "c_age", "<", 1000)],
            aggregates=[Aggregate("count")],
        )
        plan = star_db.planner.plan(q)
        assert not any(isinstance(n, P.IndexScan) for n in plan.walk())

    def test_explicit_order_respected(self, star_db, star_workload):
        q = next(q for q in star_workload if len(q.tables) >= 3)
        order = list(reversed(q.tables))
        plan = star_db.planner.plan(q, order=order)
        scans = [n.table for n in plan.walk()
                 if isinstance(n, (P.SeqScan, P.IndexScan))]
        assert scans[0].lower() == order[0].lower() or scans[-1].lower() in {
            t.lower() for t in order
        }

    def test_explicit_order_must_cover(self, star_db, star_workload):
        q = next(q for q in star_workload if len(q.tables) >= 2)
        with pytest.raises(PlanError):
            star_db.planner.plan(q, order=[q.tables[0]])

    def test_limit_zero_gives_empty_plan(self, tiny_db):
        q = ConjunctiveQuery(tables=["users"], limit=0)
        plan = tiny_db.planner.plan(q)
        assert isinstance(plan, P.EmptyResult)

    def test_cross_join_for_disconnected(self, tiny_db):
        q = ConjunctiveQuery(tables=["users", "orders"],
                             aggregates=[Aggregate("count")])
        plan = tiny_db.planner.plan(q)
        assert any(isinstance(n, P.CrossJoin) for n in plan.walk())

    def test_hypothetical_index_used_only_when_enabled(self, star_db):
        star_db.catalog.create_index("hyp", "customer", "c_age",
                                     hypothetical=True)
        q = ConjunctiveQuery(
            tables=["customer"],
            predicates=[Predicate("customer", "c_age", "<", 20)],
            aggregates=[Aggregate("count")],
        )
        normal_plan = star_db.planner.plan(q)
        assert not any(isinstance(n, P.IndexScan) for n in normal_plan.walk())
        whatif = Planner(star_db.catalog, include_hypothetical=True)
        whatif_plan = whatif.plan(q)
        assert any(isinstance(n, P.IndexScan) for n in whatif_plan.walk())

    def test_plan_pretty_renders(self, star_db, star_workload):
        plan = star_db.planner.plan(star_workload[0])
        text = plan.pretty()
        assert "rows=" in text and "cost=" in text
