"""Tests for the optimizer: estimators, cost model, enumeration, rules,
planner."""

import pytest

from repro.common import PlanError
from repro.engine import plans as P
from repro.engine.catalog import Catalog
from repro.engine.executor import count_join_rows
from repro.engine.optimizer.cardinality import (
    SamplingEstimator,
    TraditionalEstimator,
    TrueCardinalityEstimator,
)
from repro.engine.optimizer.cost import CostModel
from repro.engine.optimizer.join_enum import (
    dp_left_deep,
    greedy_order,
    order_cost,
    random_order,
)
from repro.engine.optimizer.planner import Planner
from repro.engine.optimizer.rules import (
    DetectContradictions,
    EliminateRedundantJoins,
    PropagateEqualityConstants,
    RemoveDuplicatePredicates,
    TightenRangePredicates,
    apply_rules_fixed_order,
    default_rules,
)
from repro.engine.query import Aggregate, ConjunctiveQuery, JoinEdge, Predicate
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

    def test_random_order_connected(self):
        catalog, queries = self._setup("chain")
        est = TraditionalEstimator(catalog)
        cm = CostModel()
        q = queries[0]
        order, __ = random_order(q, est, cm, seed=5)
        # Each prefix must stay connected on a chain graph.
        for i in range(1, len(order)):
            assert q.edges_between(order[:i], order[i])


class TestRewriteRules:
    def _base_query(self, extra_predicates=(), tables=("t",), edges=()):
        return ConjunctiveQuery(
            tables=list(tables),
            join_edges=list(edges),
            predicates=list(extra_predicates),
            aggregates=[Aggregate("count")],
        )

    def test_dedup(self):
        q = self._base_query([Predicate("t", "a", ">", 1),
                              Predicate("t", "a", ">", 1)])
        out = RemoveDuplicatePredicates().apply(q)
        assert out is not None and len(out.predicates) == 1

    def test_dedup_noop_returns_none(self):
        q = self._base_query([Predicate("t", "a", ">", 1)])
        assert RemoveDuplicatePredicates().apply(q) is None

    def test_tighten_lower_bounds(self):
        q = self._base_query([Predicate("t", "a", ">", 1),
                              Predicate("t", "a", ">", 5)])
        out = TightenRangePredicates().apply(q)
        assert out is not None
        assert out.predicates[0].value == 5

    def test_tighten_upper_bounds(self):
        q = self._base_query([Predicate("t", "a", "<=", 9),
                              Predicate("t", "a", "<", 12)])
        out = TightenRangePredicates().apply(q)
        assert out is not None
        assert len(out.predicates) == 1
        assert out.predicates[0].op == "<="
        assert out.predicates[0].value == 9

    def test_contradiction_eq_conflict(self):
        q = self._base_query([Predicate("t", "a", "=", 1),
                              Predicate("t", "a", "=", 2)])
        out = DetectContradictions().apply(q)
        assert out is not None and out.limit == 0

    def test_contradiction_empty_range(self):
        q = self._base_query([Predicate("t", "a", ">", 10),
                              Predicate("t", "a", "<", 5)])
        out = DetectContradictions().apply(q)
        assert out is not None and out.limit == 0

    def test_contradiction_eq_outside_range(self):
        q = self._base_query([Predicate("t", "a", "=", 3),
                              Predicate("t", "a", ">", 10)])
        out = DetectContradictions().apply(q)
        assert out is not None and out.limit == 0

    def test_no_false_contradiction(self):
        q = self._base_query([Predicate("t", "a", ">", 1),
                              Predicate("t", "a", "<", 10)])
        assert DetectContradictions().apply(q) is None

    def test_equality_propagation(self):
        q = ConjunctiveQuery(
            tables=["a", "b"],
            join_edges=[JoinEdge("a", "x", "b", "y")],
            predicates=[Predicate("a", "x", "=", 7)],
            aggregates=[Aggregate("count")],
        )
        out = PropagateEqualityConstants().apply(q)
        assert out is not None
        keys = {p.key() for p in out.predicates}
        assert ("b", "y", "=", 7) in keys

    def test_join_elimination_on_unique_unused_dim(self, chain_catalog):
        catalog, names, edges = chain_catalog
        # Join t0 (unique id, unused) to t1, count only.
        q = ConjunctiveQuery(
            tables=[names[0], names[1]],
            join_edges=[edges[0]],
            predicates=[Predicate(names[1], "val", "<", 100)],
            aggregates=[Aggregate("count")],
        )
        out = EliminateRedundantJoins().apply(q, catalog=catalog)
        assert out is not None
        assert out.tables == [names[1]]
        # Semantics preserved under referential integrity:
        assert count_join_rows(catalog, q, q.tables) == count_join_rows(
            catalog, out, out.tables
        )

    def test_join_elimination_keeps_used_tables(self, chain_catalog):
        catalog, names, edges = chain_catalog
        q = ConjunctiveQuery(
            tables=[names[0], names[1]],
            join_edges=[edges[0]],
            predicates=[Predicate(names[0], "val", "<", 100)],
            aggregates=[Aggregate("count")],
        )
        assert EliminateRedundantJoins().apply(q, catalog=catalog) is None

    def test_fixed_order_reaches_fixpoint(self):
        q = self._base_query([
            Predicate("t", "a", ">", 1),
            Predicate("t", "a", ">", 1),
            Predicate("t", "a", ">", 5),
        ])
        out, applied = apply_rules_fixed_order(q, default_rules())
        assert len(out.predicates) == 1
        assert "dedup-predicates" in applied
        assert "tighten-ranges" in applied


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
