"""Differential tests: the engine's executor vs. the reference executor.

Every plan shape runs through both on seeded data; the engine must return
the reference's rows *in identical order*, charge identical
``work``/``operator_work`` (the work-parity invariant that keeps
"cost gap == misestimation damage" true) and count the same rows out of
every plan node.
"""

import numpy as np
import pytest

from reference_executor import ReferenceExecutor, assert_matches_reference
from repro.ai4db.optimization.estimators import count_join_rows
from repro.engine import Database, EngineConfig, plans as P
from repro.engine.catalog import Catalog
from repro.engine.executor import Executor
from repro.engine.operators import registered_node_types
from repro.engine.plans import operator_counts
from repro.engine.query import Aggregate, ConjunctiveQuery, JoinEdge, Predicate
from repro.sim import datagen


def run_both(catalog, plan, cost_model=None):
    """Execute ``plan`` on the reference and on the engine, assert the
    observational contract, return ``(reference, engine)`` results."""
    reference = ReferenceExecutor(catalog, cost_model).execute(plan)
    engine = Executor(catalog, cost_model).execute(plan)
    assert_matches_reference(engine, reference)
    return reference, engine


@pytest.fixture
def diff_catalog():
    """Two seeded random tables with known join structure plus a tiny lookup."""
    rng = np.random.default_rng(7)
    catalog = Catalog()
    n = 500
    left = catalog.create_table(
        "l", [("id", "INT"), ("k", "INT"), ("v", "FLOAT"), ("tag", "TEXT")]
    )
    left.insert_rows(
        (
            i,
            int(rng.integers(0, 40)),
            float(rng.normal()),
            "tag%d" % rng.integers(0, 5),
        )
        for i in range(n)
    )
    right = catalog.create_table("r", [("k", "INT"), ("w", "INT")])
    right.insert_rows(
        (int(rng.integers(0, 40)), int(rng.integers(0, 1000)))
        for __ in range(300)
    )
    catalog.analyze()
    return catalog


def seq(table, predicates=()):
    return P.SeqScan(table, list(predicates))


class TestScans:
    def test_seqscan_plain(self, diff_catalog):
        run_both(diff_catalog, seq("l"))

    def test_seqscan_predicates(self, diff_catalog):
        plan = seq("l", [Predicate("l", "k", "<", 20),
                         Predicate("l", "tag", "=", "tag2")])
        row_res, vec_res = run_both(diff_catalog, plan)
        assert len(vec_res.rows) > 0

    def test_seqscan_text_inequality(self, diff_catalog):
        run_both(diff_catalog, seq("l", [Predicate("l", "tag", ">=", "tag3")]))

    def test_seqscan_empty_match(self, diff_catalog):
        row_res, vec_res = run_both(
            diff_catalog, seq("l", [Predicate("l", "k", ">", 10**6)])
        )
        assert vec_res.rows == []

    @pytest.mark.parametrize("op", ["=", "<", "<=", ">", ">="])
    def test_btree_indexscan(self, diff_catalog, op):
        diff_catalog.create_index("idx_lk", "l", "k")
        plan = P.IndexScan("l", "idx_lk", Predicate("l", "k", op, 17),
                           residual=[Predicate("l", "v", ">", 0.0)])
        run_both(diff_catalog, plan)

    def test_emptyresult(self, diff_catalog):
        row_res, vec_res = run_both(
            diff_catalog, P.EmptyResult([("l", "id"), ("l", "k")])
        )
        assert vec_res.rows == []


class TestJoins:
    def _edge(self):
        return [JoinEdge("l", "k", "r", "k")]

    def test_hash_join(self, diff_catalog):
        plan = P.HashJoin(seq("l"), seq("r"), self._edge())
        row_res, vec_res = run_both(diff_catalog, plan)
        assert len(vec_res.rows) > len(vec_res.columns)

    def test_hash_join_reversed_edge_orientation(self, diff_catalog):
        plan = P.HashJoin(seq("r"), seq("l"), self._edge())
        run_both(diff_catalog, plan)

    def test_nested_loop_join(self, diff_catalog):
        plan = P.NestedLoopJoin(
            seq("l", [Predicate("l", "k", "<", 6)]),
            seq("r", [Predicate("r", "k", "<", 6)]),
            self._edge(),
        )
        run_both(diff_catalog, plan)

    def test_cross_join(self, diff_catalog):
        plan = P.CrossJoin(
            seq("l", [Predicate("l", "id", "<", 15)]),
            seq("r", [Predicate("r", "w", "<", 80)]),
        )
        run_both(diff_catalog, plan)

    def test_join_with_empty_side(self, diff_catalog):
        plan = P.HashJoin(
            seq("l", [Predicate("l", "k", ">", 10**6)]), seq("r"), self._edge()
        )
        row_res, vec_res = run_both(diff_catalog, plan)
        assert vec_res.rows == []


class TestShaping:
    def test_project(self, diff_catalog):
        plan = P.Project(seq("l"), [("l", "tag"), ("l", "k")], distinct=False)
        run_both(diff_catalog, plan)

    def test_project_distinct_first_occurrence_order(self, diff_catalog):
        plan = P.Project(seq("l"), [("l", "tag")], distinct=True)
        row_res, vec_res = run_both(diff_catalog, plan)
        assert len(vec_res.rows) == 5  # 5 distinct tags, appearance order

    def test_project_distinct_multicolumn(self, diff_catalog):
        plan = P.Project(seq("l"), [("l", "tag"), ("l", "k")], distinct=True)
        run_both(diff_catalog, plan)

    def test_group_by_aggregates(self, diff_catalog):
        plan = P.HashAggregate(
            seq("l"),
            group_by=[("l", "tag")],
            aggregates=[
                Aggregate("count"),
                Aggregate("sum", "l", "k"),
                Aggregate("avg", "l", "v"),
                Aggregate("min", "l", "v"),
                Aggregate("max", "l", "k"),
            ],
        )
        run_both(diff_catalog, plan)

    def test_group_by_text_minmax(self, diff_catalog):
        plan = P.HashAggregate(
            seq("l"),
            group_by=[("l", "k")],
            aggregates=[Aggregate("min", "l", "tag"),
                        Aggregate("max", "l", "tag")],
        )
        run_both(diff_catalog, plan)

    def test_global_aggregate(self, diff_catalog):
        plan = P.HashAggregate(
            seq("l"),
            group_by=[],
            aggregates=[Aggregate("count"), Aggregate("sum", "l", "v"),
                        Aggregate("min", "l", "k")],
        )
        row_res, vec_res = run_both(diff_catalog, plan)
        assert len(vec_res.rows) == 1

    def test_global_aggregate_empty_input(self, diff_catalog):
        plan = P.HashAggregate(
            seq("l", [Predicate("l", "k", ">", 10**6)]),
            group_by=[],
            aggregates=[Aggregate("count"), Aggregate("sum", "l", "v")],
        )
        row_res, vec_res = run_both(diff_catalog, plan)
        assert vec_res.rows == [(0, None)]

    def test_group_by_empty_input(self, diff_catalog):
        plan = P.HashAggregate(
            seq("l", [Predicate("l", "k", ">", 10**6)]),
            group_by=[("l", "tag")],
            aggregates=[Aggregate("count")],
        )
        row_res, vec_res = run_both(diff_catalog, plan)
        assert vec_res.rows == []

    @pytest.mark.parametrize("descending", [False, True])
    def test_sort_stable_with_duplicates(self, diff_catalog, descending):
        # k has heavy duplication: ties must keep input order.
        plan = P.Sort(seq("l"), key=("l", "k"), descending=descending)
        run_both(diff_catalog, plan)

    @pytest.mark.parametrize("descending", [False, True])
    def test_sort_text_key(self, diff_catalog, descending):
        plan = P.Sort(seq("l"), key=("l", "tag"), descending=descending)
        run_both(diff_catalog, plan)

    def test_limit_without_sort(self, diff_catalog):
        plan = P.Limit(seq("l"), 7)
        row_res, vec_res = run_both(diff_catalog, plan)
        assert len(vec_res.rows) == 7

    def test_limit_larger_than_input(self, diff_catalog):
        plan = P.Limit(seq("l", [Predicate("l", "k", "=", 0)]), 10**6)
        run_both(diff_catalog, plan)

    def test_deep_composed_plan(self, diff_catalog):
        plan = P.Limit(
            P.Sort(
                P.HashAggregate(
                    P.HashJoin(
                        seq("l"), seq("r", [Predicate("r", "w", "<", 700)]),
                        [JoinEdge("l", "k", "r", "k")],
                    ),
                    group_by=[("l", "tag")],
                    aggregates=[Aggregate("count"), Aggregate("sum", "r", "w")],
                ),
                key=("agg", "count_0"),
                descending=True,
            ),
            3,
        )
        run_both(diff_catalog, plan)


# ----------------------------------------------------------------------
# Every registered node type, reached through the engine's own operator
# ----------------------------------------------------------------------
def _node_type_db():
    """Tables ``l``/``r`` with a B+Tree index and a materialized join."""
    from repro.ai4db.config.view_advisor import (
        ViewCandidate,
        materialize_view,
    )

    db = Database()
    db.execute("CREATE TABLE l (id INT, k INT, v FLOAT, tag TEXT)")
    db.catalog.table("l").insert_rows(
        (i, i % 9, (i * 37 % 100) / 10.0, "tag%d" % (i % 4))
        for i in range(120))
    db.execute("CREATE TABLE r (k INT, w INT)")
    db.catalog.table("r").insert_rows((i % 9, i * 7 % 50) for i in range(40))
    db.execute("ANALYZE")
    db.execute("CREATE INDEX idx_lk ON l (k)")
    view = materialize_view(db, ViewCandidate(ConjunctiveQuery(
        tables=["l", "r"], join_edges=[JoinEdge("l", "k", "r", "k")]), 2))
    return db, view


def _sorted_tail(limit=None):
    """An ORDER BY tail: fusion refuses it, so Project, Sort (and Limit)
    run as their own operators."""
    plan = P.Project(
        P.Sort(seq("l", [Predicate("l", "k", "<", 6)]), ("l", "v")),
        [("l", "tag"), ("l", "v")], distinct=True)
    return plan if limit is None else P.Limit(plan, limit)


_LR_EDGE = [JoinEdge("l", "k", "r", "k")]

#: node type -> a plan (given the view) in which the engine evaluates
#: that type through its own operator. With fusion unconditional, the
#: unfused Project/Sort/Limit/HashAggregate operators are reached only
#: by shape, and a registered type with no entry here fails the walk.
PLAN_REACHING = {
    P.SeqScan: lambda view: seq("l", [Predicate("l", "tag", ">=", "tag2")]),
    P.IndexScan: lambda view: P.IndexScan(
        "l", "idx_lk", Predicate("l", "k", "<=", 3),
        residual=[Predicate("l", "v", ">", 2.0)]),
    P.ViewScan: lambda view: P.ViewScan(
        view, [Predicate("r", "w", "<", 25)]),
    P.EmptyResult: lambda view: P.Limit(
        P.EmptyResult([("l", "id"), ("l", "k")]), 3),
    P.HashJoin: lambda view: P.HashJoin(seq("l"), seq("r"), _LR_EDGE),
    P.NestedLoopJoin: lambda view: P.NestedLoopJoin(
        seq("l", [Predicate("l", "k", "<", 4)]), seq("r"), _LR_EDGE),
    P.CrossJoin: lambda view: P.CrossJoin(
        seq("l", [Predicate("l", "id", "<", 7)]), seq("r")),
    P.Project: lambda view: P.Project(seq("l"), [("l", "tag"), ("l", "k")]),
    P.Sort: lambda view: _sorted_tail(),
    P.Limit: lambda view: _sorted_tail(limit=5),
    P.HashAggregate: lambda view: P.HashAggregate(
        P.Sort(seq("l"), ("l", "v"), descending=True), [("l", "tag")],
        [Aggregate("count"), Aggregate("sum", "l", "v"),
         Aggregate("max", "l", "k")]),
    P.FusedPipelineOp: lambda view: P.Limit(
        P.HashAggregate(
            seq("l", [Predicate("l", "v", ">", 1.0)]),
            [("l", "tag")], [Aggregate("count"), Aggregate("min", "l", "k")]),
        3),
}


@pytest.mark.parametrize(
    "node_type", registered_node_types(), ids=lambda cls: cls.__name__)
def test_every_node_type_runs_through_its_operator(node_type):
    db, view = _node_type_db()
    plan = PLAN_REACHING[node_type](view)
    reference, engine = run_both(db.catalog, plan, db.cost_model)
    assert node_type.__name__ in engine.telemetry.operators
    assert len(reference.rows) > 0 or node_type is P.EmptyResult


class TestSqlLevelDifferential:
    """Planner-produced plans over realistic schemas."""

    @staticmethod
    def _assert_workload_parity(db, queries):
        reference = ReferenceExecutor(db.catalog, db.cost_model)
        for q in queries:
            res = db.run_query_object(q)
            plan = db.pipeline.prepare_query(q).plan
            assert_matches_reference(res, reference.execute(plan), repr(q))

    def test_star_workload_parity(self):
        db = Database()
        datagen.make_star_schema(
            db.catalog, n_customers=300, n_products=60, n_dates=60,
            n_sales=3000, seed=0,
        )
        self._assert_workload_parity(
            db, datagen.star_workload(n_queries=12, seed=1)
        )

    def test_clique_workload_parity(self):
        db = Database()
        names, edges = datagen.make_join_graph_schema(
            db.catalog, "clique", n_tables=4, rows_per_table=200,
            seed=11, prefix="n", correlated=True,
        )
        queries = datagen.join_graph_workload(
            names, edges, n_queries=8, seed=12, min_tables=3,
        )
        self._assert_workload_parity(db, queries)

    def test_view_scan_parity(self):
        from repro.ai4db.config.view_advisor import (
            enumerate_view_candidates,
            materialize_view,
        )

        db = Database()
        datagen.make_star_schema(
            db.catalog, n_customers=300, n_products=60, n_dates=60,
            n_sales=3000, seed=0,
        )
        workload = datagen.star_workload(n_queries=12, seed=1)
        cand = enumerate_view_candidates(workload)[0]
        materialize_view(db, cand)
        q = next(
            q for q in workload
            if {t.lower() for t in q.tables}
            == {t.lower() for t in cand.query.tables}
        )
        plan = db.planner.plan(q)
        assert any(isinstance(n, P.ViewScan) for n in plan.walk())
        run_both(db.catalog, plan, db.cost_model)


class TestModePlumbing:
    def test_invalid_mode_rejected(self, diff_catalog, monkeypatch):
        """There is one executor cell and nothing that selects another:
        every old spelling of a mode or fusion switch is an unknown
        keyword, and the old environment variables are not read."""
        with pytest.raises(TypeError):
            Executor(diff_catalog, mode="row")
        with pytest.raises(TypeError):
            Executor(diff_catalog, fusion_enabled=False)
        with pytest.raises(TypeError):
            Database(executor_mode="row")
        with pytest.raises(TypeError):
            Database(fusion_enabled=False)
        monkeypatch.setenv("REPRO_EXECUTOR_MODE", "row")
        monkeypatch.setenv("REPRO_FUSION", "0")
        assert EngineConfig.from_env() == EngineConfig()


class TestTelemetry:
    def test_batches_match_plan_shape(self, diff_catalog):
        plan = P.Limit(
            P.Sort(
                P.HashJoin(seq("l"), seq("r"), [JoinEdge("l", "k", "r", "k")]),
                key=("l", "id"),
                descending=False,
            ),
            5,
        )
        res = Executor(diff_catalog).execute(plan)
        tel = res.telemetry
        assert {k: v["batches"] for k, v in tel.operators.items()} == \
            operator_counts(plan)
        assert tel.seconds > 0
        assert all(v["seconds"] >= 0 for v in tel.operators.values())
        summary = tel.summary()
        assert "mode" not in summary and "mode" not in summary["attrs"]
        assert {s.name for s in tel.walk()} - {"execute"} == \
            set(operator_counts(plan))

    def test_rows_counted(self, diff_catalog):
        res = Executor(diff_catalog).execute(seq("l"))
        assert res.telemetry.operators["SeqScan"]["rows"] == 500


class TestCountJoinRowsVectorized:
    def test_matches_executed_join(self, diff_catalog):
        q = ConjunctiveQuery(
            tables=["l", "r"],
            join_edges=[JoinEdge("l", "k", "r", "k")],
            predicates=[Predicate("r", "w", "<", 500)],
        )
        plan = P.HashJoin(seq("l"), seq("r", q.predicates), q.join_edges)
        executed = Executor(diff_catalog).execute(plan)
        assert count_join_rows(diff_catalog, q, q.tables) == len(executed.rows)

    def test_single_table_filter(self, diff_catalog):
        q = ConjunctiveQuery(
            tables=["l"], predicates=[Predicate("l", "k", "<", 10)]
        )
        truth = int(np.sum(diff_catalog.table("l").column_array("k") < 10))
        assert count_join_rows(diff_catalog, q, ["l"]) == truth
