"""Differential tests: the vectorized executor vs. the row interpreter.

Every plan shape runs in every mode on seeded data; all modes must return
identical rows *in identical order* and charge identical
``work``/``operator_work`` (the work-parity invariant that keeps
"cost gap == misestimation damage" true regardless of executor mode).
"""

import numpy as np
import pytest

from repro.common import ExecutionError
from repro.engine import Database, datagen, plans as P
from repro.engine.catalog import Catalog
from repro.engine.executor import EXECUTOR_MODES, Executor, count_join_rows
from repro.engine.plans import operator_counts
from repro.engine.query import Aggregate, ConjunctiveQuery, JoinEdge, Predicate


def _approx_rows(rows):
    """Rows with floats wrapped for tolerant comparison (sum order differs)."""
    return [
        tuple(
            pytest.approx(v, rel=1e-9, abs=1e-12) if isinstance(v, float) else v
            for v in row
        )
        for row in rows
    ]


def run_both(catalog, plan, cost_model=None):
    """Execute ``plan`` in every mode, assert parity, return the results."""
    results = {}
    for mode in EXECUTOR_MODES:
        ex = Executor(catalog, cost_model, mode=mode)
        results[mode] = ex.execute(plan)
    row_res = results["row"]
    approx = _approx_rows(row_res.rows)
    for mode in EXECUTOR_MODES:
        if mode == "row":
            continue
        res = results[mode]
        assert res.columns == row_res.columns, mode
        assert res.rows == approx, mode
        assert res.work == row_res.work, mode
        assert res.operator_work == row_res.operator_work, mode
    return row_res, results["vectorized"]


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

    def test_hash_indexscan_equality(self, diff_catalog):
        diff_catalog.create_index("hidx_lk", "l", "k", kind="hash")
        plan = P.IndexScan("l", "hidx_lk", Predicate("l", "k", "=", 3),
                           residual=[])
        run_both(diff_catalog, plan)

    @pytest.mark.parametrize("mode", EXECUTOR_MODES)
    def test_hash_index_inequality_raises(self, diff_catalog, mode):
        """Regression: hash probes stay equality-only in every mode."""
        diff_catalog.create_index("hidx2", "l", "k", kind="hash")
        plan = P.IndexScan("l", "hidx2", Predicate("l", "k", "<", 3),
                           residual=[])
        ex = Executor(diff_catalog, mode=mode)
        with pytest.raises(ExecutionError):
            ex.execute(plan)

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
    def test_filter(self, diff_catalog):
        plan = P.Filter(seq("l"), [Predicate("l", "v", "<", 0.5)])
        run_both(diff_catalog, plan)

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
        # k has heavy duplication: ties must keep input order in both modes.
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
                    P.Filter(
                        P.HashJoin(seq("l"), seq("r"),
                                   [JoinEdge("l", "k", "r", "k")]),
                        [Predicate("r", "w", "<", 700)],
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


class TestSqlLevelDifferential:
    """Planner-produced plans over realistic schemas, both modes."""

    def _dual_dbs(self, build):
        dbs = {}
        for mode in EXECUTOR_MODES:
            db = Database(executor_mode=mode)
            build(db)
            dbs[mode] = db
        return dbs

    @staticmethod
    def _assert_workload_parity(dbs, queries):
        for q in queries:
            res_r = dbs["row"].run_query_object(q)
            approx = _approx_rows(res_r.rows)
            for mode in EXECUTOR_MODES:
                if mode == "row":
                    continue
                res = dbs[mode].run_query_object(q)
                assert res.rows == approx, mode
                assert res.work == res_r.work, mode
                assert res.operator_work == res_r.operator_work, mode

    def test_star_workload_parity(self):
        def build(db):
            datagen.make_star_schema(
                db.catalog, n_customers=300, n_products=60, n_dates=60,
                n_sales=3000, seed=0,
            )

        dbs = self._dual_dbs(build)
        self._assert_workload_parity(
            dbs, datagen.star_workload(n_queries=12, seed=1)
        )

    def test_clique_workload_parity(self):
        schema = {}

        def build(db):
            names, edges = datagen.make_join_graph_schema(
                db.catalog, "clique", n_tables=4, rows_per_table=200,
                seed=11, prefix="n", correlated=True,
            )
            schema["names"], schema["edges"] = names, edges

        dbs = self._dual_dbs(build)
        queries = datagen.join_graph_workload(
            schema["names"], schema["edges"], n_queries=8, seed=12,
            min_tables=3,
        )
        self._assert_workload_parity(dbs, queries)

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
    def test_invalid_mode_rejected(self, diff_catalog):
        with pytest.raises(ExecutionError):
            Executor(diff_catalog, mode="gpu")

    def test_database_default_is_vectorized(self):
        assert Database().executor.mode == "vectorized"

    def test_env_var_selects_mode(self, monkeypatch):
        monkeypatch.setenv("REPRO_EXECUTOR_MODE", "row")
        assert Database().executor.mode == "row"

    def test_explicit_arg_beats_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_EXECUTOR_MODE", "row")
        assert Database(executor_mode="vectorized").executor.mode == "vectorized"


class TestTelemetry:
    @pytest.mark.parametrize("mode", EXECUTOR_MODES)
    def test_batches_match_plan_shape(self, diff_catalog, mode):
        plan = P.Limit(
            P.Sort(
                P.HashJoin(seq("l"), seq("r"), [JoinEdge("l", "k", "r", "k")]),
                key=("l", "id"),
                descending=False,
            ),
            5,
        )
        res = Executor(diff_catalog, mode=mode).execute(plan)
        tel = res.telemetry
        assert tel.mode == mode
        assert {k: v["batches"] for k, v in tel.operators.items()} == \
            operator_counts(plan)
        assert tel.total_seconds > 0
        assert all(v["seconds"] >= 0 for v in tel.operators.values())
        summary = tel.summary()
        assert summary["mode"] == mode
        assert set(summary["operators"]) == set(operator_counts(plan))

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
