"""Tests for the executor and Database façade, incl. order-invariance."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.ai4db.optimization.estimators import count_join_rows
from repro.common import CatalogError, ExecutionError, ParseError
from repro.engine import Database
from repro.engine.query import ConjunctiveQuery, Predicate
from test_engine_session import MagicExtension


class TestBasicExecution:
    def test_filter_semantics(self, tiny_db):
        rows = tiny_db.query("SELECT name FROM users WHERE age > 30")
        assert sorted(r[0] for r in rows) == ["carol", "erin"]

    def test_equality_on_text(self, tiny_db):
        rows = tiny_db.query("SELECT id FROM users WHERE name = 'bob'")
        assert rows == [(2,)]

    def test_join_semantics(self, tiny_db):
        rows = tiny_db.query(
            "SELECT name, amount FROM users JOIN orders ON id = user_id"
        )
        got = sorted(rows)
        assert got == [("alice", 9.5), ("alice", 20.0), ("bob", 5.25),
                       ("carol", 7.75)]

    def test_aggregates(self, tiny_db):
        assert tiny_db.query("SELECT COUNT(*) FROM users") == [(5,)]
        total = tiny_db.query("SELECT SUM(amount) FROM orders")[0][0]
        assert total == pytest.approx(43.5)
        avg_age = tiny_db.query("SELECT AVG(age) FROM users")[0][0]
        assert avg_age == pytest.approx(31.2)
        assert tiny_db.query("SELECT MIN(age), MAX(age) FROM users") == [
            (25, 41)
        ]

    def test_group_by(self, tiny_db):
        rows = tiny_db.query(
            "SELECT age, COUNT(*) FROM users GROUP BY age"
        )
        counts = dict(rows)
        assert counts[25] == 2 and counts[30] == 1

    def test_order_by_and_limit(self, tiny_db):
        rows = tiny_db.query(
            "SELECT name FROM users ORDER BY age DESC LIMIT 2"
        )
        assert rows == [("carol",), ("erin",)]

    def test_distinct(self, tiny_db):
        rows = tiny_db.query("SELECT DISTINCT age FROM users WHERE age = 25")
        assert rows == [(25,)]

    def test_empty_aggregate_count_zero(self, tiny_db):
        assert tiny_db.query(
            "SELECT COUNT(*) FROM users WHERE age > 1000"
        ) == [(0,)]

    def test_work_accounting_positive(self, tiny_db):
        result = tiny_db.execute("SELECT COUNT(*) FROM users")
        assert result.work > 0
        assert "SeqScan" in result.operator_work

    def test_insert_with_column_list_reorders(self, tiny_db):
        tiny_db.execute(
            "INSERT INTO users (age, id, name) VALUES (50, 6, 'frank')"
        )
        rows = tiny_db.query("SELECT id, name, age FROM users WHERE id = 6")
        assert rows == [(6, "frank", 50)]

    def test_insert_width_mismatch(self, tiny_db):
        with pytest.raises(ParseError):
            tiny_db.execute("INSERT INTO users (id) VALUES (1, 2)")

    def test_insert_repeated_column_rejected(self, tiny_db):
        """A column named twice in the list is an error (PostgreSQL's
        rule), not a last-value-wins write nor a misreported NULL in the
        column left out."""
        before = tiny_db.query("SELECT id, name, age FROM users")
        for sql in ("INSERT INTO users (id, id, name) VALUES (1, 2, 'x')",
                    "INSERT INTO users (id, id) VALUES (1, 2)"):
            with pytest.raises(ParseError,
                               match="column 'id' specified more than once"):
                tiny_db.execute(sql)
        assert tiny_db.query("SELECT id, name, age FROM users") == before

    def test_insert_fraction_into_int_rejected(self, tiny_db):
        """An INT column refuses 1.7 instead of storing 1; the batch is
        atomic, so the good row before it is not stored either."""
        before = tiny_db.query("SELECT id, name, age FROM users")
        with pytest.raises(CatalogError, match="INT column 'id'"):
            tiny_db.execute(
                "INSERT INTO users VALUES (6, 'x', 20), (1.7, 'z', 2)")
        assert tiny_db.query("SELECT id, name, age FROM users") == before
        tiny_db.execute("INSERT INTO users VALUES (2.0, 'y', 20)")
        assert tiny_db.query(
            "SELECT id FROM users WHERE name = 'y'") == [(2,)]


class TestIndexExecution:
    def test_index_scan_equals_seq_scan_results(self, star_db):
        q = "SELECT COUNT(*) FROM customer WHERE c_age < 25"
        before = star_db.query(q)
        star_db.execute("CREATE INDEX idx_ca ON customer (c_age)")
        after = star_db.query(q)
        assert before == after
        assert "IndexScan" in star_db.execute(q).operator_work

    def test_hypothetical_index_cannot_execute(self, star_db):
        star_db.catalog.create_index("hyp2", "customer", "c_age",
                                     hypothetical=True)
        from repro.engine.optimizer.planner import Planner

        planner = Planner(star_db.catalog, include_hypothetical=True)
        q = ConjunctiveQuery(
            tables=["customer"],
            predicates=[Predicate("customer", "c_age", "<", 20)],
        )
        plan = planner.plan(q)
        from repro.engine import plans as P

        if any(isinstance(n, P.IndexScan) for n in plan.walk()):
            with pytest.raises(ExecutionError):
                star_db.executor.execute(plan)


class TestJoinOrderInvariance:
    def test_all_orders_same_result(self, star_db, star_workload):
        """The load-bearing executor property: every join order returns the
        same multiset of rows (only work differs)."""
        from itertools import permutations

        q = next(q for q in star_workload if len(q.tables) == 3)
        results = []
        for order in permutations(q.tables):
            result = star_db.run_query_object(q, order=list(order))
            results.append(sorted(result.rows))
        for other in results[1:]:
            assert other == results[0]

    def test_view_answer_matches_base_answer(self, star_db, star_workload):
        from repro.ai4db.config.view_advisor import (
            ViewCandidate,
            enumerate_view_candidates,
            materialize_view,
        )

        candidates = enumerate_view_candidates(star_workload)
        assert candidates, "workload must contain repeated join templates"
        cand = candidates[0]
        matching = [
            q for q in star_workload
            if set(t.lower() for t in q.tables)
            == set(t.lower() for t in cand.query.tables)
        ]
        q = matching[0]
        base_result = star_db.run_query_object(q)
        materialize_view(star_db, cand)
        view_result = star_db.run_query_object(q)
        assert sorted(view_result.rows) == sorted(base_result.rows)
        assert "ViewScan" in view_result.operator_work


class TestCountJoinRows:
    def test_matches_executed_count(self, star_db, star_workload):
        for q in star_workload[:4]:
            counted = count_join_rows(star_db.catalog, q, q.tables)
            executed = star_db.run_query_object(q).rows
            # workload queries aggregate COUNT(*) first column
            assert executed[0][0] == counted

    def test_subset_counts(self, chain_catalog):
        catalog, names, edges = chain_catalog
        q = ConjunctiveQuery(
            tables=names[:3], join_edges=edges[:2],
            predicates=[Predicate(names[1], "val", "<", 100)],
        )
        single = count_join_rows(catalog, q, [names[1]])
        table = catalog.table(names[1])
        truth = int(np.sum(table.column_array("val") < 100))
        assert single == truth


class TestDatabaseFacade:
    def test_statement_hooks_take_priority(self, tiny_db):
        """An extension claims its text before the native parser sees
        it."""
        tiny_db.pipeline.extensions.append(MagicExtension())
        assert tiny_db.execute("MAGIC WORD") == "HOOKED"
        # Normal statements unaffected.
        assert tiny_db.query("SELECT COUNT(*) FROM users")[0][0] == 5

    def test_explain_does_not_execute(self, tiny_db):
        text = tiny_db.explain("SELECT name FROM users WHERE age > 30")
        assert "SeqScan" in text

    def test_explain_rejects_ddl(self, tiny_db):
        with pytest.raises(ParseError):
            tiny_db.explain("CREATE TABLE x (a INT)")

    def test_unknown_table_raises(self, tiny_db):
        with pytest.raises(CatalogError):
            tiny_db.query("SELECT a FROM nonexistent")

    def test_rewriter_hook_applied(self, tiny_db):
        """A rewriter works on the query object, outside the engine:
        rewrite the lowered query, then run what it returned."""
        def rewriter(query):
            return ConjunctiveQuery(tables=query.tables,
                                    projections=query.projections, limit=2)

        sql = "SELECT name FROM users"
        rewritten = rewriter(tiny_db.pipeline.lower_sql(sql))
        assert len(tiny_db.run_query_object(rewritten).rows) == 2
        assert len(tiny_db.query(sql)) == 5  # the text's own plan is intact

    def test_knob_cost_params_affect_work(self):
        db_fast = Database(cost_params={"cpu_tuple_cost": 1.0})
        db_slow = Database(cost_params={"cpu_tuple_cost": 5.0})
        for db in (db_fast, db_slow):
            db.execute("CREATE TABLE t (a INT)")
            db.execute("INSERT INTO t VALUES " +
                       ", ".join("(%d)" % i for i in range(100)))
            db.execute("ANALYZE t")
        w_fast = db_fast.execute("SELECT COUNT(*) FROM t").work
        w_slow = db_slow.execute("SELECT COUNT(*) FROM t").work
        assert w_slow > w_fast


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=0, max_value=120),
       st.sampled_from(["<", "<=", ">", ">=", "=", "!="]))
def test_filter_agrees_with_numpy_reference(value, op):
    """Property: SQL filters agree with NumPy boolean indexing."""
    db = Database()
    db.execute("CREATE TABLE t (a INT)")
    data = list(range(0, 120, 3)) * 2
    db.execute("INSERT INTO t VALUES " + ", ".join("(%d)" % v for v in data))
    db.execute("ANALYZE t")
    rows = db.query("SELECT COUNT(*) FROM t WHERE a %s %d" % (op, value))
    arr = np.array(data)
    ops = {"<": arr < value, "<=": arr <= value, ">": arr > value,
           ">=": arr >= value, "=": arr == value, "!=": arr != value}
    assert rows[0][0] == int(ops[op].sum())
