"""Staged-pipeline tests: plan cache, version invalidation, stage telemetry.

Extends the differential pattern of ``test_engine_executor_vectorized.py``:
cached-plan re-execution must return identical rows in identical order and
charge bit-identical work — on the engine and on a twin database whose
plans run on the reference executor — and a cache entry
must be invalidated by every catalog mutation (INSERT / CREATE INDEX /
ANALYZE / DDL) — no test may ever observe a stale plan.
"""

import copy

import pytest

from reference_executor import reference_database, same_rows
from repro.common import CatalogError, ParseError, PlanError
from repro.engine import Database, fusion
from repro.engine.plancache import PlanCache
from repro.engine.catalog import ViewDef
from repro.engine.optimizer.cardinality import TraditionalEstimator
from repro.engine.query import Aggregate, ConjunctiveQuery, JoinEdge, Predicate
from repro.engine.storage import Table
from repro.engine.types import ColumnSchema, TableSchema
from repro.sim import datagen
from test_engine_session import MagicExtension


@pytest.fixture
def db():
    """A small two-table database built through SQL."""
    db = Database()
    db.execute("CREATE TABLE users (id INT, name TEXT, age INT, spend FLOAT)")
    db.execute(
        "INSERT INTO users VALUES "
        + ", ".join(
            "(%d, 'u%d', %d, %.1f)" % (i, i, 20 + (i * 7) % 40, float(i % 13))
            for i in range(200)
        )
    )
    db.execute("CREATE TABLE orders (o_id INT, o_user INT, amount FLOAT)")
    db.execute(
        "INSERT INTO orders VALUES "
        + ", ".join(
            "(%d, %d, %.1f)" % (i, i % 200, float((i * 3) % 50))
            for i in range(400)
        )
    )
    db.execute("ANALYZE")
    return db


# ----------------------------------------------------------------------
# Satellite: full query signature
# ----------------------------------------------------------------------
class TestSignature:
    def _base(self, **kw):
        return ConjunctiveQuery(
            tables=["a", "b"],
            join_edges=[JoinEdge("a", "x", "b", "y")],
            predicates=[Predicate("a", "x", ">", 1)],
            **kw
        )

    def test_structural_order_insensitive(self):
        q1 = ConjunctiveQuery(
            tables=["a", "b"],
            join_edges=[JoinEdge("a", "x", "b", "y")],
            predicates=[Predicate("a", "x", "=", 1),
                        Predicate("b", "y", ">", 2)],
        )
        q2 = ConjunctiveQuery(
            tables=["b", "a"],
            join_edges=[JoinEdge("b", "y", "a", "x")],
            predicates=[Predicate("b", "y", ">", 2),
                        Predicate("a", "x", "=", 1)],
        )
        assert q1.signature() == q2.signature()

    def test_limit_distinguishes(self):
        assert self._base().signature() != self._base(limit=10).signature()
        assert self._base(limit=10).signature() != \
            self._base(limit=20).signature()

    def test_projections_distinguish(self):
        assert self._base().signature() != \
            self._base(projections=[("a", "x")]).signature()
        # Projection order is output order — it must matter.
        assert self._base(projections=[("a", "x"), ("b", "y")]).signature() \
            != self._base(projections=[("b", "y"), ("a", "x")]).signature()

    def test_aggregates_distinguish(self):
        count = self._base(aggregates=[Aggregate("count")])
        summed = self._base(aggregates=[Aggregate("sum", "a", "x")])
        assert count.signature() != summed.signature()
        assert count.signature() != self._base().signature()

    def test_group_by_distinguishes(self):
        plain = self._base(aggregates=[Aggregate("count")])
        grouped = self._base(aggregates=[Aggregate("count")],
                             group_by=[("a", "x")])
        assert plain.signature() != grouped.signature()

    def test_order_by_and_direction_distinguish(self):
        asc = self._base(order_by=(("a", "x"), False))
        desc = self._base(order_by=(("a", "x"), True))
        assert self._base().signature() != asc.signature()
        assert asc.signature() != desc.signature()

    def test_distinct_distinguishes(self):
        assert self._base(projections=[("a", "x")]).signature() != \
            self._base(projections=[("a", "x")], distinct=True).signature()

    def test_case_insensitive(self):
        lo = self._base(projections=[("a", "x")], group_by=[])
        hi = ConjunctiveQuery(
            tables=["A", "B"],
            join_edges=[JoinEdge("A", "X", "B", "Y")],
            predicates=[Predicate("A", "X", ">", 1)],
            projections=[("A", "X")],
        )
        assert lo.signature() == hi.signature()


# ----------------------------------------------------------------------
# Catalog versions: every mutation advances the per-table vector
# ----------------------------------------------------------------------
def _advanced(before, after):
    """No table's version moved back, and at least one moved forward."""
    before, after = dict(before), dict(after)
    return after != before and all(
        after.get(name, 0) >= v for name, v in before.items())


class TestCatalogEpoch:
    def test_bumps_on_every_mutation(self, db):
        seen = [db.version_vector()]

        def bumped():
            seen.append(db.version_vector())
            assert _advanced(seen[-2], seen[-1]), "versions did not advance"

        db.execute("CREATE TABLE t2 (a INT)")
        bumped()
        db.execute("INSERT INTO t2 VALUES (1), (2)")
        bumped()
        db.execute("CREATE INDEX idx_t2a ON t2 (a)")
        bumped()
        db.execute("ANALYZE t2")
        bumped()
        db.catalog.drop_index("idx_t2a")
        bumped()
        db.catalog.drop_table("t2")
        bumped()

    def test_direct_insert_rows_advances_epoch(self, db):
        """Bulk loads bypassing SQL (the datagen path) still move the
        table's version."""
        before = db.version_vector()
        db.catalog.table("users").insert_rows([(999, "zz", 30, 1.0)])
        assert _advanced(before, db.version_vector())
        assert dict(db.version_vector())["users"] == dict(before)["users"] + 1

    def test_drop_table_stays_monotonic(self, db):
        before = db.version_vector()
        db.catalog.drop_table("orders")  # the entry outlives the table
        assert _advanced(before, db.version_vector())

    def test_view_registration_bumps(self, db):
        from repro.ai4db.config.view_advisor import (
            enumerate_view_candidates,
            materialize_view,
        )

        db2 = Database()
        datagen.make_star_schema(
            db2.catalog, n_customers=100, n_products=20, n_dates=30,
            n_sales=500, seed=0,
        )
        workload = datagen.star_workload(n_queries=8, seed=1)
        cand = enumerate_view_candidates(workload)[0]
        before = db2.version_vector()
        materialize_view(db2, cand)
        assert _advanced(before, db2.version_vector())

    def test_database_exposes_catalog_epoch(self, db):
        """The database's version state is the catalog's per-table
        vector; there is no global counter beside it."""
        assert db.version_vector() == db.catalog.version_vector()
        assert db.version_vector(["users"]) == \
            db.catalog.version_vector(["users"])
        assert not hasattr(db, "epoch")
        assert not hasattr(db.catalog, "epoch")


# ----------------------------------------------------------------------
# PlanCache unit behaviour
# ----------------------------------------------------------------------
class TestPlanCache:
    def test_hit_miss_and_counters(self):
        cache = PlanCache(capacity=4)
        assert cache.get("k", token=1) is None
        cache.put("k", "plan", token=1)
        assert cache.get("k", token=1) == "plan"
        assert cache.stats() == {
            "hits": 1, "misses": 1, "invalidations": 0, "size": 1,
            "capacity": 4,
        }

    def test_epoch_drift_invalidates(self):
        cache = PlanCache(capacity=4)
        cache.put("k", "plan", token=1)
        assert cache.get("k", token=2) is None
        assert cache.invalidations == 1
        assert len(cache) == 0

    def test_lru_eviction(self):
        cache = PlanCache(capacity=2)
        cache.put("a", 1, 0)
        cache.put("b", 2, 0)
        assert cache.get("a", 0) == 1  # refresh a; b is now LRU
        cache.put("c", 3, 0)
        assert "b" not in cache
        assert cache.get("a", 0) == 1 and cache.get("c", 0) == 3

    def test_clear_keeps_counters_reset_keeps_entries(self):
        cache = PlanCache(capacity=4)
        cache.put("k", 1, 0)
        cache.get("k", 0)
        cache.clear()
        assert len(cache) == 0 and cache.hits == 1
        cache.put("k", 1, 0)
        cache.reset_counters()
        assert cache.hits == 0 and len(cache) == 1

    def test_capacity_validated(self):
        with pytest.raises(PlanError):
            PlanCache(capacity=0)


# ----------------------------------------------------------------------
# Tentpole: cached-plan differential behaviour
# ----------------------------------------------------------------------
#: The engine, and the same pipeline over the reference executor — under
#: the ids these tests have always used for the two.
MAKE_DB = {"vectorized": Database, "row": reference_database}


def _mode_dbs(build):
    dbs = {}
    for mode, make in MAKE_DB.items():
        d = make()
        build(d)
        dbs[mode] = d
    return dbs


class TestCachedPlanParity:
    """Warm (cached) re-execution is observationally identical to cold."""

    SQL = ("SELECT tag, COUNT(*), SUM(v) FROM l WHERE k < 25 "
           "GROUP BY tag ORDER BY tag LIMIT 4")

    def _build(self, d):
        rng_rows = [
            (i, (i * 11) % 40, float((i * 7) % 23) / 7.0, "tag%d" % (i % 5))
            for i in range(500)
        ]
        d.execute("CREATE TABLE l (id INT, k INT, v FLOAT, tag TEXT)")
        d.catalog.table("l").insert_rows(rng_rows)
        d.execute("ANALYZE")

    @pytest.mark.parametrize("mode", MAKE_DB)
    def test_warm_equals_cold_single_mode(self, mode):
        d = MAKE_DB[mode]()
        self._build(d)
        cold = d.execute(self.SQL)
        assert cold.trace.cache_hit is False
        warm = d.execute(self.SQL)
        assert warm.trace.cache_hit is True
        assert warm.rows == cold.rows
        assert warm.columns == cold.columns
        assert warm.work == cold.work
        assert warm.operator_work == cold.operator_work

    def test_warm_parity_across_modes(self):
        dbs = _mode_dbs(self._build)
        results = {}
        for mode, d in dbs.items():
            d.execute(self.SQL)  # populate the cache
            results[mode] = d.execute(self.SQL)  # cached re-execution
            assert results[mode].trace.cache_hit is True
        row_res = results["row"]
        for mode in MAKE_DB:
            if mode == "row":
                continue
            res = results[mode]
            assert same_rows(res.rows, row_res.rows), mode
            assert res.work == row_res.work, mode
            assert res.operator_work == row_res.operator_work, mode

    def test_structured_query_warm_parity(self):
        dbs = _mode_dbs(self._build)
        q = ConjunctiveQuery(
            tables=["l"],
            predicates=[Predicate("l", "k", "<", 20)],
            projections=[("l", "tag"), ("l", "k")],
            distinct=True,
        )
        for d in dbs.values():
            d.run_query_object(q)
        warm = {m: d.run_query_object(q) for m, d in dbs.items()}
        assert all(r.trace.cache_hit for r in warm.values())
        for mode in MAKE_DB:
            assert warm[mode].rows == warm["row"].rows, mode
            assert warm[mode].work == warm["row"].work, mode


class TestInvalidation:
    """No stale plan — or stale result — survives a catalog mutation."""

    def test_insert_invalidates_and_result_is_fresh(self, db):
        """An INSERT inside the row-count band keeps the plan, which reads
        the new row; one that takes ``users`` into the next power-of-two
        band (200 → 256 rows) invalidates it."""
        sql = "SELECT COUNT(*) FROM users WHERE age >= 20"
        assert db.query(sql)[0][0] == 200
        assert db.pipeline.plan_cache.hits == 0
        db.execute("INSERT INTO users VALUES (1000, 'new', 33, 9.9)")
        assert db.query(sql)[0][0] == 201  # would be 200 from stale rows
        assert db.pipeline.plan_cache.hits == 1
        assert db.pipeline.plan_cache.invalidations == 0
        db.execute("INSERT INTO users VALUES " + ", ".join(
            "(%d, 'young', 19, 0.0)" % (1001 + i) for i in range(55)))
        assert db.query(sql)[0][0] == 201
        assert db.pipeline.plan_cache.invalidations == 1

    def test_create_index_replans(self, db):
        sql = "SELECT name FROM users WHERE id = 7"
        cold = db.explain(sql)
        assert "IndexScan" not in cold
        warm = db.explain(sql)
        assert warm == cold  # served from cache
        db.execute("CREATE INDEX idx_uid ON users (id)")
        after = db.explain(sql)
        assert "IndexScan" in after  # cached SeqScan plan was NOT served

    def test_analyze_invalidates(self, db):
        sql = "SELECT COUNT(*) FROM orders WHERE amount < 10"
        db.query(sql)
        db.query(sql)
        hits_before = db.pipeline.plan_cache.hits
        assert hits_before >= 1
        db.execute("ANALYZE orders")
        db.query(sql)
        assert db.pipeline.plan_cache.invalidations >= 1
        # The replanned query caches again under the new versions.
        db.query(sql)
        assert db.pipeline.plan_cache.hits > hits_before

    @pytest.mark.parametrize("mode", MAKE_DB)
    def test_insert_freshness_both_modes(self, mode):
        d = MAKE_DB[mode]()
        d.execute("CREATE TABLE t (a INT)")
        d.execute("INSERT INTO t VALUES (1), (2), (3)")
        q = ConjunctiveQuery(tables=["t"],
                             aggregates=[Aggregate("sum", "t", "a")])
        assert d.run_query_object(q).rows == [(6,)]
        d.execute("INSERT INTO t VALUES (10)")
        assert d.run_query_object(q).rows == [(16,)]


class TestShapeCache:
    """New text of a known statement shape binds its literals into the
    shape's lowered template instead of being parsed and lowered."""

    SQL = ("SELECT o.o_id, u.name FROM orders o JOIN users u "
           "ON o.o_user = u.id WHERE u.age >= %s AND o.amount < %s "
           "AND u.name != %s")

    def test_new_text_of_a_known_shape_skips_parse(self, db):
        cold = db.execute(self.SQL % (30, 20.5, "'u7'"))
        assert cold.trace.span("lower").attrs["front"] == "parse"
        res = db.execute(self.SQL % (41, 7.0, "'it''s'"))
        assert "parse" not in res.trace.stages
        assert res.trace.span("lower").attrs["front"] == "shape"
        assert res.trace.root.attrs["fingerprint"] == self.SQL % (("?",) * 3)
        again = db.execute(self.SQL % (41, 7.0, "'it''s'"))
        assert again.trace.span("lower").attrs["front"] == "text"
        assert again.trace.root.attrs["fingerprint"] == self.SQL % (("?",) * 3)
        stats = db.pipeline.stats()["shape_cache"]
        assert stats["hits"] == 1 and stats["size"] == 1

    def test_bound_statement_is_the_parsed_one(self, db):
        """Rows, work, per-node stats and EXPLAIN of a shape-route
        statement equal a fresh database's parse route, byte for byte."""
        fresh = Database()
        for sql in ("CREATE TABLE users (id INT, name TEXT, age INT, "
                    "spend FLOAT)",
                    "CREATE TABLE orders (o_id INT, o_user INT, "
                    "amount FLOAT)"):
            fresh.execute(sql)
        for name in ("users", "orders"):
            fresh.catalog.table(name).insert_rows(
                db.catalog.table(name).rows())
        fresh.execute("ANALYZE")
        db.execute(self.SQL % (30, 20.5, "'u7'"))
        sql = self.SQL % (25, 12.0, "'u9'")
        ours, theirs = db.execute(sql), fresh.execute(sql)
        assert ours.trace.span("lower").attrs["front"] == "shape"
        assert theirs.trace.span("lower").attrs["front"] == "parse"
        assert ours.rows == theirs.rows and ours.work == theirs.work
        assert ours.telemetry.node_stats == theirs.telemetry.node_stats
        assert str(db.explain(sql)) == str(fresh.explain(sql))

    def test_limit_and_writes_store_no_shape(self, db):
        db.execute("SELECT name FROM users WHERE age > 30 LIMIT 5")
        db.execute("INSERT INTO users VALUES (900, 'x', 1, 1.0)")
        res = db.execute("SELECT name FROM users WHERE age > 31 LIMIT 5")
        assert res.trace.span("lower").attrs["front"] == "parse"
        assert len(db.pipeline.shape_cache) == 0

    def test_ddl_drops_cached_shapes(self, db):
        """A table dropped and re-created with other columns: the same
        shape re-lowers against the new schema, or raises."""
        shape = "SELECT id FROM users WHERE age = %d"
        db.execute(shape % 30)
        db.catalog.drop_table("users")
        with pytest.raises(CatalogError):
            db.execute(shape % 31)
        db.execute("CREATE TABLE users (id TEXT, age FLOAT)")
        db.execute("INSERT INTO users VALUES ('a', 32.0), ('b', 33.0)")
        res = db.execute(shape % 32)
        assert res.trace.span("lower").attrs["front"] == "parse"
        assert res.rows == [("a",)]
        assert db.pipeline.shape_cache.invalidations == 1
        assert db.execute(shape % 33).trace.span(
            "lower").attrs["front"] == "shape"
        db.catalog.drop_table("users")
        db.execute("CREATE TABLE users (uid INT, age INT)")
        with pytest.raises(ParseError):
            db.execute(shape % 34)

    def test_stats_reset_and_invalidate_cover_the_shape_cache(self, db):
        db.execute(self.SQL % (30, 20.5, "'u7'"))
        db.execute(self.SQL % (31, 20.5, "'u7'"))
        assert db.pipeline.stats()["shape_cache"]["hits"] == 1
        db.pipeline.reset_stats()
        assert db.pipeline.stats()["shape_cache"]["hits"] == 0
        assert len(db.pipeline.shape_cache) == 1
        db.pipeline.invalidate()
        assert len(db.pipeline.shape_cache) == 0


class TestExplicitOrders:
    def test_order_is_part_of_the_key(self):
        d = Database()
        names, edges = datagen.make_join_graph_schema(
            d.catalog, "clique", n_tables=3, rows_per_table=120, seed=5,
            prefix="j",
        )
        q = datagen.join_graph_workload(
            names, edges, n_queries=1, seed=6, min_tables=3
        )[0]
        order_a = list(q.tables)
        order_b = list(reversed(q.tables))
        d.run_query_object(q, order=order_a)
        d.run_query_object(q, order=order_b)
        assert len(d.pipeline.plan_cache) >= 2
        # Re-running either order hits its own entry.
        r = d.run_query_object(q, order=order_a)
        assert r.trace.cache_hit is True
        # And the implicit (enumerator-chosen) plan is a third entry.
        r2 = d.run_query_object(q)
        assert r2.trace.cache_hit is False


# ----------------------------------------------------------------------
# Generic plans behind the shape cache
# ----------------------------------------------------------------------
class TestGenericPlans:
    """After five custom plans, new text of a known shape binds its
    literals into one cached plan, re-costs it and keeps it while the
    planner's local choices hold (PostgreSQL's generic/custom choice)."""

    SQL = ("SELECT COUNT(*), SUM(o.amount) FROM orders o JOIN users u "
           "ON o.o_user = u.id WHERE u.id < %d AND o.amount >= %s")

    def _routes(self, db, values):
        return [db.execute(self.SQL % (v, v % 7)).trace.plan_route
                for v in values]

    def test_five_custom_runs_come_before_the_first_generic_one(self, db):
        assert self._routes(db, range(100, 108)) == (
            ["custom"] * 5 + ["generic"] * 3)
        stats = db.pipeline.stats()
        assert stats["plan_routes"] == {"custom": 5, "generic": 3}
        assert stats["generic_plans"] == {"fallbacks": 0, "shapes": 1}
        # A generic statement returns the planner's plan's rows and work,
        # and its plan-cache entry remembers the route (a query object of
        # the same signature hits it too).
        sql = self.SQL % (150, 4)
        generic = db.execute(sql)
        query = db.pipeline.lower_sql(sql)
        custom = db.executor.execute(db.planner.plan(query))
        assert generic.trace.plan_route == "generic"
        assert generic.rows == custom.rows and generic.work == custom.work
        again = db.run_query_object(query)
        assert again.trace.cache_hit and again.trace.plan_route == "generic"
        db.pipeline.reset_stats()
        assert db.pipeline.stats()["plan_routes"] == {
            "custom": 0, "generic": 0}

    def test_cached_plans_stay_as_built_and_generic_runs_compile_nothing(
            self, db, monkeypatch):
        """A frame's five custom statements, then six generic ones: every
        cached plan, memo and program compares equal before and after
        the generic runs, none of which compiles — each runs its
        template's program object on its own bound nodes."""
        compiled = []
        real = fusion.compile_plan

        def counting(*args):
            compiled.append(args)
            return real(*args)

        monkeypatch.setattr(fusion, "compile_plan", counting)

        def cached():
            return {key: (plan.pretty(), repr(program),
                          [(type(n), n.describe(), n.est_rows, n.est_cost)
                           for n in nodes], nodes, program, route)
                    for key, (plan, (program, nodes), route) in (
                        (k, e.value) for k, e in
                        db.pipeline.plan_cache._entries.items())}

        assert self._routes(db, range(100, 105)) == ["custom"] * 5
        assert len(compiled) == 5
        before = cached()
        (state,) = [e.value for e in db.pipeline.shape_plans._entries.values()]
        template, (program, nodes), __, __ = state.generic
        shape = (template.pretty(), repr(program), list(nodes))
        for v in range(120, 126):
            prepared = db.pipeline.prepare_sql(self.SQL % (v, v % 7))
            ran = db.pipeline.execute_prepared(prepared)
            assert len(compiled) == 5
            assert prepared.trace.plan_route == "generic"
            assert prepared.memo[0] is program
            assert prepared.memo[1] == list(prepared.plan.walk())
            fresh = db.executor.execute(prepared.plan)  # compiles its own
            assert (ran.rows, ran.work) == (fresh.rows, fresh.work)
            del compiled[5:]
        after = cached()
        assert len(after) == 5 + 6
        assert {key: after[key] for key in before} == before
        assert (template.pretty(), repr(program), list(nodes)) == shape

    def test_a_generic_statement_asks_each_scanned_table_once(self, db):
        """Re-costing a generic plan over k fully-pushed SeqScans asks k
        table questions: a scan's cost (its table's unfiltered rows)
        comes with the template, and joins are answered from the
        tables' estimates."""

        asks = []

        class Counting(TraditionalEstimator):
            def estimate_table(self, query, table):
                asks.append(table.lower())
                return super().estimate_table(query, table)

        db.planner.estimator = Counting(db.catalog)
        db.pipeline.invalidate()
        self._routes(db, range(100, 105))
        del asks[:]
        assert self._routes(db, [130]) == ["generic"]
        assert sorted(asks) == ["orders", "users"]
        # annotate() asks 2k — each table's filtered and unfiltered rows
        # — and leaves the same estimates on a copy of the plan.
        sql = self.SQL % (130, 130 % 7)
        prepared = db.pipeline.prepare_sql(sql)
        fresh = copy.deepcopy(prepared.plan)
        del asks[:]
        db.cost_model.annotate(fresh, db.planner.estimator.planning_scope(
            prepared.query), prepared.query)
        assert sorted(asks) == ["orders"] * 2 + ["users"] * 2
        assert [(n.est_rows, n.est_cost) for n in prepared.plan.walk()] == [
            (n.est_rows, n.est_cost) for n in fresh.walk()]

    def test_explain_names_the_generic_plan(self, db):
        custom = str(db.explain(self.SQL % (99, 3)))
        assert "Plan:" not in custom
        self._routes(db, range(100, 106))
        text = str(db.explain(self.SQL % (120, 2)))
        assert text.endswith("\nPlan: generic")
        assert text.count("Plan: generic") == 1
        analyzed = str(db.explain_analyze(self.SQL % (121, 2)))
        assert analyzed.count("Plan: generic") == 1
        assert "Plan cache: miss" in analyzed
        # Custom EXPLAIN text is what it was.
        assert str(db.explain(self.SQL % (99, 3))) == custom

    @pytest.mark.parametrize("write", [
        # 200 → 256 rows: the next power-of-two band of row count.
        "INSERT INTO users VALUES " + ", ".join(
            "(%d, 'x', 30, 1.0)" % (900 + i) for i in range(56)),
        "ANALYZE users",
        "CREATE INDEX users_age ON users (age)",
    ], ids=["insert", "analyze", "ddl"])
    def test_writes_restart_sampling(self, db, write):
        assert self._routes(db, range(100, 106))[-1] == "generic"
        db.execute(write)
        assert self._routes(db, range(110, 116)) == (
            ["custom"] * 5 + ["generic"])
        assert db.pipeline.shape_plans.invalidations == 1

    def test_a_literal_that_flips_the_join_plans_custom(self, db):
        shape = ("SELECT COUNT(*), SUM(o.amount) FROM orders o JOIN users u "
                 "ON o.o_user = u.id WHERE u.id < %d")
        for v in range(100, 106):
            db.execute(shape % v)
        res = db.execute(shape % 0)
        assert res.trace.plan_route == "custom"
        assert "NestedLoopJoin" in str(db.explain(shape % 0))
        assert db.pipeline.stats()["generic_plans"]["fallbacks"] == 1
        assert db.execute(shape % 160).trace.plan_route == "generic"

    def test_an_index_probe_that_no_longer_pays_plans_custom(self, db):
        db.execute("CREATE INDEX users_id ON users (id)")
        shape = "SELECT name FROM users WHERE id < %d"
        routes = [db.execute(shape % v).trace.plan_route
                  for v in range(2, 8)]
        assert routes == ["custom"] * 5 + ["generic"]
        assert "IndexScan" in str(db.explain(shape % 7))
        res = db.execute(shape % 250)
        assert res.trace.plan_route == "custom" and len(res.rows) == 200
        assert "IndexScan" not in str(db.explain(shape % 250))
        assert db.pipeline.stats()["generic_plans"]["fallbacks"] == 1

    def test_a_literal_a_view_answers_plans_custom(self, db):
        """A view over ``age = 30`` answers one literal of the shape:
        that statement plans custom (from the view), the others bind."""
        users = db.catalog.table("users")
        table = Table(TableSchema("v30", [
            ColumnSchema("users__" + c.name, c.dtype)
            for c in users.schema.columns]))
        table.insert_rows([r for r in users.rows() if r[2] == 30])
        db.catalog.register_view(ViewDef("v30", ConjunctiveQuery(
            ["users"], predicates=[Predicate("users", "age", "=", 30)]),
            table))
        shape = "SELECT name FROM users WHERE age = %d"
        routes = [db.execute(shape % v).trace.plan_route
                  for v in range(20, 26)]
        assert routes == ["custom"] * 5 + ["generic"]
        res = db.execute(shape % 30)
        assert res.trace.plan_route == "custom"
        assert sorted(res.rows) == sorted(
            (r[1],) for r in users.rows() if r[2] == 30)
        assert "ViewScan" in str(db.explain(shape % 30))
        assert db.pipeline.stats()["generic_plans"]["fallbacks"] == 1

    def test_a_literal_of_the_other_kind_never_binds(self, db):
        """``id = 3`` and ``id = 'x'`` share a fingerprint but not a
        frame: the text literal plans custom (no index probe for it)."""
        db.execute("CREATE INDEX users_id ON users (id)")
        shape = "SELECT name FROM users WHERE id = %s"
        routes = [db.execute(shape % v).trace.plan_route
                  for v in range(1, 7)]
        assert routes == ["custom"] * 5 + ["generic"]
        assert "IndexScan" in str(db.explain(shape % 6))
        res = db.execute(shape % "'x'")
        assert res.trace.plan_route == "custom" and res.rows == []
        assert "IndexScan" not in str(db.explain(shape % "'x'"))

    def test_alternating_frames_of_one_fingerprint_each_go_generic(self, db):
        """``LIMIT 5`` and ``LIMIT 10``, or ``>= 3`` and ``>= 3.5``, blank
        to one fingerprint but are different frames. Each frame keeps its
        own samples, so traffic alternating between them still reaches
        five custom plans per frame and then binds generic plans."""
        sql = self.SQL + " LIMIT %d"
        routes = [db.execute(sql % (v, v % 7, 5 + 5 * (v % 2)))
                  .trace.plan_route for v in range(100, 116)]
        assert routes == ["custom"] * 10 + ["generic"] * 6
        routes = [db.execute(self.SQL % (v, "%d%s" % (v % 7, ".5" * (v % 2))))
                  .trace.plan_route for v in range(100, 116)]
        assert routes == ["custom"] * 10 + ["generic"] * 6
        assert db.pipeline.stats()["generic_plans"]["shapes"] == 4

    def test_query_objects_orders_and_shapeless_text_stay_custom(self, db):
        queries = [db.pipeline.lower_sql(self.SQL % (v, 3))
                   for v in range(100, 110)]
        routes = {db.run_query_object(q).trace.plan_route for q in queries}
        routes |= {db.run_query_object(q, order=["users", "orders"])
                   .trace.plan_route for q in queries}
        # Non-ASCII text has no shape.
        routes |= {db.execute(self.SQL % (v, 3) + " AND u.name != 'é'")
                   .trace.plan_route for v in range(100, 110)}
        assert routes == {"custom"}
        assert len(db.pipeline.shape_plans) == 0

    def test_invalidate_drops_the_generic_state(self, db):
        self._routes(db, range(100, 106))
        db.pipeline.invalidate()
        assert len(db.pipeline.shape_plans) == 0
        assert self._routes(db, range(100, 106)) == (
            ["custom"] * 5 + ["generic"])


# ----------------------------------------------------------------------
# The one extension point, and the route EXPLAIN shares
# ----------------------------------------------------------------------
class TestShims:
    """The pipeline's one extension point, ``pipeline.extensions``
    (objects with ``describe`` and ``run``), and the front end EXPLAIN
    shares with ``execute``."""

    def test_statement_hooks_on_pipeline(self, db):
        extension = MagicExtension()
        db.pipeline.extensions.append(extension)
        assert db.execute("MAGIC WORD") == "HOOKED"
        assert extension.ran == ["MAGIC WORD"]

    def test_explain_routes_share_the_hooked_front_end(self, db):
        """EXPLAIN / EXPLAIN ANALYZE take the same parse→lower→cache
        front end and execute tail as ``execute``: the same rows, and
        the later calls hit the first one's cache entries."""
        sql = "SELECT id, age FROM users WHERE age > 21 LIMIT 3"
        analyzed = db.explain_analyze(sql)
        assert len(analyzed.result.rows) == 3
        res = db.execute(sql)
        assert res.rows == analyzed.result.rows
        explained = db.explain(sql)
        assert "Limit" in explained
        assert explained.text == db.pipeline.prepare_sql(sql).plan.pretty()
        assert explained.trace.cache_hit  # same SQL-text and plan cache entries
        assert res.trace.cache_hit


# ----------------------------------------------------------------------
# Telemetry and stats
# ----------------------------------------------------------------------
class TestPipelineTelemetry:
    def test_per_run_record(self, db):
        res = db.execute("SELECT COUNT(*) FROM users WHERE spend > 3")
        tel = res.trace
        assert set(tel.stages) == {"parse", "lower", "plan",
                                   "execute"}
        assert all(seconds > 0 for seconds in tel.stages.values())
        assert tel.cache_hit is False
        assert tel.execute is res.telemetry  # per-operator counters
        summary = tel.summary()  # the same tree, as plain dicts
        assert [c["name"] for c in summary["children"]] == list(tel.stages)
        assert summary["children"][-1]["attrs"]["fused_ops"] == \
            res.telemetry.fused_ops
        assert res.telemetry.total_work == res.work

    def test_warm_run_skips_parse_and_lower(self, db):
        sql = "SELECT COUNT(*) FROM users WHERE spend > 3"
        db.execute(sql)
        warm = db.execute(sql).trace
        assert "parse" not in warm.stages
        assert warm.cache_hit is True

    def test_stats_shape_and_reset(self, db):
        db.pipeline.reset_stats()
        db.query("SELECT COUNT(*) FROM users")
        db.query("SELECT COUNT(*) FROM users")
        s = db.pipeline.stats()
        assert s["runs"] == 2
        assert s["plan_cache"]["hits"] == 1
        assert s["plan_cache"]["misses"] == 1
        assert s["planning_seconds"] > 0
        assert s["execution_seconds"] > 0
        assert s["stages"]["execute"]["count"] == 2
        db.pipeline.reset_stats()
        s2 = db.pipeline.stats()
        assert s2["runs"] == 0 and s2["plan_cache"]["hits"] == 0
        assert s2["plan_cache"]["size"] == 1  # entries survive a reset

    def test_reexecuting_a_prepared_query_counts_each_run_once(self, db):
        """Two executions of one ``PreparedQuery`` are two statements
        over one planning pass: each has its own ``execute`` span, the
        planning spans are shared by reference, and the stats add only
        what each call added."""
        db.pipeline.reset_stats()
        prepared = db.pipeline.prepare_sql(
            "SELECT COUNT(*) FROM users WHERE spend > 3")
        first = db.pipeline.execute_prepared(prepared)
        second = db.pipeline.execute_prepared(prepared)
        assert first.rows == second.rows and first.work == second.work
        assert first.trace is prepared.trace
        assert second.trace is not first.trace
        assert second.telemetry is not first.telemetry
        planning = first.trace.root.children[:-1]
        assert [s.name for s in planning] == [
            "parse", "lower", "plan"]
        assert second.trace.root.children[:-1] == planning  # same objects
        assert second.trace.shared == len(planning)
        stages = db.pipeline.stats()["stages"]
        assert {k: v["count"] for k, v in stages.items()} == {
            "parse": 1, "lower": 1, "plan": 1, "execute": 2}
        assert stages["execute"]["seconds"] == pytest.approx(
            first.telemetry.seconds + second.telemetry.seconds)

    def test_explain_uses_cache_without_executing(self, db):
        sql = "SELECT name FROM users WHERE age > 30"
        db.pipeline.reset_stats()
        a = db.explain(sql)
        b = db.explain(sql)
        assert a == b
        s = db.pipeline.stats()
        assert s["plan_cache"]["hits"] == 1
        assert "execute" not in s["stages"]

    def test_ddl_counts_as_execute_stage(self, db):
        db.pipeline.reset_stats()
        db.execute("CREATE TABLE d (x INT)")
        s = db.pipeline.stats()
        assert s["stages"]["execute"]["count"] == 1
        assert "plan" not in s["stages"]


class TestAISQLThroughPipeline:
    def test_repeated_predict_hits_plan_cache(self):
        from repro.db4ai.declarative import AISQLExtension

        d = Database()
        d.execute("CREATE TABLE pts (x FLOAT, y FLOAT)")
        d.catalog.table("pts").insert_rows(
            (float(i) / 10.0, 2.0 * i / 10.0 + 1.0) for i in range(100)
        )
        d.execute("ANALYZE pts")
        AISQLExtension().install(d)
        d.execute("CREATE MODEL m KIND linear ON pts TARGET y FEATURES (x)")
        d.execute("PREDICT m ON pts WHERE x > 0.5 LIMIT 10")
        hits_before = d.pipeline.plan_cache.hits
        r = d.execute("PREDICT m ON pts WHERE x > 0.5 LIMIT 10")
        assert len(r.rows) == 10
        assert d.pipeline.plan_cache.hits > hits_before
