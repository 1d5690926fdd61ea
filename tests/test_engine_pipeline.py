"""Staged-pipeline tests: plan cache, version invalidation, stage telemetry.

Extends the differential pattern of ``test_engine_executor_vectorized.py``:
cached-plan re-execution must return identical rows in identical order and
charge bit-identical work — on the engine and on a twin database whose
plans run on the reference executor — and a cache entry
must be invalidated by every catalog mutation (INSERT / CREATE INDEX /
ANALYZE / DDL) — no test may ever observe a stale plan.
"""

import pytest

from reference_executor import reference_database, same_rows
from repro.common import PlanError
from repro.engine import Database
from repro.engine.pipeline import PIPELINE_STAGES, PlanCache
from repro.engine.query import Aggregate, ConjunctiveQuery, JoinEdge, Predicate
from repro.sim import datagen


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
        sql = "SELECT COUNT(*) FROM users WHERE age >= 20"
        assert db.query(sql)[0][0] == 200
        assert db.pipeline.plan_cache.hits == 0
        db.execute("INSERT INTO users VALUES (1000, 'new', 33, 9.9)")
        assert db.query(sql)[0][0] == 201  # would be 200 from a stale plan
        assert db.pipeline.plan_cache.invalidations >= 1

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
# Statement hooks, the rewriter and stage hooks
# ----------------------------------------------------------------------
class TestShims:
    """The pipeline's extension points: ``pipeline.statement_hooks``,
    ``pipeline.rewriter`` and ``pipeline.add_stage_hook``."""

    def test_statement_hooks_on_pipeline(self, db):
        db.pipeline.statement_hooks.append(
            lambda d, text: "HOOKED" if text.startswith("MAGIC") else None
        )
        assert db.execute("MAGIC WORD") == "HOOKED"

    def test_rewriter_applied_on_sql_and_query_paths(self, db):
        calls = []

        def rewriter(query):
            calls.append(query)
            return query

        db.pipeline.rewriter = rewriter
        assert db.pipeline.rewriter is rewriter
        db.query("SELECT COUNT(*) FROM users")
        q = ConjunctiveQuery(tables=["users"],
                             aggregates=[Aggregate("count")])
        db.run_query_object(q)
        assert len(calls) == 2

    def test_setting_rewriter_clears_plan_cache(self, db):
        db.query("SELECT COUNT(*) FROM users")
        assert len(db.pipeline.plan_cache) == 1
        db.pipeline.rewriter = lambda q: q
        assert len(db.pipeline.plan_cache) == 0

    def test_stage_hooks_observe_and_replace(self, db):
        seen = {stage: 0 for stage in PIPELINE_STAGES}
        for stage in ("parse", "lower", "rewrite", "plan", "execute"):
            def make(stage):
                def hook(value):
                    seen[stage] += 1
                    return None  # observe only

                return hook

            db.pipeline.add_stage_hook(stage, make(stage))
        db.query("SELECT COUNT(*) FROM users WHERE age > 21")
        assert seen == {"parse": 1, "lower": 1, "rewrite": 1, "plan": 1,
                        "execute": 1}
        # Warm SQL path skips parse/lower but still rewrites and executes.
        db.query("SELECT COUNT(*) FROM users WHERE age > 21")
        assert seen["parse"] == 1 and seen["lower"] == 1
        assert seen["rewrite"] == 2 and seen["execute"] == 2

    def test_explain_routes_share_the_hooked_front_end(self, db):
        """EXPLAIN / EXPLAIN ANALYZE take the same parse→lower→cache
        front end and execute tail as ``execute``: a lower-stage hook
        that caps the query at 3 rows caps all three alike."""
        def cap(query):
            return ConjunctiveQuery(
                tables=query.tables, predicates=query.predicates,
                projections=query.projections, limit=3,
            )

        executed = []
        db.pipeline.add_stage_hook("lower", cap)
        db.pipeline.add_stage_hook("execute", executed.append)
        sql = "SELECT id, age FROM users WHERE age > 21"
        assert len(db.explain_analyze(sql).result.rows) == 3
        assert len(executed) == 1  # EXPLAIN ANALYZE applies execute hooks
        res = db.execute(sql)
        assert len(res.rows) == 3
        explained = db.explain(sql)
        assert "Limit" in explained
        assert explained.text == db.pipeline.prepare_sql(sql).plan.pretty()
        assert explained.trace.cache_hit  # same SQL-text and plan cache entries
        assert res.trace.cache_hit

    def test_unknown_stage_rejected(self, db):
        with pytest.raises(PlanError):
            db.pipeline.add_stage_hook("optimize", lambda v: v)


# ----------------------------------------------------------------------
# Telemetry and stats
# ----------------------------------------------------------------------
class TestPipelineTelemetry:
    def test_per_run_record(self, db):
        res = db.execute("SELECT COUNT(*) FROM users WHERE spend > 3")
        tel = res.trace
        assert set(tel.stages) == {"parse", "lower", "rewrite", "plan",
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
            "parse", "lower", "rewrite", "plan"]
        assert second.trace.root.children[:-1] == planning  # same objects
        assert second.trace.shared == len(planning)
        stages = db.pipeline.stats()["stages"]
        assert {k: v["count"] for k, v in stages.items()} == {
            "parse": 1, "lower": 1, "rewrite": 1, "plan": 1, "execute": 2}
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
