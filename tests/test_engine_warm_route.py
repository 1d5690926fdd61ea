"""Warm statements run what the caches hold.

* **A plan is prepared once.** Planning it fuses the tail, lists the
  unfused nodes and computes the read set; the plan-cache entry holds
  that memo beside the plan, so every later run on every route reuses
  it, and an evicted plan is freed by reference counting.
* **The SQL-text cache carries the plan-cache key** (the lowered query's
  signature), so a warm text reaches its plan without recomputing it.
* **One catalog snapshot per committed state.** ``Catalog.snapshot()``
  returns the same object until the next mutation; every mutator moves
  the generation after its last change, so a snapshot built mid-write
  is never reused.
* **Serving bookkeeping stays flat.** ``settle`` walks no queues when
  nobody waits, and the serving rollup keeps latencies in a bounded
  histogram whose percentiles are within 5% of the exact ones.
"""

import gc
import threading
import tracemalloc
from collections import Counter

import numpy as np
import pytest

from repro.engine import Database, QueryServer, fusion
from repro.engine.catalog import Catalog, CatalogSnapshot, ViewDef
from repro.engine.plans import PhysicalPlan
from repro.engine.query import ConjunctiveQuery, JoinEdge
from repro.engine.server import AdmissionController
from repro.engine.storage import Table
from repro.engine.telemetry import ServingRollup, StatementTrace, percentile
from repro.engine.types import ColumnSchema, TableSchema


def _db():
    db = Database()
    db.execute("CREATE TABLE a (id INT, k INT, v FLOAT)")
    db.catalog.table("a").insert_rows(
        [(i, i % 7, i * 0.5) for i in range(200)])
    db.execute("CREATE TABLE b (id INT, w INT)")
    db.catalog.table("b").insert_rows([(i, i % 3) for i in range(50)])
    db.execute("CREATE INDEX a_id ON a (id)")
    db.execute("ANALYZE")
    return db


# ----------------------------------------------------------------------
# A warm statement recomputes nothing a cache determines
# ----------------------------------------------------------------------
WARM = {
    "point": "SELECT a.id, a.v FROM a WHERE a.id = 17",
    "join": "SELECT COUNT(*), SUM(b.w) FROM a, b WHERE a.id = b.id"
            " AND a.k < 3",
    "group": "SELECT a.k, COUNT(*) FROM a WHERE a.v < 40.0 GROUP BY a.k",
    "star": "SELECT * FROM b WHERE b.w = 1",
}

#: Statements that never repeat: ``%d`` is a fresh literal each time.
COLD = (
    "SELECT COUNT(*), SUM(b.w) FROM a, b WHERE a.id = b.id AND a.id < %d",
    "SELECT a.k, COUNT(*) FROM a WHERE a.v < %d.5 GROUP BY a.k",
    "SELECT a.id, a.v FROM a WHERE a.id = %d",
)

#: route -> a statement runner over ``db``
ROUTES = {
    "server": lambda db: QueryServer(db).session().execute,
    "embedded": lambda db: db.execute,
    "snapshot": lambda db: db.snapshot().execute,
    "explain_analyze": lambda db: (
        lambda sql: db.explain_analyze(sql).result),
}


def _count_calls(monkeypatch, calls):
    targets = [(fusion, "fuse_plan"), (fusion, "plan_reads"),
               (ConjunctiveQuery, "signature"),
               (CatalogSnapshot, "__init__")]
    for owner, name in targets:
        real = getattr(owner, name)

        def counted(*args, _real=real, _name=name, **kwargs):
            calls[_name] += 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)


@pytest.mark.parametrize("route", sorted(ROUTES))
@pytest.mark.parametrize("shape", sorted(WARM))
def test_second_run_recomputes_nothing_the_caches_hold(monkeypatch, route,
                                                       shape):
    db = _db()
    run = ROUTES[route](db)
    first = run(WARM[shape])
    calls = Counter()
    _count_calls(monkeypatch, calls)
    second = run(WARM[shape])
    assert not calls, calls
    assert second.trace.cache_hit
    assert second.rows == first.rows
    assert second.columns == first.columns
    assert second.work == first.work
    assert second.telemetry.node_stats == first.telemetry.node_stats


def test_the_memo_lives_in_the_cache_entry():
    db = _db()
    prepared = db.pipeline.prepare_sql(WARM["join"])
    fused, fused_ops, nodes, reads = prepared.memo
    assert nodes == list(prepared.plan.walk())
    assert (fused_ops, reads) == (
        fusion.fuse_plan(prepared.plan)[1],
        fusion.plan_reads(fusion.fuse_plan(prepared.plan)[0]))
    (entry,) = db.pipeline.plan_cache._entries.values()
    assert entry.value[0] is prepared.plan
    assert entry.value[1] is prepared.memo
    assert not hasattr(prepared.plan, "_prepared")
    db.pipeline.execute_prepared(prepared)
    again = db.pipeline.prepare_sql(WARM["join"])
    assert again.plan is prepared.plan
    assert again.memo is prepared.memo


def test_cold_statements_leave_no_plan_for_the_cycle_collector():
    """An evicted plan is freed by reference counting: 2,000 cold
    statements — eight times the plan cache — leave no plan node that
    only the cycle collector could reclaim."""
    db = _db()
    gc.collect()
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        for i in range(2000):
            db.execute(COLD[i % len(COLD)] % i)
        gc.collect()
        cyclic = [o for o in gc.garbage if isinstance(o, PhysicalPlan)]
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        gc.enable()
    assert len(db.pipeline.plan_cache) == 256
    assert cyclic == []


def test_index_scan_gathers_only_the_read_set(monkeypatch):
    db = _db()
    asked = []
    real = Table.column_arrays

    def spy(self, row_ids=None, columns=None):
        asked.append(None if columns is None else list(columns))
        return real(self, row_ids, columns)

    monkeypatch.setattr(Table, "column_arrays", spy)
    point = db.execute("SELECT a.v FROM a WHERE a.id = 17")
    assert point.rows == [(8.5,)]
    assert asked == [["v"]]
    assert "IndexScan" in str(db.explain("SELECT a.v FROM a WHERE a.id = 17"))
    asked.clear()
    star = db.execute("SELECT * FROM a WHERE a.id = 17")
    assert star.rows == [(17, 3, 8.5)]
    assert star.columns == [("a", "id"), ("a", "k"), ("a", "v")]
    assert asked == [["id", "k", "v"]]


# ----------------------------------------------------------------------
# One catalog snapshot per committed state
# ----------------------------------------------------------------------
def _view():
    return ViewDef(
        "ab", ConjunctiveQuery(["a", "b"],
                               join_edges=[JoinEdge("a", "id", "b", "id")]),
        Table(TableSchema("ab", [ColumnSchema("a__id", "INT")])))


#: mutator name -> (mutate(db), what the next snapshot must show)
MUTATORS = {
    "create_table": (lambda db: db.execute("CREATE TABLE c (x INT)"),
                     lambda snap, db: snap.has_table("c")),
    "drop_table": (lambda db: db.catalog.drop_table("b"),
                   lambda snap, db: not snap.has_table("b")),
    "insert_rows": (
        lambda db: db.catalog.table("b").insert_rows([(99, 2)]),
        lambda snap, db: snap.table("b").n_rows == 51),
    "replace_column": (
        lambda db: db.catalog.table("b").replace_column("w", [7] * 50),
        lambda snap, db: set(snap.table("b").column_array("w")) == {7}),
    "analyze": (lambda db: db.catalog.analyze("b"),
                lambda snap, db: snap.stats("b") is db.catalog.stats("b")),
    "create_index": (
        lambda db: db.execute("CREATE INDEX b_id ON b (id)"),
        lambda snap, db: snap.index_on("b", "id") is not None),
    "drop_index": (lambda db: db.catalog.drop_index("a_id"),
                   lambda snap, db: snap.index_on("a", "id") is None),
    "register_view": (lambda db: db.catalog.register_view(_view()),
                      lambda snap, db: [v.name for v in snap.views()]
                      == ["ab"]),
}


@pytest.mark.parametrize("name", sorted(MUTATORS))
def test_every_mutator_retires_the_current_snapshot(name):
    db = _db()
    mutate, shows = MUTATORS[name]
    before = db.catalog.snapshot()
    assert db.catalog.snapshot() is before
    mutate(db)
    after = db.catalog.snapshot()
    assert after is not before
    assert shows(after, db)
    assert not shows(before, db)
    assert after.version_vector() == db.catalog.version_vector()
    assert db.catalog.snapshot() is after


def test_drop_view_retires_the_current_snapshot():
    db = _db()
    db.catalog.register_view(_view())
    before = db.catalog.snapshot()
    db.catalog.drop_view("ab")
    after = db.catalog.snapshot()
    assert after is not before
    assert [v.name for v in before.views()] == ["ab"] and not after.views()


def test_restore_makes_the_restored_snapshot_current():
    db = _db()
    pinned = db.catalog.snapshot()
    db.catalog.table("a").insert_rows([(500, 1, 0.0)])
    assert db.catalog.snapshot() is not pinned
    db.catalog.restore(pinned)
    assert db.catalog.snapshot() is pinned
    db.execute("INSERT INTO b VALUES (77, 1)")
    moved = db.catalog.snapshot()
    assert moved is not pinned and moved.table("b").n_rows == 51


def test_a_snapshot_built_mid_write_is_not_reused():
    catalog = Catalog()
    table = Table(TableSchema("t", [ColumnSchema("id", "INT")]))
    inside, resume = threading.Event(), threading.Event()

    def pause(*__):
        inside.set()
        assert resume.wait(10)

    table.add_write_hook(pause)  # runs before the catalog's own hook
    catalog.register_table(table)
    writer = threading.Thread(target=table.insert_rows, args=([(1,)],))
    writer.start()
    try:
        assert inside.wait(10)
        # The rows are in, the catalog has not bumped yet: this snapshot
        # is built (nothing was cached since the registration) mid-write.
        during = catalog.snapshot()
    finally:
        resume.set()
        writer.join(10)
    after = catalog.snapshot()
    assert after is not during
    assert after.version("t") == during.version("t") + 1
    assert after.table("t").n_rows == 1


def test_catalog_versions_read_the_snapshot_by_reference():
    db = _db()
    server = QueryServer(db)
    result = server.session().execute(WARM["point"])
    pinned = db.catalog.snapshot()
    versions = result.telemetry.catalog_versions
    assert versions is pinned.version_map()
    assert list(versions.items()) == list(db.catalog.version_vector())
    embedded = db.execute(WARM["point"]).telemetry.catalog_versions
    assert embedded == versions and embedded is not versions
    db.execute("INSERT INTO a VALUES (900, 1, 1.0)")
    assert embedded == versions  # a copy of the live map, not a view


# ----------------------------------------------------------------------
# Serving bookkeeping
# ----------------------------------------------------------------------
def test_settle_walks_no_queue_when_nobody_waits():
    controller = AdmissionController(tenant_quota=100.0,
                                     quota_refill_rate=0.0)
    walks = []
    real = controller._grant_ready
    controller._grant_ready = lambda: walks.append(1) or real()
    for tenant in ("x", "y", "x"):
        controller.settle(controller.admit(tenant, 10.0), 4.0)
    assert walks == []
    assert controller.balance("x") == 100.0 - 4.0 - 4.0
    stats = controller.stats()["x"]
    assert stats["charged"] - stats["refunded"] == stats["settled_work"]


def _served(seconds, tenant="t", session="s"):
    trace = StatementTrace()
    trace.root.attrs.update(tenant=tenant, session=session)
    trace.root.child("admission", seconds=0.0).attrs.update(
        outcome="admitted", settled=1.0, queue_wait=0.0)
    trace.root.seconds = seconds
    return trace


def test_rollup_percentiles_are_within_five_percent():
    rng = np.random.default_rng(0)
    samples = np.concatenate([rng.lognormal(-8.0, 1.5, 4000),
                              rng.uniform(1e-6, 2.0, 1000), [0.0, 0.0]])
    rollup = ServingRollup()
    total = 0.0
    for s in samples.tolist():
        rollup.observe(_served(s))
        total += s
    summary = rollup.summary()["tenants"]["t"]
    assert summary["queries"] == len(samples)
    assert summary["total_seconds"] == total
    assert summary["total_work"] == float(len(samples))
    bucket = rollup._tenants["t"]
    for q in (0.0, 0.01, 0.5, 0.95, 0.99, 1.0):
        exact = percentile(samples.tolist(), q)
        assert bucket.quantile(q) == pytest.approx(exact, rel=0.05, abs=0.0)
    for name, q in (("p50", 0.5), ("p95", 0.95), ("p99", 0.99)):
        assert summary[name + "_seconds"] == bucket.quantile(q)


def test_rollup_memory_does_not_grow_with_statements():
    rollup = ServingRollup()
    trace = _served(0.0)
    rng = np.random.default_rng(1)
    latencies = rng.lognormal(-9.0, 1.0, 100_000).tolist()
    for s in latencies[:10_000]:
        trace.root.seconds = s
        rollup.observe(trace)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        for s in latencies[10_000:]:
            trace.root.seconds = s
            rollup.observe(trace)
        grown = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
    # 90,000 more statements: a list per bucket would hold ~3.6 MB.
    assert grown < 32 * 1024, grown
    assert len(rollup._tenants["t"].bins) < 250
