"""Per-table version vectors and MVCC-style catalog snapshots (PR 7).

Covers the versioning contract (which mutations bump which table's
data version and which also its plan version, an O(1) version read,
monotonicity across drop/create), the
snapshot pinning contract (``TableSnapshot``/``CatalogSnapshot``/
``DatabaseSnapshot`` keep serving the state they were taken at while
writers move the live objects), and the scoped cache contract (plan
cache and SQL-text cache key on exactly the versions they depend on,
and report what invalidated them).
"""

import random

import pytest

from repro.common import CatalogError, ExecutionError
from repro.engine import plans as P
from repro.engine import (
    CatalogSnapshot,
    Database,
    DatabaseSnapshot,
    QueryServer,
    Table,
    TableSnapshot,
)
from repro.engine.catalog import Catalog, ViewDef
from repro.engine.query import (
    Aggregate,
    ConjunctiveQuery,
    JoinEdge,
    Predicate,
)
from repro.engine.types import ColumnSchema, TableSchema


def _small_db(**kwargs):
    db = Database(**kwargs)
    db.execute("CREATE TABLE a (id INT, k INT)")
    db.catalog.table("a").insert_rows([(i, i % 5) for i in range(100)])
    db.execute("CREATE TABLE b (id INT, k INT)")
    db.catalog.table("b").insert_rows([(i, i % 3) for i in range(60)])
    db.execute("ANALYZE")
    return db


class TestPerTableVersions:
    def test_insert_bumps_only_its_table(self):
        db = _small_db()
        before_a = db.catalog.version("a")
        before_b = db.catalog.version("b")
        db.catalog.table("a").insert_rows([(500, 1)])
        assert db.catalog.version("a") == before_a + 1
        assert db.catalog.version("b") == before_b

    def test_sql_insert_and_analyze_bump(self):
        db = _small_db()
        v = db.catalog.version("a")
        db.execute("INSERT INTO a VALUES (900, 2)")
        assert db.catalog.version("a") == v + 1
        db.execute("ANALYZE a")
        assert db.catalog.version("a") == v + 2

    def test_index_and_view_bump_their_base_tables(self):
        db = _small_db()
        va, vb = db.catalog.version("a"), db.catalog.version("b")
        db.catalog.create_index("idx_a_k", "a", "k")
        assert db.catalog.version("a") == va + 1
        assert db.catalog.version("b") == vb
        db.catalog.drop_index("idx_a_k")
        assert db.catalog.version("a") == va + 2

    def test_version_vector_restriction(self):
        db = _small_db()
        vec = db.catalog.version_vector(["a"])
        assert [name for name, __ in vec] == ["a"]
        full = dict(db.catalog.version_vector())
        assert set(full) == {"a", "b"}
        assert dict(vec)["a"] == full["a"]
        # Unknown tables appear with version 0, keeping the token total.
        assert dict(db.catalog.version_vector(["nope"]))["nope"] == 0

    def test_epoch_is_sum_of_bumps(self):
        """Each write bumps exactly its own table's entry, by one."""
        db = _small_db()
        before = dict(db.version_vector())
        db.catalog.table("a").insert_rows([(1, 1)])
        db.catalog.table("b").insert_rows([(1, 1)])
        assert dict(db.version_vector()) == {
            "a": before["a"] + 1, "b": before["b"] + 1}

    def test_epoch_read_never_scans_tables(self):
        """Reading the version state — every plan-cache lookup's token —
        is a lookup of stored counters: it may not touch ``n_rows``."""
        catalog = Catalog()

        class ExplodingTable(Table):
            @property
            def n_rows(self):
                raise AssertionError("version read touched Table.n_rows")

        for i in range(5):
            catalog.register_table(ExplodingTable(
                TableSchema("t%d" % i, [ColumnSchema("id", "INT")])
            ))
        for __ in range(3):
            # One bump per registration.
            assert catalog.version_vector() == tuple(
                ("t%d" % i, 1) for i in range(5))
        assert catalog.version("t0") == 1

    def test_drop_create_keeps_versions_monotonic(self):
        """A re-created table continues from the dropped one's version
        floor, and no entry of the version vector ever moves backward."""
        db = _small_db()
        observed_versions = [db.catalog.version("a")]
        observed_vectors = [dict(db.version_vector())]
        for __ in range(3):
            db.catalog.drop_table("a")
            observed_vectors.append(dict(db.version_vector()))
            db.execute("CREATE TABLE a (id INT, k INT)")
            db.catalog.table("a").insert_rows([(1, 1)])
            observed_versions.append(db.catalog.version("a"))
            observed_vectors.append(dict(db.version_vector()))
        assert observed_versions == sorted(set(observed_versions))
        for before, after in zip(observed_vectors, observed_vectors[1:]):
            assert after != before
            assert all(after[name] >= v for name, v in before.items())

    def test_table_write_hook_fires_and_removes(self):
        t = Table(TableSchema("t", [ColumnSchema("id", "INT")]))
        seen = []
        hook = t.add_write_hook(
            lambda tbl, *counts: seen.append((tbl.version, counts)))
        t.insert_rows([(1,)])
        t.replace_column("id", [7])
        # Each call carries the row counts from before and after it.
        assert seen == [(1, (0, 1)), (2, (1, 1))]
        t.remove_write_hook(hook)
        t.insert_rows([(2,)])
        assert seen == [(1, (0, 1)), (2, (1, 1))]


class TestTableSnapshot:
    def _table(self, n=10, segment_rows=4):
        t = Table(
            TableSchema("t", [ColumnSchema("id", "INT")]),
            segment_rows=segment_rows,
        )
        t.insert_rows([(i,) for i in range(n)])
        return t

    def test_pinned_under_appends(self):
        t = self._table()
        snap = t.snapshot()
        t.insert_rows([(i,) for i in range(10, 30)])
        assert snap.n_rows == 10
        assert t.n_rows == 30
        assert snap.rows() == [(i,) for i in range(10)]
        assert snap.column_array("id").tolist() == list(range(10))

    def test_pinned_under_tail_seal(self):
        """Appends that seal the old tail into an encoded segment must not
        disturb a snapshot holding the frozen plain tail group."""
        t = self._table(n=6, segment_rows=4)  # one sealed group + 2 tail
        snap = t.snapshot()
        t.insert_rows([(i,) for i in range(6, 14)])  # seals past the tail
        assert snap.rows() == [(i,) for i in range(6)]
        assert snap.n_segments == 2

    def test_pinned_under_replace_column(self):
        t = self._table()
        snap = t.snapshot()
        t.replace_column("id", [i * 100 for i in range(10)])
        assert snap.column_array("id").tolist() == list(range(10))
        assert t.column_array("id").tolist()[1] == 100

    def test_read_surface_matches_table(self):
        t = self._table()
        snap = t.snapshot()
        assert isinstance(snap, TableSnapshot)
        assert snap.name == t.name
        assert len(snap) == len(t)
        assert snap.row(3) == t.row(3)
        assert snap.rows([2, 5]) == t.rows([2, 5])
        assert (snap.column_arrays(row_ids=[1, 2])["id"].tolist()
                == t.column_arrays(row_ids=[1, 2])["id"].tolist())
        values, counts = snap.column_value_counts("id")
        assert values.tolist() == t.column_value_counts("id")[0].tolist()
        assert counts.tolist() == t.column_value_counts("id")[1].tolist()
        assert snap.snapshot() is snap
        with pytest.raises(CatalogError):
            snap.column_array("nope")

    def test_version_stamped(self):
        t = self._table()
        assert t.snapshot().version == 1
        t.insert_rows([(99,)])
        assert t.snapshot().version == 2


class TestCatalogSnapshot:
    def test_pins_tables_stats_and_versions(self):
        db = _small_db()
        snap = db.catalog.snapshot()
        assert isinstance(snap, CatalogSnapshot)
        pinned_vec = snap.version_vector()
        pinned_ndv = snap.stats("a").column("k").n_distinct
        db.catalog.table("a").insert_rows([(i, i) for i in range(200)])
        db.execute("ANALYZE a")
        assert snap.table("a").n_rows == 100
        assert snap.version_vector() == pinned_vec
        assert snap.stats("a").column("k").n_distinct == pinned_ndv
        assert db.catalog.stats("a").column("k").n_distinct > pinned_ndv

    def test_pins_table_set(self):
        db = _small_db()
        snap = db.catalog.snapshot()
        db.catalog.drop_table("b")
        db.execute("CREATE TABLE c (id INT)")
        assert snap.has_table("b")
        assert not snap.has_table("c")
        assert snap.table_names() == ["a", "b"]
        with pytest.raises(CatalogError):
            snap.table("c")

    def test_pins_indexes(self):
        db = _small_db()
        db.catalog.create_index("idx_a_k", "a", "k")
        snap = db.catalog.snapshot()
        db.catalog.drop_index("idx_a_k")
        assert snap.index_on("a", "k") is not None
        assert db.catalog.index_on("a", "k") is None
        assert [i.name for i in snap.indexes("a")] == ["idx_a_k"]

    def test_lazy_stats_do_not_touch_live_catalog(self):
        db = Database()
        db.execute("CREATE TABLE t (id INT)")
        db.catalog.table("t").insert_rows([(i,) for i in range(10)])
        snap = db.catalog.snapshot()  # no ANALYZE has run
        vec = db.version_vector()
        assert snap.stats("t").n_rows == 10  # computed over pinned data
        assert db.version_vector() == vec  # the live catalog never saw it

    def test_snapshot_is_idempotent(self):
        db = _small_db()
        snap = db.catalog.snapshot()
        assert snap.snapshot() is snap


class TestOneCapturedState:
    """A pin hands out the table's *current* snapshot, and a restore
    point is that same snapshot."""

    def test_unwritten_tables_share_one_snapshot_across_pins(self):
        db = _small_db()
        first, second = db.catalog.snapshot(), db.catalog.snapshot()
        assert first is second
        for name in ("a", "b"):
            assert first.table(name) is second.table(name)
            assert first.table(name) is db.catalog.table(name).snapshot()
        db.catalog.table("b").insert_rows([(1, 1)])
        third = db.catalog.snapshot()
        assert third.table("a") is first.table("a")
        assert third.table("b") is not first.table("b")
        assert first.table("b").n_rows == 60

    def test_live_table_has_no_second_cache(self):
        t = _small_db().catalog.table("a")
        assert t.column_array("k") is t.snapshot().column_array("k")
        assert t.row_groups()[-1] is t.snapshot().row_groups()[-1]
        for gone in ("_decoded", "_tail_group"):
            assert not hasattr(t, gone)

    def test_table_restore_rejects_a_foreign_snapshot(self):
        db = _small_db()
        with pytest.raises(CatalogError, match="not taken from"):
            db.catalog.table("a").restore(db.catalog.table("b").snapshot())

    def test_lazy_snapshot_stats_never_reach_the_catalog(self):
        db = Database()
        db.execute("CREATE TABLE t (id INT)")
        db.catalog.table("t").insert_rows([(i,) for i in range(10)])
        snap = db.catalog.snapshot()  # no ANALYZE has run
        assert snap.stats("t") is snap.stats("t")  # computed once
        db.catalog.table("t").insert_rows([(99,)])
        db.catalog.restore(snap)
        # Restore put the stats map back as captured (empty): the live
        # catalog still has to ANALYZE lazily, which bumps the version.
        version = db.catalog.version("t")
        assert db.catalog.stats("t").n_rows == 10
        assert db.catalog.version("t") == version + 1


# ----------------------------------------------------------------------
# snapshot() … restore(snap): a seeded random state machine
# ----------------------------------------------------------------------
SEGMENT_ROWS = 8
POOL = ["t%d" % i for i in range(5)]


def _observe(catalog):
    """Everything ``restore`` promises to put back (sealed groups kept
    as objects: they must come back by identity, not by value)."""
    tables = {n: catalog.table(n) for n in catalog.table_names()}
    return {
        "vector": catalog.version_vector(),
        "schema_epoch": catalog.schema_epoch,
        "tables": tables,
        "rows": {n: t.rows() for n, t in tables.items()},
        "versions": {n: t.version for n, t in tables.items()},
        "sealed": {n: [g for g in t.row_groups()
                       if g.n_rows == SEGMENT_ROWS]
                   for n, t in tables.items()},
        "stats": sorted(catalog._stats),
        "indexes": sorted((i.name, i.table, i.column)
                          for i in catalog.indexes()),
        "views": sorted(v.name for v in catalog.views()),
    }


def _same_state(now, then):
    for key in ("vector", "schema_epoch", "rows", "versions", "stats",
                "indexes", "views"):
        assert now[key] == then[key], key
    assert now["tables"].keys() == then["tables"].keys()
    for name, table in then["tables"].items():
        assert now["tables"][name] is table, name
        assert len(now["sealed"][name]) == len(then["sealed"][name])
        for a, b in zip(now["sealed"][name], then["sealed"][name]):
            assert a is b, name


def _random_op(rng, catalog, serial):
    """Apply one random mutation; returns the table it created, if any."""
    names = catalog.table_names()
    op = rng.choice(["create", "insert_tail", "insert_seal", "replace",
                     "analyze", "index", "view", "drop"])
    if op == "create" or not names:
        free = [n for n in POOL if not catalog.has_table(n)]
        if not free:
            return None
        table = catalog.create_table(
            rng.choice(free), [("id", "INT"), ("k", "INT")])
        table.insert_rows(
            [(i, i % 3) for i in range(rng.randrange(0, 20))])
        return table
    name = rng.choice(names)
    table = catalog.table(name)
    if op == "insert_tail":
        room = SEGMENT_ROWS - 1 - table.n_rows % SEGMENT_ROWS
        table.insert_rows([(serial, 1)] * rng.randint(0, room))
    elif op == "insert_seal":
        table.insert_rows(
            [(serial + i, 2) for i in range(rng.randint(8, 20))])
    elif op == "replace":
        table.replace_column("k", [serial % 7] * table.n_rows)
    elif op == "analyze":
        catalog.analyze(name)
    elif op == "index":
        catalog.create_index("ix%d" % serial, name, rng.choice(["id", "k"]),
                             kind=rng.choice(["btree", "hash"]))
    elif op == "view":
        other = rng.choice(names)
        catalog.register_view(ViewDef(
            "v%d" % serial,
            ConjunctiveQuery(tables=sorted({name, other}),
                             join_edges=[JoinEdge(name, "id", other, "id")]),
            Table(TableSchema("v%d" % serial,
                              [ColumnSchema("%s__id" % name, "INT")])),
        ))
    elif len(names) > 1:
        catalog.drop_table(name)
    return None


@pytest.mark.parametrize("seed", range(25))
def test_restore_puts_back_exactly_what_snapshot_captured(seed):
    rng = random.Random(seed)
    catalog = Catalog(segment_rows=SEGMENT_ROWS)
    for serial in range(rng.randint(3, 12)):
        _random_op(rng, catalog, serial)
    snap = catalog.snapshot()
    captured = _observe(catalog)
    pinned_rows = {n: snap.table(n).rows() for n in snap.table_names()}
    assert pinned_rows == captured["rows"]

    created = []
    for serial in range(100, 100 + rng.randint(1, 25)):
        made = _random_op(rng, catalog, serial)
        if made is not None:
            created.append(made)
    hook_calls = []
    for table in captured["tables"].values():
        table.add_write_hook(lambda *call: hook_calls.append(call))
    catalog.restore(snap)
    assert hook_calls == []  # a rewind is not a write
    _same_state(_observe(catalog), captured)

    # Tables created inside the rewound window are detached: writing
    # through a stale reference moves no version and no index.
    for table in created:
        table.insert_rows([(1, 1)])
    assert catalog.version_vector() == captured["vector"]

    # The snapshot outlives the restore: further writes to the restored
    # tables leave its rows alone, and it can be restored to again.
    for name in captured["tables"]:
        catalog.table(name).insert_rows([(7, 7)] * rng.randint(1, 12))
    assert {n: snap.table(n).rows() for n in pinned_rows} == pinned_rows
    catalog.restore(snap)
    _same_state(_observe(catalog), captured)


# ----------------------------------------------------------------------
# Indexes and materialized views follow the rows they were built from
# ----------------------------------------------------------------------
POINT = "SELECT a.x FROM a WHERE a.id = 7777"
JOIN = "SELECT COUNT(*) FROM a, b WHERE a.id = b.id"


def _indexed_db():
    db = Database()
    db.execute("CREATE TABLE a (id INT, x INT)")
    db.catalog.table("a").insert_rows([(i, i % 7) for i in range(2000)])
    db.execute("CREATE TABLE b (id INT, y INT)")
    db.catalog.table("b").insert_rows([(i, i % 3) for i in range(50)])
    db.execute("ANALYZE")
    db.execute("CREATE INDEX a_id ON a (id)")
    return db


def _materialize_join(db):
    from repro.ai4db.config.view_advisor import (
        ViewCandidate,
        materialize_view,
    )

    view = materialize_view(db, ViewCandidate(ConjunctiveQuery(
        tables=["a", "b"], join_edges=[JoinEdge("a", "id", "b", "id")]), 2))
    assert "ViewScan" in str(db.explain(JOIN))
    return view


class TestDerivedStructuresTrackWrites:
    def test_index_sees_inserted_row_on_every_surface(self):
        db = _indexed_db()
        server = QueryServer(db)
        before = db.snapshot()
        old_index = db.catalog.index_on("a", "id")
        with server.session(isolation="session") as pinned, \
                server.session() as session:
            session.execute("INSERT INTO a VALUES (7777, 1)")
            assert "IndexScan" in str(db.explain(POINT))
            assert db.query(POINT) == [(1,)]
            assert db.snapshot().query(POINT) == [(1,)]
            assert session.execute(POINT).rows == [(1,)]
            # Pinned before the INSERT: still the old rows, through the
            # same index definition — it is metadata, the sort it probes
            # lives on the table snapshot each plan runs over.
            assert before.query(POINT) == []
            assert pinned.execute(POINT).rows == []
        assert db.catalog.index_on("a", "id") is old_index
        assert before.catalog.index_on("a", "id") is old_index

    def test_float_index_over_nulls_matches_the_scan(self):
        # NaN keys used to corrupt the structure's order (v >= 95: 19
        # rows through IndexScan, 18 through SeqScan).
        db = Database()
        db.execute("CREATE TABLE t (id INT, v FLOAT)")
        db.catalog.table("t").insert_rows(
            [(i, None if i % 4 == 0 else float(i * 37 % 101))
             for i in range(400)])
        db.execute("CREATE INDEX t_v ON t (v)")
        pinned = db.snapshot()
        db.catalog.table("t").insert_rows(
            [(400 + i, None if i % 3 == 0 else 95.0) for i in range(30)])
        for catalog, n_rows in ((db.catalog, 430), (pinned.catalog, 400)):
            assert catalog.table("t").n_rows == n_rows
            for op in ("=", "<", "<=", ">", ">="):
                pred = Predicate("t", "v", op, 95)
                probe = db.executor.execute(
                    P.IndexScan("t", "t_v", pred), catalog=catalog)
                scan = db.executor.execute(
                    P.SeqScan("t", [pred]), catalog=catalog)
                assert probe.rows == scan.rows, (op, n_rows)
                assert probe.rows  # every operator selects something

    def test_null_insert_into_indexed_text_column_is_atomic(self):
        # Used to raise a raw TypeError out of the index rebuild *after*
        # the rows landed, leaving a stale index behind.
        db = Database()
        db.execute("CREATE TABLE t (id INT, ntag TEXT)")
        table = db.catalog.table("t")
        table.insert_rows([(i, "n%d" % (i % 4)) for i in range(40)])
        db.execute("CREATE INDEX t_ntag ON t (ntag)")
        db.execute("ANALYZE")
        state = (table.n_rows, table.version, db.catalog.version("t"))
        assert table.insert_rows([(40, None), (41, "n1"), (42, None)]) == 3
        assert (table.n_rows, table.version, db.catalog.version("t")) == (
            state[0] + 3, state[1] + 1, state[2] + 1)
        point = "SELECT t.id FROM t WHERE t.ntag = 'n1'"
        assert "IndexScan" in str(db.explain(point))
        assert db.query(point) == [(i,) for i in range(1, 40, 4)] + [(41,)]
        # An index holds valid keys only: through it the NULL rows are
        # skipped (what SQLite answers) where the scan route still raises.
        below = db.executor.execute(P.IndexScan(
            "t", "t_ntag", Predicate("t", "ntag", "<", "n1")))
        assert [r[0] for r in below.rows] == list(range(0, 40, 4))

    def test_replace_column_rebuilds_the_index(self):
        db = _indexed_db()
        db.catalog.table("a").replace_column(
            "id", [i + 10_000 for i in range(2000)])
        db.execute("ANALYZE a")
        assert db.query("SELECT a.x FROM a WHERE a.id = 10003") == [(3,)]
        assert db.query("SELECT a.x FROM a WHERE a.id = 3") == []

    def test_view_is_dropped_by_a_write_to_a_base_table(self):
        db = _indexed_db()
        server = QueryServer(db)
        _materialize_join(db)
        before = db.snapshot()
        with server.session(isolation="session") as pinned, \
                server.session() as session:
            session.execute("INSERT INTO a VALUES (3, 1)")  # a 2nd id=3
            assert db.catalog.views() == []
            assert db.query(JOIN) == [(51,)]
            assert db.snapshot().query(JOIN) == [(51,)]
            assert session.execute(JOIN).rows == [(51,)]
            assert before.query(JOIN) == [(50,)]
            assert pinned.execute(JOIN).rows == [(50,)]
            assert len(before.catalog.views()) == 1

    def test_view_is_dropped_with_its_base_table(self):
        db = _indexed_db()
        _materialize_join(db)
        db.catalog.drop_table("a")
        assert db.catalog.views() == []
        db.execute("CREATE TABLE a (id INT, x INT)")
        db.execute("INSERT INTO a VALUES (1, 1)")
        assert db.query(JOIN) == [(1,)]

    def test_rollback_brings_index_and_view_back(self):
        db = _indexed_db()
        view = _materialize_join(db)
        index = db.catalog.index_on("a", "id")
        agent = db.agent_session()
        agent.begin()
        agent.execute("INSERT INTO a VALUES (7777, 1)")
        assert agent.execute(POINT).rows == [(1,)]
        assert db.catalog.views() == []
        agent.rollback()
        assert db.catalog.views() == [view]
        assert db.catalog.index_on("a", "id") is index
        assert db.query(POINT) == []
        assert db.query(JOIN) == [(50,)]
        assert "ViewScan" in str(db.explain(JOIN))


class TestDatabaseSnapshot:
    def test_reads_pinned_while_live_moves(self):
        db = _small_db()
        snap = db.snapshot()
        assert isinstance(snap, DatabaseSnapshot)
        before = snap.query("SELECT COUNT(*) FROM a")
        db.catalog.table("a").insert_rows([(i, 0) for i in range(50)])
        assert snap.query("SELECT COUNT(*) FROM a") == before == [(100,)]
        assert db.query("SELECT COUNT(*) FROM a") == [(150,)]

    def test_aggregates_and_joins_pinned(self):
        db = _small_db()
        snap = db.snapshot()
        q = "SELECT COUNT(*) FROM a, b WHERE a.k = b.k"
        before = snap.query(q)
        db.catalog.table("b").insert_rows([(i, i % 3) for i in range(40)])
        assert snap.query(q) == before
        assert db.query(q) != before

    def test_rejects_writes(self):
        db = _small_db()
        snap = db.snapshot()
        for sql in (
            "INSERT INTO a VALUES (1, 1)",
            "CREATE TABLE z (id INT)",
            "ANALYZE a",
        ):
            with pytest.raises(ExecutionError, match="read-only"):
                snap.execute(sql)

    def test_shares_live_plan_cache(self):
        db = _small_db()
        db.query("SELECT COUNT(*) FROM a")  # warm the plan
        snap = db.snapshot()
        res = snap.execute("SELECT COUNT(*) FROM a")
        assert res.trace.cache_outcome == "hit"

    def test_run_query_object_pinned(self):
        db = _small_db()
        snap = db.snapshot()
        q = ConjunctiveQuery(tables=["a"], aggregates=[Aggregate("count")])
        assert snap.run_query_object(q).rows == [(100,)]
        db.catalog.table("a").insert_rows([(1, 1)])
        assert snap.run_query_object(q).rows == [(100,)]

    def test_epoch_and_vector_pinned(self):
        db = _small_db()
        snap = db.snapshot()
        vec = snap.version_vector()
        db.catalog.table("a").insert_rows([(1, 1)])
        assert snap.version_vector() == vec
        assert dict(db.version_vector()) == dict(vec, a=dict(vec)["a"] + 1)
        assert not hasattr(snap, "epoch")
        assert "DatabaseSnapshot" in repr(snap)


class TestScopedPlanCache:
    def test_writer_on_b_keeps_plans_for_a(self):
        db = _small_db()
        db.query("SELECT COUNT(*) FROM a")
        db.pipeline.plan_cache.reset_counters()
        for __ in range(5):
            db.catalog.table("b").insert_rows([(1, 1)])
            db.query("SELECT COUNT(*) FROM a")
        stats = db.pipeline.plan_cache.stats()
        assert stats["hits"] == 5
        assert stats["invalidations"] == 0

    def test_writer_on_a_invalidates_plans_for_a(self):
        """A write that takes ``a`` into a new power-of-two band of row
        count (100 → 128 rows) moves its plan version."""
        db = _small_db()
        db.query("SELECT COUNT(*) FROM a")
        db.catalog.table("a").insert_rows([(1, 1)] * 28)
        res = db.execute("SELECT COUNT(*) FROM a")
        tele = res.trace
        assert tele.cache_outcome == "invalidated"
        assert tele.invalidation_cause == "table:a"
        assert dict(tele.plan_versions)["a"] == _plan_version(db, "a")
        assert res.rows == [(128,)]

    def test_join_invalidated_by_either_table(self):
        db = _small_db()
        sql = "SELECT COUNT(*) FROM a, b WHERE a.k = b.k"
        db.query(sql)
        db.catalog.table("b").insert_rows([(1, 1)] * 4)  # 60 → 64 rows
        res = db.execute(sql)
        assert res.trace.cache_outcome == "invalidated"
        assert res.trace.invalidation_cause == "table:b"

    def test_explain_analyze_reports_versions_and_outcome(self):
        db = _small_db()
        sql = "SELECT COUNT(*) FROM a WHERE k = 1"
        db.query(sql)
        db.catalog.table("a").insert_rows([(1, 1)] * 28)  # 100 → 128 rows
        out = db.explain_analyze(sql)
        assert out.trace.cache_outcome == "invalidated"
        assert out.trace.invalidation_cause == "table:a"
        assert dict(out.trace.plan_versions)["a"] == _plan_version(db, "a")
        assert "Versions: a=%d" % _plan_version(db, "a") in out.text
        assert "Plan cache: invalidated (table:a)" in out.text
        warm = db.explain_analyze(sql)
        assert warm.trace.cache_outcome == "hit"
        assert "Plan cache: hit" in warm.text


def _plan_version(db, name):
    return dict(db.catalog.plan_version_vector([name]))[name]


class TestPlanVersions:
    """A table's plan version moves only where a plan could change:
    DDL, ANALYZE, views, and writes that drop a view or take the row
    count into a new power-of-two band. Any other write keeps the
    cached plan, which still reads the rows the write left."""

    def test_a_write_inside_the_band_hits_and_reads_fresh_rows(self):
        db = _small_db()
        sql = "SELECT COUNT(*), SUM(a.id) FROM a WHERE k = 1"
        assert db.query(sql) == [(20, 970)]
        versions = db.version_vector(["a"])
        plan_versions = db.catalog.plan_version_vector(["a"])
        db.execute("INSERT INTO a VALUES (500, 1)")  # 100 → 101 rows
        db.catalog.table("a").insert_rows([(600, 1), (700, 2)])
        res = db.execute(sql)
        assert res.trace.cache_outcome == "hit"
        assert res.rows == [(22, 2070)]
        # The data version moved twice, the plan version not at all.
        assert dict(db.version_vector(["a"]))["a"] == dict(versions)["a"] + 2
        assert db.catalog.plan_version_vector(["a"]) == plan_versions
        assert res.trace.plan_versions == plan_versions

    def test_a_band_crossing_replans_as_a_fresh_planner_would(self):
        """Eight rows, an index on ``id``: ``id < 6`` is cheaper to scan
        than to probe. Seven more rows stay in the band and keep the
        cached SeqScan; the sixteenth row crosses it, and the re-plan is
        the fresh planner's IndexScan."""
        db = Database()
        db.execute("CREATE TABLE t (id INT, x INT)")
        db.catalog.table("t").insert_rows([(i, i) for i in range(8)])
        db.execute("ANALYZE t")
        db.execute("CREATE INDEX t_id ON t (id)")
        sql = "SELECT t.x FROM t WHERE t.id < 6"

        def fresh():
            return db.planner.plan(db.pipeline.lower_sql(sql)).pretty()

        assert "SeqScan" in str(db.explain(sql)) and "SeqScan" in fresh()
        db.catalog.table("t").insert_rows(
            [(100 + i, i) for i in range(7)])  # 15 rows: same band
        res = db.execute(sql)
        assert res.trace.cache_outcome == "hit"
        assert sorted(res.rows) == [(i,) for i in range(6)]
        db.execute("INSERT INTO t VALUES (3, 33)")  # 16 rows: next band
        res = db.execute(sql)
        assert res.trace.cache_outcome == "invalidated"
        assert res.trace.invalidation_cause == "table:t"
        assert sorted(res.rows) == sorted([(i,) for i in range(6)] + [(33,)])
        replanned = db.pipeline.prepare_sql(sql)
        assert replanned.trace.cache_hit
        assert "IndexScan" in fresh()
        assert replanned.plan.pretty() == fresh()

    def test_a_write_that_drops_a_view_replans_over_the_base_table(self):
        db = _indexed_db()
        _materialize_join(db)
        assert db.query(JOIN) == [(50,)]
        db.execute("INSERT INTO b VALUES (7, 0)")  # 50 → 51: same band
        assert db.catalog.views() == []
        res = db.execute(JOIN)
        assert res.trace.cache_outcome == "invalidated"
        assert res.trace.invalidation_cause == "table:b"
        assert res.rows == [(51,)]
        plan = db.pipeline.prepare_sql(JOIN).plan
        assert not any(isinstance(n, P.ViewScan) for n in plan.walk())
        assert {n.table for n in plan.walk()
                if isinstance(n, (P.SeqScan, P.IndexScan))} == {"a", "b"}

    def test_replace_column_keeps_the_plan_and_reads_new_values(self):
        db = _small_db()
        sql = "SELECT SUM(a.k) FROM a WHERE a.id < 10"
        assert db.query(sql) == [(20,)]
        db.catalog.table("a").replace_column("k", [7] * 100)
        res = db.execute(sql)
        assert res.trace.cache_outcome == "hit"
        assert res.rows == [(70,)]

    def test_generic_state_survives_writes_inside_the_band(self):
        db = _small_db()
        shape = "SELECT COUNT(*) FROM a, b WHERE a.k = b.k AND a.id < %d"

        def route(v):
            return db.execute(shape % v).trace.plan_route

        assert [route(v) for v in range(50, 56)] == (
            ["custom"] * 5 + ["generic"])
        for v in range(56, 62):
            db.catalog.table("a").insert_rows([(1000 + v, 4)])  # ≤ 106 rows
            res = db.execute(shape % v)
            assert res.trace.plan_route == "generic"
            assert res.rows == db.executor.execute(
                db.planner.plan(db.pipeline.lower_sql(shape % v))).rows
        assert db.pipeline.shape_plans.invalidations == 0
        assert db.pipeline.stats()["plan_routes"] == {
            "custom": 5, "generic": 7}

    def test_restore_then_invalidate_rebuilds_the_plan(self):
        """``restore`` rewinds both version vectors; a plan cached inside
        the rewound window matches again, so the caller drops it with
        ``invalidate()`` (as the session API does) and the next read
        plans afresh over the restored rows."""
        db = _small_db()
        sql = "SELECT COUNT(*) FROM a WHERE a.k = 1"
        snap = db.catalog.snapshot()
        db.catalog.table("a").insert_rows([(1000, 1)])
        assert db.query(sql) == [(21,)]
        db.catalog.restore(snap)
        assert db.catalog.plan_version_vector() == snap.plan_version_vector()
        assert db.catalog.version_vector() == snap.version_vector()
        db.pipeline.invalidate()
        res = db.execute(sql)
        assert res.trace.cache_outcome == "miss"
        assert res.rows == [(20,)]


class TestSqlTextCache:
    def test_inserts_keep_sql_text_warm(self):
        """Lowering depends only on name resolution, so the SQL-text cache
        keys on schema_epoch and survives inserts and ANALYZE."""
        db = _small_db()
        sql = "SELECT COUNT(*) FROM a"
        db.query(sql)
        db.pipeline.query_cache.reset_counters()
        db.catalog.table("a").insert_rows([(1, 1)])
        db.execute("ANALYZE a")
        db.query(sql)
        stats = db.pipeline.query_cache.stats()
        assert stats["hits"] == 1
        assert stats["invalidations"] == 0

    def test_ddl_invalidates_sql_text(self):
        db = _small_db()
        sql = "SELECT COUNT(*) FROM a"
        db.query(sql)
        epoch = db.catalog.schema_epoch
        db.execute("CREATE TABLE z (id INT)")
        assert db.catalog.schema_epoch == epoch + 1
        db.pipeline.query_cache.reset_counters()
        db.query(sql)
        assert db.pipeline.query_cache.stats()["invalidations"] == 1


class TestScopedEstimatorMemos:
    def test_true_cardinality_memo_scoped_per_table(self):
        from repro.ai4db.optimization.estimators import (
            TrueCardinalityEstimator,
            count_join_rows,
        )

        db = _small_db()
        est = TrueCardinalityEstimator(
            lambda q, ts: count_join_rows(db.catalog, q, ts),
            catalog=db.catalog,
        )
        qa = ConjunctiveQuery(
            tables=["a"], predicates=[Predicate("a", "k", "=", 1)]
        )
        qb = ConjunctiveQuery(
            tables=["b"], predicates=[Predicate("b", "k", "=", 1)]
        )
        est.estimate_subset(qa, ["a"])
        est.estimate_subset(qb, ["b"])
        before_b = est.estimate_subset(qb, ["b"])
        # Writing a must invalidate only a's memo entries.
        db.catalog.table("a").insert_rows([(i, 1) for i in range(10)])
        assert est.estimate_subset(qa, ["a"]) == 30
        assert est.estimate_subset(qb, ["b"]) == before_b
