"""One catalog view per read.

Every SELECT pins one :class:`~repro.engine.catalog.CatalogSnapshot`
before its first catalog read, and its front end, planner and executor
read that view and nothing else; writes and DDL read the live catalog.
This file checks what follows from that:

* a DDL committed between a served read's plan and its run does not
  reach the read — the read runs on the view it planned on (made
  deterministic by committing the DDL inside the admission call);
* a lazy first statistics fill moves no table version, so every vector
  a served read pins is a committed one, and a plan stored under its
  pin's token keeps hitting;
* after the pin, a SELECT makes no lookup on the live catalog, on any
  surface (a recording wrapper over the live catalog's read surface),
  and an extension's feature query is costed on the same pin;
* a pin held across a rollback files no plan a later live state could
  hit: the catalog never hands out a rewound cache token again.
"""

import functools

import pytest

from test_layering import CATALOG_READS

from repro.engine import Database, Policy, QueryServer
from repro.engine.catalog import Catalog
from repro.engine.optimizer.planner import Planner
from repro.engine.query import ConjunctiveQuery, Predicate
from repro.engine.telemetry import StatementTrace

POINT = "SELECT v FROM t WHERE id = 7"


def _db(analyze=True):
    db = Database()
    db.execute("CREATE TABLE t (id INT, v INT)")
    db.catalog.table("t").insert_rows([(i, i % 13) for i in range(2000)])
    db.execute("CREATE INDEX t_id ON t (id)")
    if analyze:
        db.execute("ANALYZE t")
    return db


def _vector(result):
    return tuple(sorted(result.telemetry.catalog_versions.items()))


def _commit_before_admission(server, apply):
    """Make the next admission commit ``apply`` through the server's
    commit path first — after the read planned, before it runs."""
    admission = server.admission
    real = admission.admit
    writer = server.session(tenant="ddl")

    def admit(tenant, cost):
        admission.admit = real  # once: the commit below admits too
        server._run_write(writer, apply, StatementTrace())
        return real(tenant, cost)

    admission.admit = admit


def _recreate(catalog):
    catalog.drop_table("t")
    catalog.create_table("t", [("z", "INT"), ("v", "TEXT"), ("id", "INT")])
    catalog.table("t").insert_rows([(-i, "x%d" % i, i) for i in range(50)])


DDL = {
    "drop_index": lambda catalog: catalog.drop_index("t_id"),
    "drop and re-create with other columns": _recreate,
    "analyze": lambda catalog: catalog.analyze("t"),
}


class TestDDLBetweenPlanAndRun:
    @pytest.mark.parametrize("case", sorted(DDL))
    def test_the_read_runs_on_the_view_it_planned_on(self, case):
        db = _db()
        server = QueryServer(db)
        session = server.session()
        before = session.execute(POINT)
        assert "IndexScan" in str(db.explain(POINT))
        _commit_before_admission(server, functools.partial(DDL[case],
                                                           db.catalog))
        commits = len(server.commit_log)
        result = session.execute(POINT)
        assert len(server.commit_log) == commits + 1  # the DDL committed
        assert result.rows == before.rows == [(7,)]
        assert _vector(result) == _vector(before)
        assert _vector(result) in server.committed_vectors()
        # The next statement pins the DDL's state.
        after = session.execute("SELECT COUNT(*) FROM t")
        committed = server.commit_log[-1][1]
        assert _vector(after) == tuple(sorted(committed.items()))


def test_a_lazy_statistics_fill_moves_no_version():
    db = _db(analyze=False)
    server = QueryServer(db)
    session = server.session()
    versions = db.catalog.version_vector()
    first = session.execute(POINT)
    second = session.execute(POINT)
    assert db.catalog.version_vector() == versions
    committed = server.committed_vectors()
    assert _vector(first) in committed and _vector(second) in committed
    assert second.trace.cache_outcome == "hit"


def test_explicit_analyze_still_moves_both_versions():
    db = _db(analyze=False)
    db.catalog.stats("t")
    version = db.catalog.version("t")
    plan_version = dict(db.catalog.plan_version_vector())["t"]
    db.execute("ANALYZE t")
    assert db.catalog.version("t") == version + 1
    assert dict(db.catalog.plan_version_vector())["t"] == plan_version + 1


def test_a_pin_taken_after_a_what_if_index_sees_it():
    """The index advisor installs hypothetical indexes on the live
    catalog; a snapshot pinned afterwards plans with them (E2's
    costing), while the served route still refuses to run one."""
    db = _db()
    db.catalog.drop_index("t_id")
    db.catalog.create_index("t_what_if", "t", "id", hypothetical=True)
    snap = db.catalog.snapshot()
    assert snap.index_on("t", "id").hypothetical
    planner = Planner(db.catalog, estimator=db.planner.estimator,
                      cost_model=db.cost_model, include_hypothetical=True)
    plan = planner.plan(db.pipeline.lower_sql(POINT), catalog=snap)
    assert "IndexScan(t via t_what_if" in plan.pretty()
    assert "IndexScan" not in str(db.explain(POINT))
    assert db.query(POINT) == [(7,)]


class TestStalePins:
    """A statement on an earlier pin plans under that pin's token; the
    token must never name another state."""

    @pytest.mark.parametrize("live_read_between", [False, True])
    def test_a_snapshot_held_across_a_rollback_files_no_reusable_plan(
            self, live_read_between):
        """A snapshot pinned inside a rolled-back transaction plans on
        its pin after the rollback. Its token must never name a later
        live state: a bump after the restore continues past every plan
        version published before it, so an ANALYZE that follows cannot
        bring the live token back to the snapshot's and serve a plan
        over an index that no longer exists."""
        db = _db()
        db.catalog.drop_index("t_id")
        db.execute("ANALYZE t")
        agent = db.agent_session()
        agent.begin()
        agent.execute("CREATE INDEX t_id2 ON t (id)")
        window = db.catalog.plan_version_vector(["t"])
        held = db.snapshot()
        agent.rollback()
        assert "via t_id2" in str(held.session().explain(POINT))
        assert held.query(POINT) == [(7,)]
        if live_read_between:
            assert db.query(POINT) == [(7,)]
        db.execute("ANALYZE t")
        assert db.catalog.plan_version_vector(["t"]) > window
        result = db.execute(POINT)
        assert result.rows == [(7,)]
        assert result.trace.cache_outcome != "hit"
        assert "IndexScan" not in str(db.explain(POINT))


# ----------------------------------------------------------------------
# One view, enforced
# ----------------------------------------------------------------------
#: Statements covering the read routes: cold and warm text, a shape that
#: goes generic after its custom samples, a SELECT * (expanded for the
#: policy's column check), a join and an aggregate.
STATEMENTS = (
    [POINT, POINT, "SELECT * FROM t WHERE id = 3",
     "SELECT t.v, u.w FROM t, u WHERE t.id = u.id AND u.w > 2",
     "SELECT COUNT(*) FROM t"]
    + ["SELECT v FROM t WHERE id = %d" % i for i in range(20, 30)]
)


def _query():
    return ConjunctiveQuery(tables=["t"],
                            predicates=[Predicate("t", "id", "=", 5)],
                            projections=[("t", "v")])


def _surfaces(db, server):
    gated = db.session(policy=Policy(deny_columns=("u.secret",)))
    snapshot = db.snapshot()
    return {
        "embedded": db.execute,
        "embedded, policy-gated": lambda sql: gated.execute(sql).raw,
        "db.snapshot()": snapshot.execute,
        "server, statement isolation": server.session().execute,
        "server, session isolation": server.session(
            isolation="session").execute,
        "explain_analyze": lambda sql: db.explain_analyze(sql).result,
        "explain": db.explain,
        "run_query_object": lambda sql: db.run_query_object(_query()),
        "snapshot run_query_object": (
            lambda sql: snapshot.run_query_object(_query())),
        "server run_query_object": (
            lambda sql: server.session().run_query_object(_query())),
    }


@pytest.fixture
def live_reads(monkeypatch):
    """Every call of a catalog read on a live :class:`Catalog` (its
    snapshots share the functions, not the class attributes, so they
    are not recorded)."""
    calls = []

    def recorder(name, read):
        @functools.wraps(read)
        def record(self, *args, **kwargs):
            calls.append(name)
            return read(self, *args, **kwargs)
        return record

    for name in CATALOG_READS:
        read = getattr(Catalog, name)
        if isinstance(read, property):
            wrapped = property(recorder(name, read.fget))
        else:
            wrapped = recorder(name, read)
        monkeypatch.setattr(Catalog, name, wrapped)
    return calls


@pytest.mark.parametrize("surface", [
    "embedded", "embedded, policy-gated", "db.snapshot()",
    "server, statement isolation", "server, session isolation",
    "explain_analyze", "explain", "run_query_object",
    "snapshot run_query_object", "server run_query_object"])
def test_a_select_reads_only_its_pin(surface, live_reads):
    db = _db()
    db.execute("CREATE TABLE u (id INT, w INT, secret INT)")
    db.catalog.table("u").insert_rows([(i, i % 5, i) for i in range(40)])
    db.execute("ANALYZE u")
    server = QueryServer(db)
    run = _surfaces(db, server)[surface]
    live_reads.clear()
    for sql in STATEMENTS:
        run(sql)
    assert live_reads == [], (surface, sorted(set(live_reads)))
    routes = db.pipeline.stats()["plan_routes"]
    if surface not in ("run_query_object", "snapshot run_query_object",
                       "server run_query_object"):
        assert routes["generic"] > 0, routes  # the generic route ran too


class _FeatureQueryExtension:
    """Claims ``PEEK``: a read-kind statement whose description carries a
    plannable feature query, and whose ``run`` reads nothing."""

    def describe(self, db, sql):
        if not sql.startswith("PEEK"):
            return None
        return {"kind": "PREDICT", "tables": ["t"], "query": _query()}

    def run(self, db, sql):
        return "peeked"


@pytest.mark.parametrize("surface, pins", [("embedded", 1),
                                           ("db.snapshot()", 0)])
def test_an_extension_feature_query_is_costed_on_the_pin(
        surface, pins, monkeypatch):
    """An extension's feature query is costed on the statement's pin:
    the only live ``Catalog.snapshot()`` call is the embedded backend's
    own pin, and a snapshot session makes none."""
    db = _db()
    db.pipeline.extensions.append(_FeatureQueryExtension())
    session = (db.session() if surface == "embedded"
               else db.snapshot().session())
    calls = []
    snapshot = Catalog.snapshot

    def counted(self):
        calls.append(1)
        return snapshot(self)

    monkeypatch.setattr(Catalog, "snapshot", counted)
    report = session.dry_run("PEEK")
    assert report[0].error is None and report[0].est_cost is not None
    assert len(calls) == pins
