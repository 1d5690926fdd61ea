"""Session-layer tests: unified surface, policy, audit, dry-run, rollback.

The safety contract under test, per acceptance criteria:

* the three entry points (``Database.execute``, ``db.snapshot()``,
  ``QueryServer.session``) are facades over :class:`SessionContext`,
  whose one route classifies, gates, then reads or writes — the same
  way with and without a policy or an audit log;
* policies catch denied columns wherever they appear (projection,
  predicate, aggregate, AISQL feature list) and row/cost ceilings hold;
* the audit log records every statement — allowed, denied, and failed —
  with policy decision, version vector, and estimated vs. actual cost,
  and is queryable as a table;
* ``dry_run`` plans whole scripts (AISQL included) without executing;
* ``AgentSession.rollback()`` restores bit-identical state — rows,
  version vectors, COUNT(*) — embedded and served.
"""

import pytest

import repro.engine.pipeline as pipeline_module
from repro.common import CatalogError, ExecutionError, ParseError
from repro.engine import (
    AgentSession,
    AuditLog,
    Database,
    EngineError,
    Policy,
    PolicyError,
    QueryServer,
    SessionContext,
    SessionError,
    SessionResult,
    split_script,
)
from repro.engine.session.context import (
    WRITE_STATEMENT_COST,
    classify,
    sniff_kind,
)
from repro.engine.sql.ast_nodes import InsertStmt

SEED_ROWS = [
    (1, "alice", 30), (2, "bob", 25), (3, "carol", 41),
    (4, "dave", 25), (5, "erin", 35),
]


def make_db():
    db = Database()
    db.execute("CREATE TABLE users (id INT, name TEXT, age INT)")
    db.execute(
        "INSERT INTO users VALUES "
        + ", ".join("(%d, '%s', %d)" % r for r in SEED_ROWS)
    )
    db.execute("ANALYZE users")
    return db


class MagicExtension:
    """A pipeline extension claiming text that starts with ``MAGIC``;
    ``ran`` lists the statements its ``run`` executed."""

    def __init__(self):
        self.ran = []

    def describe(self, db, sql_text):
        return {"kind": "UNKNOWN"} if sql_text.startswith("MAGIC") else None

    def run(self, db, sql_text):
        self.ran.append(sql_text)
        return "HOOKED"


def table_state(db, name):
    """Bit-identity probe: ordered rows + version vector + COUNT(*)."""
    rows = db.query("SELECT * FROM %s" % name)
    vector = db.catalog.version_vector()
    count = db.query("SELECT COUNT(*) FROM %s" % name)[0][0]
    return rows, vector, count


# ----------------------------------------------------------------------
# Script splitting and classification
# ----------------------------------------------------------------------
class TestClassify:
    def test_split_script_respects_quotes(self):
        stmts = split_script(
            "INSERT INTO t VALUES (1, 'a;b');\n SELECT * FROM t;;"
        )
        assert stmts == ["INSERT INTO t VALUES (1, 'a;b')",
                         "SELECT * FROM t"]

    def test_split_script_skips_line_comments(self):
        """``--`` runs to the end of the line, as in the lexer: a ``;``
        or a quote inside a comment neither ends a statement nor opens a
        string, and a statement of comments alone is no statement."""
        assert split_script("SELECT a FROM t -- x; y") == [
            "SELECT a FROM t -- x; y"]
        assert split_script(
            "SELECT a FROM t -- it's\n; SELECT 'b;c' FROM t; -- end\n"
        ) == ["SELECT a FROM t -- it's", "SELECT 'b;c' FROM t"]
        assert split_script("-- only a note; really\n") == []

    def test_a_semicolon_in_a_comment_splits_nothing(self):
        """The text after a commented-out ``;`` is part of the same
        statement: a script whose only ``;`` is in a comment is one
        statement, refused whole — nothing is applied — and previewed
        as one statement."""
        db = make_db()
        db.execute("CREATE TABLE t (a INT, c TEXT)")
        script = ("INSERT INTO t VALUES (1,'x') -- note; more\n"
                  "INSERT INTO t VALUES (2,'y')")
        with pytest.raises(ParseError, match="INSERT"):
            db.session().run_script(script)
        assert db.query("SELECT COUNT(*) FROM t") == [(0,)]
        report = db.session().dry_run("SELECT a FROM t -- x; y")
        assert len(report) == 1 and report.ok
        quoted = db.session().run_script(
            "INSERT INTO t VALUES (3,'z') -- don't\n;"
            "SELECT a FROM t")
        assert [r.kind for r in quoted] == ["INSERT", "SELECT"]
        assert quoted[1].rows == [(3,)]

    @pytest.mark.parametrize("sql", ["garbage words here", "PREDICT foo",
                                     "CREATE MODEL m ON users TARGET age"])
    def test_dry_run_and_execute_agree_on_unclaimed_text(self, sql):
        """Text no extension claims is native: what the parser rejects,
        ``dry_run`` previews as an error and ``execute`` raises — the
        same ``ParseError`` on every surface."""
        db = make_db()
        report = db.session().dry_run("garbage words here; " + sql)
        assert not report.ok
        with pytest.raises(ParseError) as raised:
            db.execute(sql)
        assert report[1].error == str(raised.value)
        assert report[1].kind == sniff_kind(sql)
        for run in (db.session(audit=AuditLog()).execute,
                    db.snapshot().execute,
                    QueryServer(db).session(tenant="t1").execute):
            with pytest.raises(ParseError):
                run(sql)

    def test_sniff_kinds(self):
        assert sniff_kind("SELECT 1") == "SELECT"
        assert sniff_kind("  insert into t values (1)") == "INSERT"
        assert sniff_kind("CREATE TABLE t (a INT)") == "CREATE TABLE"
        assert sniff_kind("CREATE INDEX i ON t (a)") == "CREATE INDEX"
        assert sniff_kind("CREATE MODEL m ON t TARGET y") == "CREATE MODEL"
        assert sniff_kind("PREDICT m ON t") == "PREDICT"
        assert sniff_kind("gibberish") == "UNKNOWN"
        assert sniff_kind("") == "UNKNOWN"
        assert sniff_kind("-- note\n  -- two\nSELECT a FROM t") == "SELECT"
        assert sniff_kind("-- CREATE TABLE t\n") == "UNKNOWN"

    def test_deep_select_collects_all_column_references(self):
        db = make_db()
        info = classify(
            db,
            "SELECT name FROM users WHERE age > 30 ORDER BY id",
            db.catalog.snapshot(),
        )
        assert info.kind == "SELECT"
        assert [t.lower() for t in info.tables] == ["users"]
        cols = {(t.lower(), c.lower()) for t, c in info.columns}
        assert ("users", "name") in cols      # projection
        assert ("users", "age") in cols       # predicate
        assert ("users", "id") in cols        # order key

    def test_select_star_expands_all_columns(self):
        db = make_db()
        info = classify(db, "SELECT * FROM users", db.catalog.snapshot())
        cols = {c.lower() for _, c in info.columns}
        assert cols == {"id", "name", "age"}

    def test_deep_insert_reports_rows_and_columns(self):
        db = make_db()
        info = classify(
            db, "INSERT INTO users VALUES (9, 'zed', 50)",
            db.catalog.snapshot())
        assert info.kind == "INSERT"
        assert info.row_estimate == 1
        assert {c.lower() for _, c in info.columns} == {"id", "name", "age"}


# ----------------------------------------------------------------------
# Facade equivalence: one route behind every surface
# ----------------------------------------------------------------------
ROUTE_SCRIPT = (
    "CREATE TABLE t (a INT)",
    "INSERT INTO t VALUES (1), (2)",
    "ANALYZE t",
    "SELECT name FROM users WHERE age = 25",   # cold: never seen text
    "SELECT name FROM users WHERE age = 25",   # warm
    "MAGIC WORD",
)

ROUTE_GATES = {
    "none": None,
    "unrestricted": lambda: {"policy": Policy.unrestricted()},
    "audit": lambda: {"audit": AuditLog()},
}


def route_runner(surface, gates):
    """``(db, run)`` — ``run(sql)`` is the statement's ``.raw`` on one
    surface of a fresh database; with no gates it is the facade's own
    ``execute``."""
    db = make_db()
    db.pipeline.extensions.append(MagicExtension())
    if surface == "database":
        facade, open_context = db, db.session
    elif surface == "snapshot":
        facade = db.snapshot()
        open_context = facade.session
    else:
        facade = QueryServer(db).session(tenant="t1")
        open_context = facade.session_context
    if ROUTE_GATES[gates] is None:
        return db, facade.execute
    context = open_context(**ROUTE_GATES[gates]())
    return db, lambda sql: context.execute(sql).raw


class TestFacades:
    @pytest.mark.parametrize("gates", sorted(ROUTE_GATES))
    @pytest.mark.parametrize("surface", ["database", "snapshot", "server"])
    def test_the_route_is_one_route(self, surface, gates):
        """Same script, same values, one front-end pass and one lookup
        in each cache per SELECT — whatever the surface's gates."""
        db, run = route_runner(surface, gates)
        caches = (db.pipeline.query_cache, db.pipeline.plan_cache)

        def lookups():
            return [c.stats()["hits"] + c.stats()["misses"] for c in caches]

        outcomes, selects = [], []
        for sql in ROUTE_SCRIPT:
            before = lookups()
            try:
                raw = run(sql)
            except ExecutionError as exc:
                outcomes.append(str(exc))
                continue
            if hasattr(raw, "rows"):
                selects.append(raw.trace)
                assert [b - a for a, b in zip(before, lookups())] == [1, 1]
                raw = raw.rows
            outcomes.append(raw)
        rows = [("bob",), ("dave",)]
        if surface == "snapshot":
            refused = ("snapshot sessions are read-only: only SELECT is "
                       "allowed")
            assert outcomes == [refused] * 3 + [rows, rows, refused]
        else:
            assert outcomes == ["CREATE TABLE", "INSERT 2", "ANALYZE",
                                rows, rows, "HOOKED"]
        cold, warm = selects
        pinned, served = (["pin_snapshot"], ["admission"]) if (
            surface == "server") else ([], [])
        assert list(warm.stages) == (
            pinned + ["lower", "plan"] + served + ["execute"])
        assert list(cold.stages) == (
            pinned + ["parse"] + list(warm.stages)[len(pinned):])
        assert not cold.cache_hit and warm.cache_hit

    def test_database_execute_returns_legacy_types(self):
        db = make_db()
        assert db.execute("CREATE TABLE t (a INT)") == "CREATE TABLE"
        assert db.execute("INSERT INTO t VALUES (1)") == "INSERT 1"
        assert db.execute("ANALYZE t") == "ANALYZE"
        result = db.execute("SELECT COUNT(*) FROM t")
        assert result.rows == [(1,)]
        # Extension statements still return the extension's raw result.
        db.pipeline.extensions.append(MagicExtension())
        assert db.execute("MAGIC") == "HOOKED"

    def test_session_execute_wraps_same_raw(self):
        db = make_db()
        session = db.session()
        res = session.execute("SELECT name FROM users WHERE age = 25")
        assert isinstance(res, SessionResult)
        assert res.kind == "SELECT"
        assert res.rows == [("bob",), ("dave",)]
        assert res.raw.rows == res.rows

    def test_snapshot_facade_pins_and_rejects_writes(self):
        db = make_db()
        snap = db.snapshot()
        db.execute("INSERT INTO users VALUES (6, 'fred', 60)")
        assert snap.query("SELECT COUNT(*) FROM users") == [(5,)]
        assert db.query("SELECT COUNT(*) FROM users") == [(6,)]
        with pytest.raises(ExecutionError, match="read-only"):
            snap.execute("INSERT INTO users VALUES (7, 'gail', 70)")
        # Gated snapshot session reads the same pinned state.
        gated = snap.session(policy=Policy.read_only())
        assert gated.execute("SELECT COUNT(*) FROM users").rows == [(5,)]

    def test_server_session_facade_unchanged(self):
        db = make_db()
        server = QueryServer(db)
        with server.session(tenant="t1") as session:
            result = session.execute("SELECT COUNT(*) FROM users")
            assert result.rows == [(5,)]
            assert session.execute(
                "INSERT INTO users VALUES (6, 'fred', 60)") == "INSERT 1"
        assert server.commit_history()[-1][1]["users"] > 0

    def test_server_session_context_gates(self):
        db = make_db()
        server = QueryServer(db)
        with server.session(tenant="t1") as session:
            gated = session.session_context(policy=Policy.read_only())
            assert gated.execute("SELECT COUNT(*) FROM users").rows == [(5,)]
            with pytest.raises(PolicyError):
                gated.execute("INSERT INTO users VALUES (9, 'x', 1)")

    def test_server_comment_led_select_is_a_snapshot_read(self):
        """A SELECT behind a leading comment is a SELECT: admitted at
        its plan's cost, read from a pinned snapshot, nothing committed
        — and so allowed on a repeatable-read session."""
        db = make_db()
        server = QueryServer(db)
        sql = "-- x\nSELECT name FROM users WHERE age = 25"
        commits = len(server.commit_history())
        pins = []
        pin_snapshot = server.pin_snapshot
        server.pin_snapshot = lambda: pins.append(1) or pin_snapshot()
        with server.session(tenant="t1") as session:
            result = session.execute(sql)
        assert result.rows == [("bob",), ("dave",)]
        assert len(pins) == 1
        charged = result.trace.span("admission").attrs["cost"]
        assert charged == db.pipeline.prepare_sql(sql).est_cost
        assert charged != WRITE_STATEMENT_COST
        with server.session(tenant="t1", isolation="session") as pinned:
            assert pinned.execute(sql).rows == result.rows
        assert len(server.commit_history()) == commits

    def test_select_never_reaches_statement_hooks(self):
        """An extension's ``run`` sees only text its ``describe``
        claimed: a SELECT it leaves alone is native on every surface."""
        db = make_db()
        extension = MagicExtension()
        db.pipeline.extensions.append(extension)
        sql = "SELECT COUNT(*) FROM users"
        assert db.execute(sql).rows == [(5,)]
        assert db.session().execute(sql).rows == [(5,)]
        assert db.session(audit=AuditLog()).execute(sql).rows == [(5,)]
        assert extension.ran == []

    def test_native_write_never_reaches_statement_hooks(self):
        """The rule reads follow, for writes: a statement the native
        front end parsed is executed from that parse, and text no
        extension claims is never handed to one — the parser's error
        stands."""
        db = make_db()
        extension = MagicExtension()
        db.pipeline.extensions.append(extension)
        assert db.execute(
            "INSERT INTO users VALUES (6, 'fred', 60)") == "INSERT 1"
        assert db.session(audit=AuditLog()).execute(
            "ANALYZE users").raw == "ANALYZE"
        with pytest.raises(ParseError):
            db.execute("PREDICT nothing")
        assert extension.ran == []
        assert db.execute("MAGIC") == "HOOKED"
        assert extension.ran == ["MAGIC"]


# ----------------------------------------------------------------------
# One front-end pass per statement, on every surface
# ----------------------------------------------------------------------
WRITE_STATEMENTS = (
    "CREATE TABLE h (a INT, b INT)",
    "INSERT INTO h VALUES (1, 2), (3, 4)",
    "CREATE INDEX h_a ON h (a)",
    "ANALYZE h",
)

WRITE_SURFACES = {
    "database": lambda db: db.execute,
    "policy_session": lambda db: db.session(
        policy=Policy.unrestricted()).execute,
    "agent_session": lambda db: db.agent_session().execute,
    "server_session": lambda db: QueryServer(db).session(
        tenant="t1").execute,
}


def _spy_on_the_parser(monkeypatch, edit=None):
    """Wrap the pipeline's ``parse_sql``: returns the list of statement
    types it parsed; ``edit(stmt)`` may change each parse in place."""
    parse = pipeline_module.parse_sql
    parsed = []

    def spy(sql_text):
        stmt = parse(sql_text)
        parsed.append(type(stmt).__name__)
        if edit is not None:
            edit(stmt)
        return stmt

    monkeypatch.setattr(pipeline_module, "parse_sql", spy)
    return parsed


@pytest.mark.parametrize("surface", sorted(WRITE_SURFACES))
def test_parse_hooks_fire_once_per_write(surface, monkeypatch):
    """A non-SELECT is parsed by the pass that classifies it and
    executed from that parse: the parser sees it once, and the pipeline
    counts one parse and one run for it."""
    db = make_db()
    parsed = _spy_on_the_parser(monkeypatch)
    run = WRITE_SURFACES[surface](db)
    for sql in WRITE_STATEMENTS:
        del parsed[:]
        db.pipeline.reset_stats()
        run(sql)
        assert len(parsed) == 1, (surface, sql, parsed)
        stats = db.pipeline.stats()
        assert stats["runs"] == 1
        assert stats["stages"]["parse"]["count"] == 1
        assert stats["stages"]["execute"]["count"] == 1
    assert db.query("SELECT a, b FROM h ORDER BY a") == [(1, 2), (3, 4)]


# ----------------------------------------------------------------------
# Policy edges
# ----------------------------------------------------------------------
class TestPolicy:
    def test_denied_column_inside_expression(self):
        """A deny-listed column is caught in WHERE, not just SELECT."""
        db = make_db()
        session = db.session(policy=Policy(deny_columns=("users.age",)))
        with pytest.raises(PolicyError, match="column-deny") as exc:
            session.execute("SELECT name FROM users WHERE age > 30")
        assert exc.value.decision.rule == "column-deny"
        # Aggregate argument is caught too.
        with pytest.raises(PolicyError, match="column-deny"):
            session.execute("SELECT AVG(age) FROM users")
        # Untainted statements pass — including aggregate-only queries,
        # which expose no columns (COUNT(*) is not a SELECT *).
        assert session.execute("SELECT name FROM users WHERE id = 1"
                               ).rows == [("alice",)]
        assert session.execute("SELECT COUNT(*) FROM users"
                               ).rows == [(5,)]

    def test_table_gates(self):
        db = make_db()
        session = db.session(policy=Policy(allow_tables=("users",)))
        db.execute("CREATE TABLE secrets (k TEXT)")
        with pytest.raises(PolicyError, match="table-allow"):
            session.execute("SELECT * FROM secrets")

    def test_statement_kind_gate(self):
        db = make_db()
        session = db.session(policy=Policy.read_only())
        with pytest.raises(PolicyError, match="statement-kind"):
            session.execute("CREATE INDEX i ON users (age)")
        with pytest.raises(PolicyError, match="statement-kind"):
            session.execute("ANALYZE users")

    def test_row_limit_on_read_enforced_after_execution(self):
        """Row ceilings bind on the realized result."""
        db = make_db()
        audit = AuditLog()
        session = db.session(policy=Policy(max_rows=3), audit=audit)
        with pytest.raises(PolicyError, match="row-limit"):
            session.execute("SELECT * FROM users")
        rec = audit.records()[-1]
        assert rec.decision == "deny" and rec.status == "denied"
        assert rec.n_rows == 5  # the overrun was measured, not guessed
        # Within the ceiling passes.
        assert len(session.execute(
            "SELECT * FROM users WHERE age = 25").rows) == 2

    def test_row_limit_on_insert_enforced_before_execution(self):
        db = make_db()
        session = db.session(policy=Policy(max_rows=2))
        with pytest.raises(PolicyError, match="row-limit"):
            session.execute(
                "INSERT INTO users VALUES (6,'x',1),(7,'y',2),(8,'z',3)")
        # Nothing was applied.
        assert db.query("SELECT COUNT(*) FROM users") == [(5,)]

    def test_cost_ceiling(self):
        db = make_db()
        session = db.session(policy=Policy(max_cost=0.5))
        with pytest.raises(PolicyError, match="cost-limit"):
            session.execute("SELECT * FROM users")

    def test_unknown_kind_rejected_in_policy(self):
        with pytest.raises(PolicyError, match="unknown statement kinds"):
            Policy(statement_kinds=("DROP",))

    @pytest.mark.parametrize("sql", ["SELECT region FROM people",
                                     "-- x\nSELECT region FROM people"],
                             ids=["plain", "comment-led"])
    @pytest.mark.parametrize("rules,rule", [
        ({"deny_tables": ("people",)}, "table-deny"),
        ({"deny_columns": ("region",)}, "column-deny"),
        ({"allow_tables": ("users",)}, "table-allow"),
        ({"statement_kinds": ("SELECT",)}, None),
    ], ids=["deny_tables", "deny_columns", "allow_tables", "kinds"])
    def test_verdict_reads_the_parsed_statement_not_its_head(
            self, rules, rule, sql):
        """A leading comment changes nothing: same kind, same verdict,
        same audit record."""
        db = make_db()
        db.execute("CREATE TABLE people (id INT, region TEXT)")
        db.execute("INSERT INTO people VALUES (1, 'west')")
        assert classify(db, sql, db.catalog.snapshot()).kind == "SELECT"
        audit = AuditLog()
        session = db.session(policy=Policy(**rules), audit=audit)
        if rule is None:
            assert session.execute(sql).rows == [("west",)]
        else:
            with pytest.raises(PolicyError) as exc:
                session.execute(sql)
            assert exc.value.decision.rule == rule
        assert [r.kind for r in audit] == ["SELECT"]

    def test_policy_checks_the_table_a_parse_hook_retargets_to(
            self, monkeypatch):
        """The policy reads the statement that will run — the parse —
        not the text: a parse retargeted to ``secret`` is denied."""
        db = make_db()
        db.execute("CREATE TABLE secret (id INT, name TEXT, age INT)")

        def retarget(stmt):
            if isinstance(stmt, InsertStmt) and stmt.table == "users":
                stmt.table = "secret"

        _spy_on_the_parser(monkeypatch, retarget)
        session = db.session(policy=Policy(deny_tables=("secret",)))
        with pytest.raises(PolicyError, match="table-deny"):
            session.execute("INSERT INTO users VALUES (6, 'mallory', 66)")
        assert db.query("SELECT COUNT(*) FROM secret") == [(0,)]


# ----------------------------------------------------------------------
# Audit log
# ----------------------------------------------------------------------
class TestAudit:
    def test_every_statement_recorded_with_est_vs_actual(self):
        db = make_db()
        audit = AuditLog()
        session = db.session(audit=audit)
        session.execute("SELECT name FROM users WHERE age > 30")
        session.execute("INSERT INTO users VALUES (6, 'fred', 60)")
        assert len(audit) == 2
        read, write = audit.records()
        assert read.kind == "SELECT" and read.status == "ok"
        assert read.decision == "allow"
        assert read.est_cost is not None and read.est_cost > 0
        assert read.actual_work is not None and read.actual_work > 0
        assert read.versions["users"] > 0
        assert read.telemetry["total_work"] == read.actual_work
        assert write.kind == "INSERT" and write.n_rows == 1

    def test_audit_survives_execution_failure(self):
        db = make_db()
        audit = AuditLog()
        session = db.session(audit=audit)
        with pytest.raises(CatalogError):
            session.execute("SELECT * FROM missing")
        with pytest.raises(ParseError):
            session.execute("THIS IS NOT SQL")
        assert len(audit) == 2
        assert all(r.status == "error" for r in audit)
        assert audit.records()[0].error  # message captured
        assert audit.failed() == audit.records()

    def test_a_failed_statement_after_a_comment_keeps_its_kind(self):
        """A statement that fails classification is named by its first
        token after any leading ``--`` comments, in the audit log and in
        a dry-run preview alike."""
        sql = "-- note\nSELECT a FROM nope"
        db = make_db()
        audit = AuditLog()
        with pytest.raises(CatalogError):
            db.session(audit=audit).execute(sql)
        assert audit.records()[0].kind == "SELECT"
        preview, = db.session().dry_run(sql)
        assert (preview.kind, preview.ok) == ("SELECT", False)

    # A statement that dies with something other than an EngineError —
    # an operator's raw TypeError on a NULL comparison, say — used to
    # leave no record at all. Injected at the executor so the regression
    # does not depend on any particular engine bug staying unfixed.
    @staticmethod
    def _raw_type_error(*args, **kwargs):
        raise TypeError("injected: '<' not supported")

    def test_non_engine_error_is_audited_and_reraised_unchanged(
            self, monkeypatch):
        db = make_db()
        audit = AuditLog()
        session = db.session(audit=audit)
        monkeypatch.setattr(db.executor, "execute", self._raw_type_error)
        with pytest.raises(TypeError, match="injected") as caught:
            session.execute("SELECT name FROM users WHERE age > 30")
        # Same exception, same traceback: it still ends where it began.
        assert caught.traceback[-1].name == "_raw_type_error"
        rec, = audit.records()
        assert (rec.kind, rec.decision, rec.status) == (
            "SELECT", "allow", "error")
        assert rec.error == "TypeError: injected: '<' not supported"
        # ... with what was known by then: planned, never measured.
        assert rec.est_cost > 0 and rec.actual_work is None

    def test_non_engine_error_in_an_agent_transaction(self, monkeypatch):
        db = make_db()
        before = table_state(db, "users")
        agent = db.agent_session()
        with monkeypatch.context() as patch:
            with pytest.raises(TypeError, match="injected"):
                with agent:
                    agent.execute("INSERT INTO users VALUES (6, 'fred', 60)")
                    patch.setattr(
                        db.executor, "execute", self._raw_type_error)
                    agent.execute("SELECT COUNT(*) FROM users")
        assert table_state(db, "users") == before  # rolled back
        assert [(r.kind, r.status) for r in agent.audit] == [
            ("BEGIN", "ok"), ("INSERT", "ok"), ("SELECT", "error"),
            ("ROLLBACK", "ok")]

    def test_non_engine_error_in_a_server_session(self, monkeypatch):
        server = QueryServer(
            make_db(), tenant_quota=1e6, quota_refill_rate=0.0)
        audit = AuditLog()
        with server.session(tenant="a") as sess:
            context = sess.session_context(audit=audit)
            with monkeypatch.context() as patch:
                patch.setattr(
                    server.db.executor, "execute", self._raw_type_error)
                with pytest.raises(TypeError, match="injected"):
                    context.execute("SELECT COUNT(*) FROM users")
        rec, = audit.records()
        assert rec.status == "error" and rec.error.startswith("TypeError")
        # The admission ticket was cancelled, not leaked ...
        assert server.admission.balance("a") == pytest.approx(1e6)
        counters = server.admission.stats()["a"]
        assert counters["charged"] == pytest.approx(counters["refunded"])
        # ... and the server still serves the next tenant.
        assert server.execute(
            "SELECT COUNT(*) FROM users", tenant="b").rows == [(5,)]

    def test_audit_queryable_as_table(self):
        db = make_db()
        audit = AuditLog()
        session = db.session(
            policy=Policy(deny_columns=("users.age",)), audit=audit)
        session.execute("SELECT name FROM users")
        with pytest.raises(PolicyError):
            session.execute("SELECT age FROM users")
        audit.attach(db.catalog, "session_audit")
        rows = db.query(
            "SELECT seq, kind, decision, status FROM session_audit")
        assert rows == [(1, "SELECT", "allow", "ok"),
                        (2, "SELECT", "deny", "denied")]
        # est vs actual landed in the table for the executed read.
        est, actual = db.query(
            "SELECT est_cost, actual_work FROM session_audit WHERE seq = 1"
        )[0]
        assert est > 0 and actual > 0
        # Re-attaching refreshes rather than erroring.
        session.execute("SELECT name FROM users")
        audit.attach(db.catalog, "session_audit")
        assert db.query("SELECT COUNT(*) FROM session_audit") == [(3,)]


# ----------------------------------------------------------------------
# Dry run
# ----------------------------------------------------------------------
class TestDryRun:
    def test_script_planned_not_executed(self):
        db = make_db()
        session = db.session(policy=Policy(deny_tables=("secrets",)))
        before = table_state(db, "users")
        report = session.dry_run(
            "SELECT name FROM users WHERE age > 30;"
            "INSERT INTO users VALUES (9, 'zed', 90);"
            "CREATE TABLE t2 (a INT)"
        )
        assert table_state(db, "users") == before  # nothing ran
        assert not db.catalog.has_table("t2")
        assert report.ok and len(report) == 3
        select, insert, ddl = report
        assert select.kind == "SELECT"
        assert select.est_cost > 0 and select.est_rows is not None
        assert insert.kind == "INSERT" and insert.est_rows == 1
        assert ddl.kind == "CREATE TABLE"
        assert report.total_est_cost > 0

    def test_dry_run_flags_denials_and_errors(self):
        db = make_db()
        session = db.session(policy=Policy.read_only())
        report = session.dry_run(
            "SELECT name FROM users;"
            "INSERT INTO users VALUES (9, 'zed', 90);"
            "SELECT * FROM missing"
        )
        assert not report.ok
        assert len(report.denied()) == 1
        assert report.denied()[0].kind == "INSERT"
        assert len(report.errors()) == 1
        assert "missing" in report.errors()[0].error


# ----------------------------------------------------------------------
# AgentSession transactions: the rollback acceptance criterion
# ----------------------------------------------------------------------
class TestAgentRollback:
    def test_misbehaving_script_fully_undone(self):
        """Post-rollback tables, version vectors, and COUNT(*) are
        bit-identical."""
        db = make_db()
        before = table_state(db, "users")
        agent = db.agent_session(policy=Policy(deny_tables=("secrets",)))
        with pytest.raises(CatalogError):
            with agent:
                agent.run_script(
                    "INSERT INTO users VALUES (6, 'mallory', 66);"
                    "CREATE TABLE loot (k TEXT);"
                    "INSERT INTO loot VALUES ('swag');"
                    "CREATE INDEX ix ON users (age);"
                    "SELECT * FROM nonexistent"  # the misbehavior
                )
        assert table_state(db, "users") == before
        assert not db.catalog.has_table("loot")
        assert "ix" not in [ix.name for ix in db.catalog.indexes()]
        # The audit log survived the rollback and recorded the failure.
        kinds = [r.kind for r in agent.audit]
        assert "ROLLBACK" in kinds and "error" in [
            r.status for r in agent.audit]

    def test_rollback_after_partial_script(self):
        """Explicit begin/rollback mid-script: earlier statements are
        applied, rollback reverts all of them."""
        db = make_db()
        agent = db.agent_session()
        before = table_state(db, "users")
        agent.begin()
        agent.execute("INSERT INTO users VALUES (6, 'fred', 60)")
        agent.execute("INSERT INTO users VALUES (7, 'gail', 70)")
        assert db.query("SELECT COUNT(*) FROM users") == [(7,)]
        agent.rollback()
        assert table_state(db, "users") == before
        # Whatever plan the query takes runs on the restored rows.
        assert db.query("SELECT COUNT(*) FROM users") == [(5,)]

    def test_commit_keeps_changes(self):
        db = make_db()
        with db.agent_session() as agent:
            agent.execute("INSERT INTO users VALUES (6, 'fred', 60)")
        assert db.query("SELECT COUNT(*) FROM users") == [(6,)]

    def test_transaction_state_errors(self):
        db = make_db()
        agent = db.agent_session()
        with pytest.raises(SessionError, match="no transaction"):
            agent.rollback()
        agent.begin()
        with pytest.raises(SessionError, match="already active"):
            agent.begin()
        agent.commit()
        with pytest.raises(SessionError, match="no transaction"):
            agent.commit()

    def test_rollback_restores_stats_and_views(self):
        db = make_db()
        stats_before = db.catalog.stats("users").n_rows
        agent = db.agent_session()
        agent.begin()
        agent.execute("INSERT INTO users VALUES (6, 'fred', 60)")
        agent.execute("ANALYZE users")
        assert db.catalog.stats("users").n_rows == 6
        agent.rollback()
        assert db.catalog.stats("users").n_rows == stats_before


class TestAgentOverServer:
    def test_server_rollback_bit_identical_and_logged(self):
        db = make_db()
        server = QueryServer(db)
        before = table_state(db, "users")
        history_before = len(server.commit_history())
        agent = server.agent_session(policy=Policy(max_rows=100))
        agent.begin()
        agent.execute("INSERT INTO users VALUES (6, 'fred', 60)")
        agent.execute("CREATE TABLE scratch (x INT)")
        agent.rollback()
        agent.close()
        assert table_state(db, "users") == before
        assert not db.catalog.has_table("scratch")
        # The rollback appended the restored vector: the post-rollback
        # state is a committed state (no-torn-reads invariant holds).
        history = server.commit_history()
        assert len(history) > history_before
        assert history[-1][1] == dict(db.catalog.version_vector())
        with server.session() as session:
            assert session.execute(
                "SELECT COUNT(*) FROM users").rows == [(5,)]

    def test_server_agent_commit_visible_to_other_sessions(self):
        db = make_db()
        server = QueryServer(db)
        with server.agent_session() as agent:
            agent.execute("INSERT INTO users VALUES (6, 'fred', 60)")
        with server.session() as session:
            assert session.execute(
                "SELECT COUNT(*) FROM users").rows == [(6,)]


# ----------------------------------------------------------------------
# AISQL under sessions
# ----------------------------------------------------------------------
class TestAISQLSessions:
    def _db_with_aisql(self):
        pytest.importorskip("repro.db4ai")
        from repro.db4ai.declarative.aisql import AISQLExtension
        db = make_db()
        AISQLExtension().install(db)
        return db

    def test_predict_denied_under_select_only_policy(self):
        db = self._db_with_aisql()
        db.execute(
            "CREATE MODEL m KIND linear ON users TARGET age FEATURES (id)")
        session = db.session(policy=Policy.read_only())
        with pytest.raises(PolicyError, match="statement-kind"):
            session.execute("PREDICT m ON users LIMIT 2")
        # A policy that allows PREDICT lets it through, with a planner
        # cost estimate from the inspector's feature query.
        open_session = db.session(
            policy=Policy(statement_kinds=("SELECT", "PREDICT")),
            audit=AuditLog())
        res = open_session.execute("PREDICT m ON users LIMIT 2")
        assert res.kind == "PREDICT"
        assert len(res.raw.rows) == 2
        assert res.est_cost is not None and res.est_cost > 0
        assert open_session.audit.records()[-1].decision == "allow"

    def test_create_model_feature_columns_gated(self):
        db = self._db_with_aisql()
        session = db.session(policy=Policy(deny_columns=("users.age",)))
        with pytest.raises(PolicyError, match="column-deny"):
            session.execute(
                "CREATE MODEL m KIND linear ON users TARGET age "
                "FEATURES (id)")

    def test_dry_run_plans_aisql_without_training(self):
        db = self._db_with_aisql()
        session = db.session()
        report = session.dry_run(
            "CREATE MODEL m KIND linear ON users TARGET age FEATURES (id);"
            "SELECT COUNT(*) FROM users"
        )
        assert report.ok
        create = report[0]
        assert create.kind == "CREATE MODEL"
        assert [t.lower() for t in create.tables] == ["users"]
        assert create.est_cost is not None and create.est_cost > 0
        # Nothing trained: the registry hook never fired.
        with pytest.raises(EngineError):
            db.execute("PREDICT m ON users LIMIT 1")

    def test_rollback_reverts_aisql_side_tables_not_registry(self):
        """Documented boundary: catalog state rolls back; the model
        registry (an extension object outside the catalog) does not."""
        db = self._db_with_aisql()
        before = table_state(db, "users")
        agent = db.agent_session()
        agent.begin()
        agent.execute(
            "CREATE MODEL m KIND linear ON users TARGET age FEATURES (id)")
        agent.execute("INSERT INTO users VALUES (6, 'fred', 60)")
        agent.rollback()
        assert table_state(db, "users") == before
        # The registry kept the model (out-of-catalog side effect).
        assert len(db.execute("PREDICT m ON users LIMIT 1").rows) == 1


# ----------------------------------------------------------------------
# Learned access control → session policy bridge
# ----------------------------------------------------------------------
class TestPolicyBridge:
    def test_derived_policy_enforces_learned_denials(self):
        pytest.importorskip("repro.ai4db")
        from repro.ai4db.security import (
            AccessRequestGenerator,
            LearnedAccessController,
            derive_policy,
        )
        db = Database()
        db.catalog.create_table(
            "people",
            [("id", "INT"), ("ssn", "TEXT"), ("region", "TEXT")],
            sensitive=("ssn",),
        )
        db.catalog.table("people").insert_rows(
            [(1, "123-45-6789", "west"), (2, "987-65-4321", "east")])
        requests, labels = AccessRequestGenerator(seed=0).generate(3000)
        controller = LearnedAccessController(seed=0).fit(requests, labels)
        # A marketing caller on an ad-hoc purpose must not see pii.
        policy = derive_policy(
            db.catalog, controller, role="marketing", purpose="ad_hoc")
        session = db.session(policy=policy)
        with pytest.raises(PolicyError, match="column-deny"):
            session.execute("SELECT ssn FROM people")
        assert session.execute("SELECT region FROM people").rows == [
            ("west",), ("east",)]
        # An admin sees everything (the hidden policy allows admin).
        admin = db.session(policy=derive_policy(
            db.catalog, controller, role="admin", purpose="reporting"))
        assert len(admin.execute("SELECT ssn FROM people").rows) == 2


# ----------------------------------------------------------------------
# SessionContext misc
# ----------------------------------------------------------------------
class TestSessionContextMisc:
    def test_ungated_session_is_transparent(self):
        db = make_db()
        session = db.session()
        assert session.execute("INSERT INTO users VALUES (6, 'f', 1)"
                               ).raw == "INSERT 1"

    def test_agent_session_always_audits(self):
        db = make_db()
        agent = db.agent_session()
        assert isinstance(agent, AgentSession)
        assert isinstance(agent, SessionContext)
        agent.execute("SELECT COUNT(*) FROM users")
        assert len(agent.audit) == 1

    def test_prepare_respects_policy(self):
        db = make_db()
        session = db.session(policy=Policy(deny_columns=("users.age",)))
        with pytest.raises(PolicyError):
            session.prepare("SELECT age FROM users")
        prepared = session.prepare("SELECT name FROM users")
        assert prepared.est_cost > 0

    def test_explain_respects_policy(self):
        db = make_db()
        session = db.session(policy=Policy(deny_tables=("users",)))
        with pytest.raises(PolicyError):
            session.explain("SELECT name FROM users")

    @pytest.mark.parametrize(
        "surface", ["embedded", "snapshot", "server", "agent"])
    def test_explain_makes_one_front_end_pass(self, surface):
        """A session EXPLAIN plans from the pass that classified it:
        one SQL-text-cache lookup per EXPLAIN, cold or warm — what
        ``db.explain`` costs, and the rule writes already follow."""
        db = make_db()
        session = {
            "embedded": db.session,
            "snapshot": lambda: db.snapshot().session(),
            "server": lambda: QueryServer(db).session().session_context(),
            "agent": db.agent_session,
        }[surface]()
        sql = "SELECT name FROM users WHERE age > 30"
        db.pipeline.reset_stats()
        cold = session.explain(sql)
        assert db.pipeline.query_cache.stats()["misses"] == 1
        assert db.pipeline.query_cache.stats()["hits"] == 0
        warm = session.explain(sql)
        assert db.pipeline.query_cache.stats()["misses"] == 1
        assert db.pipeline.query_cache.stats()["hits"] == 1
        assert str(cold) == str(warm) == str(db.explain(sql))
        pinned = ["pin_snapshot"] if surface == "server" else []
        assert list(cold.trace.stages) == pinned + [
            "parse", "lower", "plan"]
        with pytest.raises(ParseError, match="EXPLAIN supports only"):
            session.explain("ANALYZE users")
