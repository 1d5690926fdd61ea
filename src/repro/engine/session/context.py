"""The unified session surface over every way of talking to the engine.

``Database.execute`` (embedded), ``db.snapshot()`` (pinned reads) and
``QueryServer.session()`` (multi-tenant serving) are all facades over
:class:`SessionContext`: a *backend* strategy object supplies the three
primitive operations (``pin`` the catalog view a statement reads,
``read`` a prepared SELECT, ``write`` anything else), and the context
layers classification, policy gates, audit logging, dry-run planning,
and a single :class:`SessionResult` envelope on top.

Every statement takes one route, whatever the surface and whatever the
gates: the backend pins one snapshot, the pipeline's front end runs
once on it, :func:`classify` reads the statement's kind, tables and
columns off what it parsed, the statement gate runs, then a SELECT is
planned *from that same front-end pass*, cost-gated, read through the
backend and row-gated — all on that one view — and anything else is
cost-gated and written through the backend — a native statement
executed *from that same pass* too, an extension statement by the
extension that claimed it, so no surface parses a statement twice; the
outcome is audited. Text no extension (``db.pipeline.extensions``)
claims is native, so what the parser rejects fails classification
alike on every surface and in a dry run. The statement's
:class:`~repro.engine.telemetry.StatementTrace` is created here, where
it enters, and handed down that same route. A session without a policy
or an audit log takes the same route — its gates simply have nothing to
check or record.

Layering: this module sits inside ``repro.engine`` and must not import
the serving layer (``repro.engine.server``) — the server imports *us*.
:class:`ServerBackend` therefore duck-types its target: anything with
``pin_snapshot`` / ``_run_read`` / ``_run_write`` works. The SQL front
end has one owner, the pipeline: nothing here calls the parser.
"""

from functools import partial

from repro.engine.errors import EngineError, ExecutionError
from repro.engine.session.audit import AuditLog  # noqa: F401 (re-export)
from repro.engine.session.policy import WRITE_KINDS, PolicyDecision
from repro.engine.sql.ast_nodes import (
    AnalyzeStmt,
    CreateIndexStmt,
    CreateTableStmt,
    InsertStmt,
)
from repro.engine.sql.lexer import skip_leading_comments
from repro.engine.telemetry import StatementTrace

#: Flat cost of one write statement — the cost gate's estimate and the
#: serving layer's default admission charge (writes bypass the planner,
#: so there is no estimate to read).
WRITE_STATEMENT_COST = 64.0

#: Two-word statement heads the classifier must join before matching.
_TWO_WORD_KINDS = {
    ("CREATE", "TABLE"): "CREATE TABLE",
    ("CREATE", "INDEX"): "CREATE INDEX",
    ("CREATE", "HYPOTHETICAL"): "CREATE INDEX",
    ("CREATE", "MODEL"): "CREATE MODEL",
}

_ONE_WORD_KINDS = {
    "SELECT": "SELECT",
    "INSERT": "INSERT",
    "ANALYZE": "ANALYZE",
    "PREDICT": "PREDICT",
    "EVALUATE": "EVALUATE",
}


def split_script(text):
    """Split a multi-statement script on ``;`` outside quotes and
    ``--`` comments.

    Returns the statements with surrounding whitespace (and the
    terminating semicolon) stripped, leaving out any that hold nothing
    but whitespace and comments. Quote-aware so string literals
    containing semicolons survive intact; a comment runs to the end of
    its line, as in the lexer, so a ``;`` or a quote inside one
    neither ends a statement nor opens a string.
    """
    statements = []
    start = 0
    quote = None
    code = False  # the current statement has more than comments
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if quote is not None:
            if ch == quote:
                quote = None
        elif text.startswith("--", i):
            end = text.find("\n", i)
            i = n if end < 0 else end
            continue
        elif ch == ";":
            if code:
                statements.append(text[start:i].strip())
            start, code = i + 1, False
        else:
            if ch in ("'", '"'):
                quote = ch
            code = code or not ch.isspace()
        i += 1
    if code:
        statements.append(text[start:].strip())
    return statements


def sniff_kind(sql_text):
    """Name a statement by its head token(s) — no parsing.

    The kind an audit record / dry-run preview shows for a statement
    that failed classification. Never decides how a statement runs.
    Leading ``--`` comments are skipped, as the lexer skips them.
    Returns one of :data:`~repro.engine.session.policy.STATEMENT_KINDS`
    (``"UNKNOWN"`` when the head matches nothing).
    """
    tokens = skip_leading_comments(sql_text).split(None, 2)
    if not tokens:
        return "UNKNOWN"
    head = tokens[0].upper()
    if head == "CREATE" and len(tokens) > 1:
        return _TWO_WORD_KINDS.get((head, tokens[1].upper()), "UNKNOWN")
    return _ONE_WORD_KINDS.get(head, "UNKNOWN")


class StatementInfo:
    """What classification learned about one statement.

    Attributes:
        sql: the statement text.
        kind: a :data:`~repro.engine.session.policy.STATEMENT_KINDS`
            entry.
        tables: referenced table names.
        columns: referenced ``(table, column)`` pairs — for a SELECT
            this covers projections (expanded to all columns for
            ``SELECT *``), predicates, join keys, aggregate arguments,
            grouping and ordering keys, so a policy deny-list catches a
            column *wherever* it appears in the statement. Built on
            first read (a policy or a dry run) for a SELECT.
        query: the lowered :class:`~repro.engine.query.ConjunctiveQuery`
            when one exists (a SELECT, or an extension's cost-estimable
            feature query).
        row_estimate: known row count before execution (INSERT only).
        source: how the info was obtained — ``"extension"`` (an
            extension claimed the text) / ``"lowered"`` (a native
            SELECT) / ``"parsed"`` (any other native statement).
        trace: the statement's
            :class:`~repro.engine.telemetry.StatementTrace`.
        catalog: the view the statement was classified on — its pin. A
            SELECT and an extension's feature query plan on it; a write
            ignores it.
        front: what running the statement continues, so it is parsed,
            timed and cache-counted once. ``(query, trace, signature,
            catalog)`` for ``"lowered"`` (what :meth:`~repro.engine.
            pipeline.QueryPipeline.prepare_sql` takes), ``(stmt, trace)`` for
            ``"parsed"`` (what :meth:`~repro.engine.pipeline.
            QueryPipeline.run_statement` takes), and the claiming
            extension for ``"extension"`` (whose ``run`` executes it).
    """

    __slots__ = ("sql", "kind", "tables", "_columns", "query",
                 "row_estimate", "source", "trace", "catalog", "front")

    def __init__(self, sql, kind, trace, catalog, source, front, tables=(),
                 columns=(), query=None, row_estimate=None):
        self.sql = sql
        self.kind = kind
        self.tables = list(tables)
        self._columns = columns if callable(columns) else list(columns)
        self.query = query
        self.row_estimate = row_estimate
        self.source = source
        self.trace = trace
        self.catalog = catalog
        self.front = front

    @property
    def columns(self):
        """The referenced ``(table, column)`` pairs (see the class)."""
        if callable(self._columns):
            self._columns = self._columns()
        return self._columns

    def __repr__(self):
        return "StatementInfo(%s, tables=%r, source=%s)" % (
            self.kind, self.tables, self.source)


def _query_columns(catalog, query):
    """Every (table, column) a lowered query references, deduplicated."""
    cols = []
    if query.projections:
        cols.extend(query.projections)
    elif not query.aggregates:
        # SELECT * — expand to every column of every table so allow/deny
        # lists see exactly what the result would expose. Aggregate-only
        # queries (e.g. COUNT(*)) expose only their aggregate arguments,
        # collected below.
        for t in query.tables:
            for c in catalog.table(t).schema.column_names:
                cols.append((t, c))
    for p in query.predicates:
        cols.append((p.table, p.column))
    for e in query.join_edges:
        cols.append((e.left_table, e.left_column))
        cols.append((e.right_table, e.right_column))
    for a in query.aggregates:
        if a.column is not None:
            cols.append((a.table, a.column))
    cols.extend(query.group_by)
    if query.order_by is not None:
        cols.append(query.order_by[0])
    return list(dict.fromkeys(cols))


def classify(db, sql_text, catalog, trace=None):
    """Classify one statement without executing it.

    Every extension (``db.pipeline.extensions``) is asked to describe
    the text first, so a claimed statement (AISQL) classifies like
    native SQL and runs through its extension. Everything else goes
    through the pipeline's front end — comments skipped, SELECTs lowered
    through the warm SQL-text cache — and the kind, tables and columns
    are read off the result.

    Text no extension claims is native: a malformed or unresolvable
    statement raises the same :class:`~repro.common.ParseError` /
    :class:`~repro.common.CatalogError` executing it would. The front
    end runs on the pinned ``catalog`` and its spans land in ``trace``
    (a fresh one by default).
    """
    trace = trace or StatementTrace()
    for extension in db.pipeline.extensions:
        desc = extension.describe(db, sql_text)
        if desc is not None:
            return StatementInfo(
                sql_text,
                desc.get("kind", "UNKNOWN"),
                trace,
                catalog,
                "extension",
                extension,
                tables=desc.get("tables", ()),
                columns=list(dict.fromkeys(desc.get("columns", ()))),
                query=desc.get("query"),
                row_estimate=desc.get("row_estimate"),
            )
    query, stmt, __, sig = db.pipeline.front_end(sql_text, catalog, trace)
    if query is not None:
        return StatementInfo(
            sql_text, "SELECT", trace, catalog, "lowered",
            (query, trace, sig, catalog), tables=list(query.tables),
            columns=partial(_query_columns, catalog, query), query=query,
        )
    def parsed(kind, **fields):
        return StatementInfo(sql_text, kind, trace, catalog, "parsed",
                             (stmt, trace), **fields)

    if isinstance(stmt, InsertStmt):
        if stmt.columns:
            columns = [(stmt.table, c) for c in stmt.columns]
        elif db.catalog.has_table(stmt.table):
            columns = [(stmt.table, c) for c in
                       db.catalog.table(stmt.table).schema.column_names]
        else:
            columns = []
        return parsed("INSERT", tables=[stmt.table], columns=columns,
                      row_estimate=len(stmt.rows))
    if isinstance(stmt, CreateTableStmt):
        return parsed("CREATE TABLE", tables=[stmt.name])
    if isinstance(stmt, CreateIndexStmt):
        return parsed("CREATE INDEX", tables=[stmt.table],
                      columns=[(stmt.table, stmt.column)])
    if isinstance(stmt, AnalyzeStmt):
        return parsed("ANALYZE", tables=([stmt.table] if stmt.table
                                         else db.catalog.table_names()))
    return parsed("UNKNOWN")


class SessionResult:
    """The single result envelope every session statement returns.

    Attributes:
        sql: the statement text.
        kind: classified statement kind.
        raw: what the statement produced — an
            :class:`~repro.engine.executor.ExecutionResult` for SELECT,
            a status string for DDL/DML/ANALYZE, or what the extension's
            ``run`` returned for an extension statement. The facades
            (``Database.execute`` et al.) return exactly this.
        decision: the :class:`PolicyDecision` that admitted the
            statement (the ``"default"`` allow without a policy).
        est_cost: the planner's pre-execution cost estimate, when one
            existed.
        audit_record: the :class:`~repro.engine.session.audit.
            AuditRecord` written for this statement (``None`` when the
            session has no audit log).
    """

    __slots__ = ("sql", "kind", "raw", "decision", "est_cost",
                 "audit_record")

    def __init__(self, sql, kind, raw, decision=None, est_cost=None,
                 audit_record=None):
        self.sql = sql
        self.kind = kind
        self.raw = raw
        self.decision = decision
        self.est_cost = est_cost
        self.audit_record = audit_record

    @property
    def rows(self):
        """Result rows for reads; ``None`` for statements without rows."""
        return getattr(self.raw, "rows", None)

    @property
    def columns(self):
        """Result column labels for reads, else ``None``."""
        return getattr(self.raw, "columns", None)

    @property
    def telemetry(self):
        """The run's ``execute`` span, when the statement executed
        through the executor."""
        return getattr(self.raw, "telemetry", None)

    @property
    def actual_work(self):
        """Measured executor work (settles against ``est_cost``)."""
        telemetry = self.telemetry
        if telemetry is not None:
            return telemetry.total_work
        return None

    def __repr__(self):
        n = self.rows
        return "SessionResult(%s%s)" % (
            self.kind, "" if n is None else ", %d rows" % len(n))


class StatementPreview:
    """One statement's dry-run verdict: what *would* happen.

    Attributes:
        sql / kind / tables / columns: from classification.
        decision: the policy verdict (``None`` without a policy).
        est_cost: planner cost estimate (SELECT and inspectable
            extension statements), flat :data:`WRITE_STATEMENT_COST`
            for writes.
        est_rows: planner row estimate (reads) or literal row count
            (INSERT).
        error: classification/planning failure message (the statement
            would fail the same way if executed), else ``None``.
    """

    __slots__ = ("sql", "kind", "tables", "columns", "decision",
                 "est_cost", "est_rows", "error")

    def __init__(self, sql, kind, tables=(), columns=(), decision=None,
                 est_cost=None, est_rows=None, error=None):
        self.sql = sql
        self.kind = kind
        self.tables = list(tables)
        self.columns = list(columns)
        self.decision = decision
        self.est_cost = est_cost
        self.est_rows = est_rows
        self.error = error

    @property
    def ok(self):
        """Whether the statement would be admitted and plans cleanly."""
        if self.error is not None:
            return False
        return self.decision is None or self.decision.allowed

    def __repr__(self):
        return "StatementPreview(%s, ok=%r, est_cost=%r)" % (
            self.kind, self.ok, self.est_cost)


class DryRunReport:
    """A whole script's dry run: per-statement previews, nothing executed.

    Iterable/indexable over its :class:`StatementPreview` entries.
    """

    __slots__ = ("statements",)

    def __init__(self, statements):
        self.statements = list(statements)

    @property
    def ok(self):
        """Whether every statement would be admitted and plans cleanly."""
        return all(p.ok for p in self.statements)

    @property
    def total_est_cost(self):
        """Sum of the known per-statement cost estimates."""
        return sum(p.est_cost for p in self.statements
                   if p.est_cost is not None)

    def denied(self):
        return [p for p in self.statements
                if p.decision is not None and not p.decision.allowed]

    def errors(self):
        return [p for p in self.statements if p.error is not None]

    def __iter__(self):
        return iter(self.statements)

    def __len__(self):
        return len(self.statements)

    def __getitem__(self, idx):
        return self.statements[idx]

    def __repr__(self):
        return "DryRunReport(%d statements, ok=%r, est_cost=%.1f)" % (
            len(self.statements), self.ok, self.total_est_cost)


# ---------------------------------------------------------------------------
# Backends: how each entry point pins, reads and writes.
# ---------------------------------------------------------------------------
class LocalBackend:
    """Direct embedded execution against a live :class:`Database`."""

    def __init__(self, db):
        self.db = db

    def pin(self, trace):
        """The one catalog view a statement reads (a write ignores it)."""
        return self.db.catalog.snapshot()

    def read(self, prepared):
        return self.db.pipeline.execute_prepared(prepared)

    def write(self, info):
        """A native statement continues the front-end pass that
        classified it; an extension statement runs through the
        extension that claimed it."""
        if info.source == "parsed":
            return self.db.pipeline.run_statement(*info.front)
        return info.front.run(self.db, info.sql)


class SnapshotBackend(LocalBackend):
    """Read-only execution on one held :class:`CatalogSnapshot`."""

    def __init__(self, db, snapshot):
        super().__init__(db)
        self.snapshot = snapshot

    def pin(self, trace):
        return self.snapshot

    def write(self, info):
        raise ExecutionError(
            "snapshot sessions are read-only: only SELECT is allowed")


class ServerBackend(LocalBackend):
    """Execution through a :class:`QueryServer`'s admission + commit paths.

    Duck-typed (see the module's layering note): ``session`` is the
    server's session handle, whose ``_pinned`` snapshot, if any, is every
    statement's pin. What a write *does* is :meth:`LocalBackend.write`;
    the server's commit path decides when.
    """

    def __init__(self, server, session):
        super().__init__(server.db)
        self.server = server
        self.session = session

    def pin(self, trace):
        pinned = self.session._pinned
        if pinned is not None:
            return pinned
        with trace.root.child("pin_snapshot"):
            return self.server.pin_snapshot()

    def read(self, prepared):
        return self.server._run_read(self.session, prepared)

    def write(self, info):
        return self.server._run_write(
            self.session, partial(super().write, info), info.trace)


def run_query_object(backend, query, order=None):
    """The facades' query-object route: pin, plan, read (no gates)."""
    trace = StatementTrace()
    return backend.read(backend.db.pipeline.prepare_query(
        query, order=order, catalog=backend.pin(trace), trace=trace))


class SessionContext:
    """One caller's gated, audited view of the engine.

    Args:
        db: the underlying :class:`~repro.engine.database.Database`.
        backend: the execution strategy (defaults to a
            :class:`LocalBackend` over ``db``).
        policy: an optional :class:`Policy`; every statement is checked
            before (and reads after) execution.
        audit: an optional :class:`~repro.engine.session.audit.AuditLog`;
            every statement — allowed, denied, or failed — is appended.

    The route is the same with or without them: a missing policy is a
    gate with nothing to check, a missing audit log one with nothing to
    record.
    """

    def __init__(self, db, backend=None, policy=None, audit=None):
        self.db = db
        self.backend = backend if backend is not None else LocalBackend(db)
        self.policy = policy
        self.audit = audit

    # -- unified statement surface --------------------------------------
    def execute(self, sql_text):
        """Run one statement; returns a :class:`SessionResult`.

        Pin → front end once → classify → statement gate → plan (a
        SELECT, continuing the classifying pass) or flat-cost (a write)
        → cost gate → ``backend.read(prepared)`` /
        ``backend.write(info)`` → row gate → audit. Of the writes, only
        a statement an extension claimed reaches that extension's
        ``run``. A denial or
        failure at any step — an :class:`EngineError` or anything else
        an operator, extension or backend lets escape — is audited with what
        was known by then (its trace closed like any other), then
        re-raised unchanged.
        """
        kind = decision = None
        trace = StatementTrace()
        seen = {"trace": trace}
        try:
            with trace.root:
                info = self._classify(sql_text, trace)
                kind = info.kind
                decision = self._gate(sql_text, "check_statement", info)
                try:
                    prepared, est_cost, __ = self._estimate(info)
                except EngineError:
                    if info.source == "lowered":
                        raise
                    # An extension's feature query that does not plan:
                    # its run reports the failure in its own words.
                    prepared = est_cost = None
                seen["est_cost"] = est_cost
                self._gate(sql_text, "check_cost", est_cost)
                if prepared is not None:
                    raw = self.backend.read(prepared)
                else:
                    raw = self.backend.write(info)
                rows = getattr(raw, "rows", None)
                seen["n_rows"] = (len(rows) if rows is not None
                                  else info.row_estimate)
                if rows is not None:
                    # Limits on realized size can only be checked after
                    # execution — an overrun is withheld and audited.
                    # Extension reads (AISQL PREDICT) are row-shaped too.
                    self._gate(sql_text, "check_result_rows", len(rows))
        except Exception as exc:
            denial = getattr(exc, "decision", None)
            if denial is not None:
                self._audit(sql_text, kind, denial, "denied",
                            error=denial.reason, **seen)
            else:
                error = str(exc)
                if not isinstance(exc, EngineError):
                    # Not one of ours: the type is most of the message.
                    error = "%s: %s" % (type(exc).__name__, error)
                self._audit(sql_text, kind or sniff_kind(sql_text),
                            decision, "error", error=error, **seen)
            raise
        record = self._audit(sql_text, kind, decision, "ok", **seen)
        return SessionResult(sql_text, kind, raw, decision=decision,
                             est_cost=est_cost, audit_record=record)

    def query(self, sql_text):
        """Run one SELECT; returns just the rows."""
        return self.execute(sql_text).rows

    def explain(self, sql_text):
        """Plan a SELECT without executing (statement-gated first);
        planning continues the pass that classified it."""
        info = self._classify(sql_text)
        self._gate(sql_text, "check_statement", info)
        return self.db.pipeline.explain(
            sql_text, info.front if info.source == "lowered" else None)

    def prepare(self, sql_text):
        """Plan a SELECT through the warm caches without executing.

        Returns a :class:`~repro.engine.pipeline.PreparedQuery`, past
        the statement and cost gates.
        """
        info = self._classify(sql_text)
        self._gate(sql_text, "check_statement", info)
        prepared, est_cost, __ = self._estimate(info)
        if prepared is None:
            raise ExecutionError(
                "prepare supports only SELECT statements, got %s"
                % info.kind)
        self._gate(sql_text, "check_cost", est_cost)
        return prepared

    def run_script(self, script):
        """Execute a multi-statement script, statement by statement.

        Returns the list of :class:`SessionResult`; the first failure
        propagates (earlier statements stay applied — wrap the script in
        an :class:`~repro.engine.session.agent.AgentSession` transaction
        to make it all-or-nothing).
        """
        return [self.execute(stmt) for stmt in split_script(script)]

    # -- dry run ---------------------------------------------------------
    def dry_run(self, script):
        """Plan every statement of a script without executing anything.

        Each statement is classified, policy-checked, and — where a
        planner estimate exists (SELECT always; an extension statement
        with a feature query; INSERT from its literal rows) — costed. Returns a
        :class:`DryRunReport`. Per-statement failures are captured in
        the preview (``error``), never raised, so one bad statement
        doesn't hide the rest of the report.

        Each statement plans on the backend's pin: a statement that
        depends on earlier uncommitted DDL in the same script previews
        as an error, which is itself useful signal.
        """
        return DryRunReport(
            [self._preview(stmt) for stmt in split_script(script)])

    def _preview(self, sql_text):
        try:
            info = self._classify(sql_text)
        except EngineError as exc:
            return StatementPreview(
                sql_text, sniff_kind(sql_text), error=str(exc))
        decision = (self.policy.check_statement(info)
                    if self.policy is not None else None)
        est_cost = est_rows = error = None
        try:
            __, est_cost, est_rows = self._estimate(info)
        except EngineError as exc:
            error = str(exc)
        if decision is not None and decision.allowed:
            decision = self.policy.check_cost(est_cost)
        return StatementPreview(
            sql_text, info.kind, tables=info.tables, columns=info.columns,
            decision=decision, est_cost=est_cost, est_rows=est_rows,
            error=error,
        )

    # -- the steps of the route -------------------------------------------
    def _classify(self, sql_text, trace=None):
        trace = trace or StatementTrace()
        return classify(self.db, sql_text, self.backend.pin(trace), trace)

    def _gate(self, sql_text, check, subject):
        """One policy gate: the allowing decision, or
        :class:`PolicyError`. No policy, nothing to check."""
        if self.policy is None:
            return PolicyDecision.allow()
        return getattr(self.policy, check)(subject).raise_if_denied(sql_text)

    def _estimate(self, info):
        """``(prepared, est_cost, est_rows)`` of a classified statement,
        nothing executed. ``prepared`` is set for a native SELECT only:
        planning continues the front-end pass that classified it. An
        extension statement whose description exposed a cost-estimable
        feature query is planned for its estimate; writes cost a flat
        :data:`WRITE_STATEMENT_COST`."""
        pipeline = self.db.pipeline
        if info.source == "lowered":
            prepared = pipeline.prepare_sql(info.sql, info.front)
            return prepared, prepared.est_cost, prepared.plan.est_rows
        if info.query is not None:
            planned = pipeline.prepare_query(info.query,
                                             catalog=info.catalog)
            return None, planned.est_cost, planned.plan.est_rows
        if info.kind in WRITE_KINDS:
            return None, WRITE_STATEMENT_COST, info.row_estimate
        return None, None, None

    def _versions(self):
        return dict(self.db.catalog.version_vector())

    def _audit(self, sql_text, kind, decision, status, **fields):
        if self.audit is None:
            return None
        rule = decision.rule if decision is not None else "default"
        verdict = decision.verdict if decision is not None else "allow"
        return self.audit.record(
            sql_text, kind, verdict, rule, status,
            versions=self._versions(), **fields)

    def __repr__(self):
        gates = []
        if self.policy is not None:
            gates.append(repr(self.policy))
        if self.audit is not None:
            gates.append(repr(self.audit))
        return "SessionContext(%s%s)" % (
            type(self.backend).__name__,
            (", " + ", ".join(gates)) if gates else "")
