"""The staged query pipeline: parse → lower → plan → execute.

The AI4DB thesis is that every stage of the query lifecycle is a pluggable
learning target. :class:`QueryPipeline` makes the lifecycle explicit: each
stage is named and timed as a span of the statement's
:class:`~repro.engine.telemetry.StatementTrace`. Learned components attach
from outside, on the objects a stage reads: a rewriter rewrites the
:class:`~repro.engine.query.ConjunctiveQuery` and runs it with
:meth:`QueryPipeline.run_query` (with an explicit join ``order=`` when
the order comes from outside), an estimator is set on ``db.planner``. The one extension point on the pipeline itself is
``extensions``: statements the native parser does not own (AISQL).

Between the lower and plan stages sits a **plan cache**: an LRU map from
``(query.signature(), explicit_order)`` to the plan — built by
:meth:`~repro.engine.optimizer.planner.Planner.plan`, or bound from the
frame's generic plan — its :func:`~repro.engine.fusion.prepare_plan`
memo and the route that built it, where every entry also stores the
invalidation token it was planned under.
The token is **scoped to the tables the query touches**: the catalog's
:meth:`~repro.engine.catalog.Catalog.plan_version_vector` restricted to
the query's table set. A change that can alter a plan (CREATE/DROP
TABLE, CREATE/DROP INDEX, ANALYZE, a view registered or dropped, a
write that drops a view or takes a table's row count into a new
power-of-two band) bumps only the affected tables' plan versions, so
ANALYZE on ``orders`` drops cached plans over ``orders`` while plans
over ``customers`` keep hitting, and any other INSERT drops none: the
plan it keeps reads the new rows from the snapshot it runs on. Repeated
workload queries (the experiment harness loops, the NEO-lite learning
loop, AISQL ``PREDICT``) therefore skip join enumeration entirely;
repeated *SQL text* additionally skips parsing and lowering via a second
cache guarded by the coarser :attr:`~repro.engine.catalog.Catalog.
schema_epoch` (lowering depends only on name resolution, so inserts and
ANALYZE leave warm SQL text warm). Behind it a third cache, under the same
token, holds one lowered template per statement **shape** — the text's
:func:`~repro.engine.sql.lexer.fingerprint`, literals blanked — so new
text of a known shape binds its literals into the template's predicates
instead of being parsed and lowered. Behind the plan cache, per
**frame** of text with a shape (:func:`_frame`) and under the plan
token, sits PostgreSQL's **generic/custom plan choice**: a frame's
first :data:`CUSTOM_SAMPLES` plan-cache misses plan custom; then the
plan structure most of them share, re-costed for each sample's
literals, goes **generic** if its mean cost ratio to the custom plans
is at most :data:`GENERIC_COST_RATIO`, and each later miss binds its
literals into that one plan and its memo and re-costs it instead of
planning.

Cache-key / token invariants:

* the plan cache key is the **full** query signature (joins, predicates,
  projections, aggregates, grouping, ordering, limit, distinct) and the
  explicit join order if one was supplied — queries differing in either
  never share an entry;
* the SQL-text cache stores the lowered query's signature beside it, so
  a warm text reaches its plan without recomputing the key;
* a shape is stored only when its literals are, in text order, the
  lowered query's predicate values (:func:`_binds`), so binding rebuilds
  exactly the query parse and lower would;
* an entry hits only while its stored token equals the current one;
  planning re-reads the token after the planner runs, because planning
  itself may lazily ANALYZE a table (which bumps that table's plan
  version);
* a stale entry's token is diffed against the current one to report the
  **invalidation cause** (``table:<name>``) on the trace's ``plan`` span
  and in EXPLAIN ANALYZE;
* swapping planner internals by hand (``db.planner.estimator = ...``,
  ``db.planner.cost_model = ...``) is the one mutation the token cannot
  see — call :meth:`QueryPipeline.invalidate` after it.

Generic-plan invariants:

* only a plan-cache miss with a shape — the trace root's
  ``fingerprint`` — and no explicit join order is eligible; the
  query-object route never is. Statements share a generic plan only
  when their :func:`_frame` is equal: the signature but for predicate
  values, and each predicate slot's column, operator and value type;
* a frame's state lives under the plan token, so whatever moves it —
  ANALYZE, DDL, a write that drops a view or crosses a row-count band,
  or a lazy ANALYZE inside a sample's planning — restarts sampling,
  while any other write keeps the samples and the generic plan;
* samples are re-costed inside their own planning memos, so deciding
  asks the estimator nothing new;
* a generic plan is re-costed with one fresh memo by
  :meth:`~repro.engine.optimizer.cost.CostModel.recost`, running the
  steps compiled from the template when the shape went generic: it asks
  only what a literal can move (a SeqScan keeps the template's cost, the
  unfiltered table estimate), yet every node's estimates are what
  :meth:`~repro.engine.optimizer.cost.CostModel.annotate` gives the
  bound plan with a fresh memo;
* a generic plan is kept only while every join is the kind
  :meth:`~repro.engine.optimizer.cost.CostModel.choose_join` picks on
  those estimates, every IndexScan still beats a scan and no view
  answers the query — checked in that same pass; otherwise that one
  statement plans custom;
* a generic plan is stored in the plan cache like a custom one, and the
  entry and the ``plan`` span's ``plan_route`` name the route.

Snapshot reads: :meth:`execute_prepared`/:meth:`run_query` accept an
immutable :class:`~repro.engine.catalog.CatalogSnapshot`. Planning (and
the warm plan cache) stays shared with the live database, but execution
is pinned to the snapshot (the executor's per-run catalog) — the
``db.snapshot()`` read API.
"""

import threading
import time

from repro.common import ExecutionError, ParseError
from repro.engine.explain import ExplainResult
from repro.engine.fusion import bind_memo, bind_plan, prepare_plan
from repro.engine.plancache import PlanCache
from repro.engine.plans import IndexScan, ViewScan
from repro.engine.query import Predicate
from repro.engine.sql.ast_nodes import (
    AnalyzeStmt,
    CreateIndexStmt,
    CreateTableStmt,
    InsertStmt,
    SelectStmt,
)
from repro.engine.sql.lexer import fingerprint, literal_value
from repro.engine.sql.lowering import lower_select
from repro.engine.sql.parser import parse_sql
from repro.engine.telemetry import PLANNING_STAGES, StatementTrace

#: Pipeline stage names, in execution order.
PIPELINE_STAGES = ("parse", "lower", "plan", "execute")

#: LRU capacity of a pipeline's plan cache, its SQL-text →
#: lowered-query cache, its shape → template cache and its shape →
#: generic-plan state.
PLAN_CACHE_CAPACITY = 256

#: Custom plans a statement shape runs before a generic plan may replace
#: them, and the mean ratio of the generic plan's cost to the custom
#: plans' costs, re-estimated for their literals, up to which it does
#: (PostgreSQL's ``choose_custom_plan``).
CUSTOM_SAMPLES = 5
GENERIC_COST_RATIO = 1.10


def _head(sql_text):
    """A statement's first word, for error messages."""
    words = sql_text.split(None, 1)
    return words[0] if words else sql_text


def _binds(query, literals):
    """Whether ``literals`` are, in order, the values of ``query``'s
    predicates (equal and of the same type) — the rule for storing
    ``query`` as its shape's template."""
    if len(literals) != len(query.predicates):
        return False
    values = [literal_value(text) for text in literals]
    return all(type(p.value) is type(v) and p.value == v
               for p, v in zip(query.predicates, values))


def _bind(template, literals):
    """``template`` with the statement's literals as predicate values: a
    shallow copy (cached queries are never mutated) with new predicates."""
    query = object.__new__(type(template))
    query.__dict__.update(template.__dict__)
    query.predicates = [
        Predicate(p.table, p.column, p.op, literal_value(text))
        for p, text in zip(template.predicates, literals)
    ]
    return query


def _frame(query, sig):
    """What statements sharing one generic plan share: the signature
    without predicate values, and each predicate slot's column,
    operator and value type, in :func:`_binds` order."""
    return sig[:2], sig[3:], tuple(
        (p.table, p.column, p.op, type(p.value)) for p in query.predicates)


def _structure(plan, query):
    """``plan``'s structure — operators, join order and build sides,
    access paths (an IndexScan's probe by slot) — or ``None`` when the
    plan cannot be bound to other literals (a view answers it)."""
    slots = {id(p): i for i, p in enumerate(query.predicates)}
    out = []
    for node in plan.walk():
        if isinstance(node, ViewScan):
            return None
        out.append((type(node), getattr(node, "table", None),
                    slots[id(node.predicate)]
                    if isinstance(node, IndexScan) else None))
    return tuple(out)


class _ShapePlans:
    """One frame's plan choice under one plan token: the custom
    ``samples`` so far — ``(query, plan, memo, estimates)`` — then the
    decision: ``generic`` is the template ``(plan, memo, predicates,
    steps)`` (``steps``: its
    :meth:`~repro.engine.optimizer.cost.CostModel.recost_steps`), or
    ``False`` to stay custom."""

    __slots__ = ("samples", "generic")

    def __init__(self):
        self.samples = []
        self.generic = None


def _invalidation_cause(stale, current):
    """Name the table whose plan version invalidated a cached plan:
    ``"table:<name>"``, the first name at which the stale and current
    vectors differ."""
    old, new = dict(stale), dict(current)
    for name in sorted(set(old) | set(new)):
        if old.get(name) != new.get(name):
            return "table:%s" % name


class PreparedQuery:
    """A planned-but-not-executed SELECT: the admission-control handle.

    Produced by :meth:`QueryPipeline.prepare_sql` /
    :meth:`QueryPipeline.prepare_query`: parsing, lowering and planning
    have run (through the shared SQL-text and plan caches), but
    nothing has executed. The serving layer plans first, charges the
    plan's cost estimate against the tenant's quota, and only then calls
    :meth:`QueryPipeline.execute_prepared` — pinned to the session's
    snapshot — without a second trip through the planner.

    ``trace`` is the trace of the statement that planned it (its first
    execution lands there; a later one forks it — see
    :meth:`~repro.engine.telemetry.StatementTrace.fork`); ``memo`` is the
    plan's :func:`~repro.engine.fusion.prepare_plan` tuple, from the
    plan-cache entry, which every execution reuses.
    """

    __slots__ = ("sql", "query", "plan", "trace", "memo")

    def __init__(self, sql, query, plan, trace, memo):
        self.sql = sql
        self.query = query
        self.plan = plan
        self.trace = trace
        self.memo = memo

    @property
    def est_cost(self):
        """The planner's cost estimate for the whole plan (floor 1.0).

        The admission currency: comparable to the executor's measured
        ``work`` by construction (same formulas, estimated vs. actual
        cardinalities), so quota charges settle against the run's
        ``total_work`` in the same unit.
        """
        root = self.plan
        for value in (root.est_cost, root.est_rows):
            if value is not None:
                return max(1.0, float(value))
        return 1.0

    def __repr__(self):
        return "PreparedQuery(est_cost=%.1f, cache_hit=%r)" % (
            self.est_cost, self.trace.cache_hit,
        )


class QueryPipeline:
    """The staged query lifecycle of one :class:`Database`.

    Args:
        database: the owning :class:`~repro.engine.database.Database`
            (supplies catalog, planner, executor).

    ``extensions`` is the one extension point: objects with
    ``describe(db, sql_text) -> dict or None`` and ``run(db, sql_text)``.
    An extension claims a statement by describing it (kind, tables,
    columns, and optionally a cost-estimable feature query) without
    executing it; the session layer's :func:`~repro.engine.session.
    context.classify` asks every extension before the native front end,
    and a claimed statement is executed by its extension's ``run`` (the
    AISQL layer lives here). A statement no extension claims is native.

    Every run is timed per stage; :meth:`stats` reports the cumulative
    planning-vs-execution split plus plan-cache hit/miss counters.
    """

    def __init__(self, database):
        self.db = database
        self.extensions = []
        self.plan_cache = PlanCache(PLAN_CACHE_CAPACITY)
        self.query_cache = PlanCache(PLAN_CACHE_CAPACITY)
        self.shape_cache = PlanCache(PLAN_CACHE_CAPACITY)
        self.shape_plans = PlanCache(PLAN_CACHE_CAPACITY)
        self._runs = 0
        self._stats_lock = threading.Lock()
        self._sample_lock = threading.Lock()
        self._stage_totals = {
            stage: {"count": 0, "seconds": 0.0} for stage in PIPELINE_STAGES
        }
        self._routes = {"custom": 0, "generic": 0}
        self._fallbacks = 0

    # -- entry points ------------------------------------------------------
    def run_query(self, query, order=None, snapshot=None):
        """Run a structured :class:`ConjunctiveQuery` (plan → execute),
        optionally under an explicit left-deep join ``order`` and/or
        pinned to a ``snapshot``."""
        return self.execute_prepared(
            self.prepare_query(query, order=order), snapshot=snapshot
        )

    def prepare_sql(self, sql_text, front=None):
        """Plan a SELECT through the caches without executing it.

        Returns a :class:`PreparedQuery` carrying the lowered query, the
        physical plan, the statement's trace so far, and the plan's cost
        estimate. Only SELECT is accepted — preparation exists for the
        read path, where gates and admission control must see the cost
        estimate *before* execution.

        ``front`` is the ``(query, trace, signature)`` of a :meth:`front_end`
        pass the caller already made over this text (the session layer
        classifies and gates a statement between the front end and the
        plan stage); planning continues that pass — and that trace —
        instead of starting a second one. :meth:`explain` and
        :meth:`explain_analyze` take the same continuation.
        """
        query, trace, sig = front or self._select_query(
            sql_text, "prepare_sql", ExecutionError
        )
        return self._prepare(sql_text, query, trace, sig=sig)

    def lower_sql(self, sql_text):
        """Parse + lower a SELECT to its :class:`ConjunctiveQuery`.

        Shares the SQL-text cache with every other entry point (same
        ``schema_epoch`` token). Only SELECT lowers; anything else
        raises :class:`~repro.common.ParseError`.
        """
        return self._select_query(sql_text, "lower_sql")[0]

    def prepare_query(self, query, order=None):
        """Plan a structured :class:`ConjunctiveQuery` without executing.

        The query-object twin of :meth:`prepare_sql` (plan via the shared
        plan cache); returns a :class:`PreparedQuery`.
        """
        return self._prepare(None, query, StatementTrace(), order=order)

    def front_end(self, sql_text, trace=None):
        """Parse → lower through the SQL-text and shape caches:
        ``(query, stmt, trace, signature)``.

        The one front end behind every SQL entry point, so the caches
        apply to all of them alike. A SELECT comes back lowered (``stmt``
        is ``None``); any other statement comes back parsed (``query`` is
        ``None``). ``trace`` is the statement's
        :class:`~repro.engine.telemetry.StatementTrace` — the caller's
        when the statement entered above the pipeline, a fresh one
        otherwise — now holding the ``parse``/``lower`` spans, and handed
        on to whatever stages run next.

        Three routes, named by the ``lower`` span's ``front`` attribute:
        ``"text"`` — the text was seen before; ``"shape"`` — its
        fingerprint was, and its literals are bound into that shape's
        template; ``"parse"`` — parse and lower, then store the text
        and, when the literals bind (:func:`_binds`), the shape. The
        root span carries the ``fingerprint``. Both caches take the
        coarse ``schema_epoch`` as token, not the full version vector —
        lowering depends only on name resolution, so inserts/ANALYZE
        keep warm SQL text warm. A text entry also stores the lowered
        query's ``signature()``, the plan-cache key (``signature`` is
        ``None`` for a non-SELECT), and its shape.
        """
        if trace is None:
            trace = StatementTrace()
        root = trace.root
        schema_epoch = self.db.catalog.schema_epoch
        t0 = time.perf_counter()
        hit = self.query_cache.get(sql_text, schema_epoch)
        if hit is not None:
            query, sig, shape = hit
            root.attrs["fingerprint"] = shape
            lower = root.child("lower", t0)
            lower.attrs["front"] = "text"
            lower.close()
            return query, None, trace, sig
        shape, literals = fingerprint(sql_text)
        root.attrs["fingerprint"] = shape
        template = (None if shape is None
                    else self.shape_cache.get(shape, schema_epoch))
        if template is not None:
            with root.child("lower", t0) as lower:
                lower.attrs["front"] = "shape"
                query = _bind(template, literals)
                sig = query.signature()
                self.query_cache.put(sql_text, (query, sig, shape),
                                     schema_epoch)
            return query, None, trace, sig
        with root.child("parse", t0):
            stmt = parse_sql(sql_text)
        if not isinstance(stmt, SelectStmt):
            return None, stmt, trace, None
        with root.child("lower") as lower:
            lower.attrs["front"] = "parse"
            query = lower_select(stmt, self.db.catalog)
            sig = query.signature()
            self.query_cache.put(sql_text, (query, sig, shape), schema_epoch)
            if shape is not None and _binds(query, literals):
                self.shape_cache.put(shape, query, schema_epoch)
        return query, None, trace, sig

    def _select_query(self, sql_text, what, error=ParseError):
        """:meth:`front_end` for the read-only entry points: ``(query,
        trace, signature)``, or ``error`` naming ``what`` when the
        statement is not a SELECT."""
        query, __, trace, sig = self.front_end(sql_text)
        if query is None:
            raise error(
                "%s supports only SELECT statements, got %r"
                % (what, _head(sql_text))
            )
        return query, trace, sig

    def _prepare(self, sql_text, query, trace, order=None, sig=None):
        plan, memo, __ = self._plan(query, trace, order=order, sig=sig)
        return PreparedQuery(sql_text, query, plan, trace, memo)

    def execute_prepared(self, prepared, snapshot=None):
        """Execute a :class:`PreparedQuery`, optionally pinned to a
        :class:`~repro.engine.catalog.CatalogSnapshot`.

        The execution half of every SELECT — embedded, snapshot, server,
        EXPLAIN ANALYZE: the plan was already produced (and, on the
        serving path, its cost estimate charged against a quota), so this
        runs exactly that plan — against the live catalog, or the pinned
        snapshot — then accumulates stats. Executing the same prepared
        query again is a new statement: its trace shares the planning
        spans and only its own ``execute`` is accumulated.
        """
        trace = prepared.trace
        if trace.execute is not None:
            trace = trace.fork()
        result = self.db.executor.execute(
            prepared.plan, catalog=snapshot, trace=trace, memo=prepared.memo
        )
        trace.root.close()
        self._accumulate(trace)
        return result

    def explain(self, sql_text, front=None):
        """Plan a SELECT (through the cache) without executing it.

        Returns an :class:`ExplainResult`; its ``str()`` is the plan
        text, and ``fused_ops`` previews what the executor's fusion pass
        will collapse at execution time. ``front``: as for
        :meth:`prepare_sql`.
        """
        query, trace, sig = front or self._select_query(sql_text, "EXPLAIN")
        prepared = self._prepare(sql_text, query, trace, sig=sig)
        trace.root.close()
        self._accumulate(trace)
        return ExplainResult(prepared.plan, trace)

    def explain_analyze(self, sql_text, front=None):
        """Execute a SELECT and render est-vs-actual rows per plan node.

        The EXPLAIN-ANALYZE view: the query runs for real (the same
        :meth:`prepare_sql` → :meth:`execute_prepared` route as every
        SELECT), and the returned :class:`ExplainResult` renders each
        node of the unfused plan with its estimated rows,
        executor-counted actual rows, and q-error. ``result`` carries
        the run's :class:`~repro.engine.executor.ExecutionResult` (rows
        included). ``front``: as for :meth:`prepare_sql`.
        """
        query, trace, sig = front or self._select_query(
            sql_text, "EXPLAIN ANALYZE")
        prepared = self._prepare(sql_text, query, trace, sig=sig)
        result = self.execute_prepared(prepared)
        return ExplainResult(prepared.plan, trace, result)

    # -- stages ------------------------------------------------------------
    def _plan_token(self, query):
        """The plan caches' invalidation token for ``query``: the
        catalog's plan-version vector restricted to the query's tables,
        so only a change that can alter a plan over one of *these*
        tables moves it."""
        return self.db.catalog.plan_version_vector(query.tables)

    def _plan(self, query, trace, order=None, sig=None):
        """The plan stage: ``(plan, memo, route)`` for ``query``.

        One plan-cache lookup under key ``(signature, order)``; on a miss
        a statement with a shape (the trace root's ``fingerprint``) and
        no explicit order takes :meth:`_shape_plan`, and any other
        :meth:`~repro.engine.optimizer.planner.Planner.plan`. The entry
        is stored with its :func:`~repro.engine.fusion.prepare_plan`
        memo and the ``route`` that built it. The ``plan`` span reports
        the cache outcome and the route. ``sig``: ``query.signature()``
        when the caller holds it.
        """
        with trace.root.child("plan") as span:
            if sig is None:
                sig = query.signature()
            key = (sig, None if order is None
                   else tuple(t.lower() for t in order))
            token = self._plan_token(query)
            entry, outcome, stale = self.plan_cache.lookup(key, token)
            if entry is None:
                shaped = (order is None
                          and trace.root.attrs.get("fingerprint") is not None)
                entry = (self._shape_plan(query, sig, token) if shaped
                         else self._custom(query, order))
                # Re-read the token: planning may lazily ANALYZE (a
                # version bump), and the entry must match the state it
                # was built from.
                self.plan_cache.put(key, entry, self._plan_token(query))
            span.attrs.update(
                cache_outcome=outcome,
                invalidation_cause=(
                    _invalidation_cause(stale, token)
                    if outcome == "invalidated" else None),
                plan_versions=token,
                plan_route=entry[2],
            )
        return entry

    def _custom(self, query, order=None, memo=None):
        plan = self.db.planner.plan(query, order=order, memo=memo)
        return plan, prepare_plan(plan), "custom"

    def _shape_plan(self, query, sig, token):
        """A plan-cache miss of a statement with a shape: custom or
        generic, chosen per :func:`_frame` under the plan ``token``.

        The first :data:`CUSTOM_SAMPLES` statements of a frame plan
        custom, each keeping its estimate memo; then :meth:`_decide`
        picks generic or custom for the frame until the token moves. A
        generic statement binds the frame's template plan and memo to its
        predicates, re-costs the bound plan by the template's compiled
        steps and keeps it if the planner's local choices still hold on
        those costs — otherwise it plans custom. The generic route never
        calls the planner.
        """
        frame = _frame(query, sig)
        state = self.shape_plans.get(frame, token)
        if state is None:
            state = _ShapePlans()
            self.shape_plans.put(frame, state, token)
        generic = state.generic
        if generic is None:
            # A sample whose planning moved the token (a lazy ANALYZE)
            # lands in a state the next lookup drops.
            estimates = self.db.planner.estimator.planning_scope(query)
            entry = self._custom(query, memo=estimates)
            with self._sample_lock:
                if state.generic is None:
                    state.samples.append(
                        (query, entry[0], entry[1], estimates))
                    if len(state.samples) == CUSTOM_SAMPLES:
                        state.generic = self._decide(state.samples)
                        state.samples = None
            return entry
        if generic is False:
            return self._custom(query)
        template, memo, predicates, steps = generic
        predicates = dict(zip(map(id, predicates), query.predicates))
        done = {}
        plan = bind_plan(template, predicates, done)
        planner, catalog = self.db.planner, self.db.catalog
        if ((planner.use_views and catalog.matching_view(query) is not None)
                or planner.cost_model.recost(
                    steps, done, planner.estimator.planning_scope(query),
                    query, lambda t: max(1.0, float(catalog.table(t).n_rows)))
                is None):
            with self._stats_lock:
                self._fallbacks += 1
            return self._custom(query)
        return plan, bind_memo(memo, predicates, done), "generic"

    def _decide(self, samples):
        """The generic template for a frame's custom ``samples``, or
        ``False`` to stay custom: the plan structure most samples share,
        re-costed for each sample's literals inside that sample's own
        estimate memo (so no estimate is asked twice), goes generic when
        its mean cost ratio to the sample's custom plan is at most
        :data:`GENERIC_COST_RATIO`."""
        shapes = [_structure(plan, query) for query, plan, __, __ in samples]
        best = max(shapes, key=shapes.count)
        if best is None:
            return False
        query, template, memo, __ = samples[shapes.index(best)]
        model = self.db.planner.cost_model
        ratio = 0.0
        for other, custom, __, estimates in samples:
            bound = bind_plan(template, dict(zip(
                map(id, query.predicates), other.predicates)), {})
            cost = model.annotate(bound, estimates, other)
            ratio += max(cost, 1.0) / max(custom.est_cost, 1.0)
        if ratio / len(samples) > GENERIC_COST_RATIO:
            return False
        return (template, memo, query.predicates,
                model.recost_steps(template, query))

    def run_statement(self, stmt, trace):
        """Execute a parsed DDL/DML/ANALYZE statement against the catalog.

        The write-side continuation of a :meth:`front_end` pass, as
        :meth:`prepare_sql` is the read side's: ``stmt`` and ``trace``
        are what that pass returned, so the statement is parsed and
        timed once. Returns the status string.
        """
        with trace.root.child("execute"):
            if isinstance(stmt, CreateTableStmt):
                self.db.catalog.create_table(stmt.name, stmt.columns)
                status = "CREATE TABLE"
            elif isinstance(stmt, CreateIndexStmt):
                self.db.catalog.create_index(
                    stmt.name, stmt.table, stmt.column, kind=stmt.kind,
                    hypothetical=stmt.hypothetical,
                )
                status = "CREATE INDEX"
            elif isinstance(stmt, InsertStmt):
                status = "INSERT %d" % self._insert(stmt)
            elif isinstance(stmt, AnalyzeStmt):
                self.db.catalog.analyze(stmt.table)
                status = "ANALYZE"
            else:
                raise ParseError("unhandled statement %r" % (stmt,))
        trace.root.close()
        self._accumulate(trace)
        return status

    def _insert(self, stmt):
        table = self.db.catalog.table(stmt.table)
        rows = stmt.rows
        if stmt.columns:
            positions = [table.schema.column_index(c) for c in stmt.columns]
            for i, pos in enumerate(positions):
                if pos in positions[:i]:
                    raise ParseError("column %r specified more than once"
                                     % stmt.columns[i])
            width = len(table.schema.columns)
            reordered = []
            for r in rows:
                if len(r) != len(positions):
                    raise ParseError(
                        "INSERT row width %d != column list width %d"
                        % (len(r), len(positions))
                    )
                full = [None] * width
                for pos, v in zip(positions, r):
                    full[pos] = v
                reordered.append(full)
            rows = reordered
        return table.insert_rows(rows)

    # -- aggregate ---------------------------------------------------------
    def _accumulate(self, trace):
        """Add one statement's stage spans to the totals — only the ones
        it added itself (a forked trace's shared planning was counted
        with the statement that planned)."""
        with self._stats_lock:
            self._runs += 1
            for span in trace.root.children[trace.shared:]:
                entry = self._stage_totals.get(span.name)
                if entry is not None:
                    entry["count"] += 1
                    entry["seconds"] += span.seconds
                if span.name == "plan":
                    self._routes[span.attrs["plan_route"]] += 1

    def stats(self):
        """Cumulative pipeline statistics since the last :meth:`reset_stats`.

        Returns a JSON-friendly dict with the run count, per-stage
        count/seconds, the planning-vs-execution wall-time split, the
        plan/query/shape cache counters, the statements planned per
        ``plan_routes`` (a plan-cache hit counts under the route that
        built the entry), and ``generic_plans``: the generic statements'
        guard ``fallbacks`` to a custom plan and the cached ``shapes``
        now generic.
        """
        with self._stats_lock:
            runs = self._runs
            stages = {
                stage: dict(entry)
                for stage, entry in self._stage_totals.items()
            }
            routes = dict(self._routes)
            fallbacks = self._fallbacks
        return {
            "runs": runs,
            "stages": {k: v for k, v in stages.items() if v["count"]},
            "planning_seconds": sum(
                stages[s]["seconds"] for s in PLANNING_STAGES
            ),
            "execution_seconds": stages["execute"]["seconds"],
            "plan_cache": self.plan_cache.stats(),
            "query_cache": self.query_cache.stats(),
            "shape_cache": self.shape_cache.stats(),
            "plan_routes": routes,
            "generic_plans": {
                "fallbacks": fallbacks,
                "shapes": sum(1 for state in self.shape_plans.values()
                              if state.generic),
            },
        }

    def reset_stats(self):
        """Zero stage timings and cache counters (cache entries are kept)."""
        with self._stats_lock:
            self._runs = 0
            for entry in self._stage_totals.values():
                entry["count"] = 0
                entry["seconds"] = 0.0
            self._routes = dict.fromkeys(self._routes, 0)
            self._fallbacks = 0
        self.plan_cache.reset_counters()
        self.query_cache.reset_counters()
        self.shape_cache.reset_counters()

    def invalidate(self):
        """Drop every cached plan, lowered query, shape template and
        generic-plan state.

        Needed only for mutations the catalog's plan versions cannot
        observe, such as swapping ``db.planner.estimator`` in place, or
        an installed estimator that reads live rows wanting its plans
        refreshed between ANALYZEs.
        """
        self.plan_cache.clear()
        self.query_cache.clear()
        self.shape_cache.clear()
        self.shape_plans.clear()

    def __repr__(self):
        return "QueryPipeline(runs=%d, %r)" % (self._runs, self.plan_cache)
