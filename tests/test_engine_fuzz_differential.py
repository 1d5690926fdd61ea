"""Randomized differential query fuzzer: the engine against two oracles.

A seeded generator produces random catalogs (2–4 tables with INT/FLOAT/
TEXT and nullable-TEXT columns, indexes on a seeded subset of
the non-nullable ones) and random conjunctive queries over them
(equi-joins, predicates, GROUP BY, aggregates, ORDER BY, LIMIT — including
LIMIT 0 — and DISTINCT). The engine has one executor cell (columnar,
always fused); every query is judged against:

* the **reference executor** (``tests/reference_executor.py``): the
  tuple-at-a-time specification, handed the *same physical plan* —
  identical rows in identical order (floats bit for bit: both fold
  SUM/AVG left to right in row order), bit-identical ``work`` and
  ``operator_work`` (the invariant
  the cost-gap experiments rely on), and identical per-operator
  **actual_rows** (preorder over the unfused plan — fused pipelines must
  attribute counts to the original nodes they replace);
* **SQLite** (stdlib ``sqlite3``), the oracle that is not us: the same
  catalog loaded into an in-memory database, the query rendered to SQL
  *text* that both dialects accept, row multisets compared with float
  tolerance, the sort-key sequence under ORDER BY, and LIMIT as a count
  plus membership in the un-limited multiset. The text goes through
  ``db.execute`` too, so the parser/lowering route is raced against the
  query-object route on every case.

Each case also asserts cold vs. warm plan cache parity (the second run
must be a cache hit and observationally identical) and encoded-segment
storage vs a plain-encoding twin database (small ``segment_rows`` so
every table seals several row groups): rows, order, ``work`` and per-node
counts must be bit-identical — zone-map pruning and encoded-space
predicate evaluation are pure optimizations.

Everything is deterministic: catalogs and queries derive from fixed seeds,
so a failure reproduces with its printed ``(catalog_seed, case_index)``.
``REPRO_FUZZ_CASES`` scales the number of generated cases (default ~200;
``make fuzz`` raises it).

Value-generation rules that keep the oracles honest (engine-level NULL
contracts, see DESIGN.md "NULL contract"): INT/FLOAT columns are never
NULL (int64 arrays cannot hold None; float NaN breaks equality), so NULLs
live in a dedicated nullable TEXT column, which *is* exercised as a
group-by / distinct key. Predicates, sort keys, join keys and aggregate
arguments stick to non-nullable columns — where the engine's two-valued
comparisons and SQL's three-valued ones agree. Where they do not is
pinned, case by case, in :data:`KNOWN_NULL_DIVERGENCES` below.
"""

import copy
import os
import random
import re
import sqlite3
import threading
from collections import Counter

import pytest

from reference_executor import (
    ReferenceExecutor,
    approx_equal_rows,
    assert_matches_reference,
    node_counts,
    reference_database,
    same_rows,
)
from repro.ai4db.optimization import greedy_order, random_order, ues_order
from repro.engine import Database
from repro.engine.plans import IndexScan, ViewScan
from repro.engine.query import Aggregate, ConjunctiveQuery, JoinEdge, Predicate
from repro.engine.sql.lexer import fingerprint, literal_value
from repro.engine.sql.lowering import lower_select
from repro.engine.sql.parser import parse_sql

#: Total fuzz budget, split across catalog seeds.
N_CASES = int(os.environ.get("REPRO_FUZZ_CASES", "200"))
CATALOG_SEEDS = list(range(8))
CASES_PER_CATALOG = max(1, N_CASES // len(CATALOG_SEEDS))

#: Campaign seed (``REPRO_SEED``): offset into the query-stream rngs, so
#: one variable diversifies the whole campaign while the default stays
#: byte-reproducible.
FUZZ_SEED = int(os.environ.get("REPRO_SEED", "0"))

#: Small segments so every fuzz table seals multiple row groups and the
#: zone-map/encoding machinery is exercised by every case.
SEGMENT_ROWS = 32

AGG_FUNCS = ("count", "sum", "avg", "min", "max")
CMP_OPS = ("=", "!=", "<", "<=", ">", ">=")
#: Every fuzz table's columns, in schema order.
COLUMNS = ("id", "k", "v", "tag", "ntag")
#: Columns ``_build_db`` may index (never the nullable ``ntag``).
INDEXABLE = ("id", "k", "v", "tag")


# ----------------------------------------------------------------------
# Random catalog + query generation (pure functions of the seed)
# ----------------------------------------------------------------------
def _make_schema(rng):
    """Random table specs: name -> (n_rows, k_domain)."""
    n_tables = rng.randint(2, 4)
    return {
        "t%d" % i: (rng.randint(40, 150), rng.randint(3, 12))
        for i in range(n_tables)
    }


def _build_db(seed, make=Database, **knobs):
    """One seeded database; ``make`` picks the executor behind it
    (``reference_database`` for a twin on the reference)."""
    db = make(segment_rows=SEGMENT_ROWS, **knobs)
    rng = random.Random(seed)
    schema = _make_schema(rng)
    for name, (n_rows, k_domain) in schema.items():
        db.execute(
            "CREATE TABLE %s (id INT, k INT, v FLOAT, tag TEXT, ntag TEXT)"
            % name
        )
        rows = []
        for i in range(n_rows):
            rows.append((
                i,
                rng.randrange(k_domain),
                round(rng.uniform(-10.0, 10.0), 6),
                "tag%d" % rng.randrange(5),
                None if rng.random() < 0.3 else "n%d" % rng.randrange(3),
            ))
        db.catalog.table(name).insert_rows(rows)
    # Indexes on a seeded subset of the non-nullable columns (drawn after
    # every row, so the data is what it was without them): the planner
    # picks IndexScan where it is cheaper, and that route is raced too.
    for name in schema:
        for column in INDEXABLE:
            if rng.random() < 0.4:
                # Both spellings of the one index kind, one two-way draw
                # per index, so the rng stream and every seeded catalog
                # stay put.
                db.execute("CREATE INDEX %s_%s ON %s (%s)%s" % (
                    name, column, name, column,
                    rng.choice(("", " USING btree"))))
    db.execute("ANALYZE")
    return db, sorted(schema)


def _random_query(rng, tables, star=False):
    """One random conjunctive query over a connected subset of ``tables``.

    Joins also filter on a column outside the select list (an IndexScan
    residual when the column is indexed), and with ``star`` some are
    ``SELECT *`` — so a scan whose read set drops a column the plan
    reads fails the case. ``SELECT *`` columns follow the plan's join
    order, so only callers comparing one plan's output set ``star``.
    """
    n = rng.randint(1, min(3, len(tables)))
    chosen = rng.sample(tables, n)
    edges = []
    for prev, nxt in zip(chosen, chosen[1:]):
        col = rng.choice(["k", "id"])
        edges.append(JoinEdge(prev, col, nxt, col))
    predicates = []
    for __ in range(rng.randint(0, 2)):
        t = rng.choice(chosen)
        col, value = rng.choice([
            ("k", rng.randrange(12)),
            ("v", round(rng.uniform(-8.0, 8.0), 3)),
            ("id", rng.randrange(150)),
            ("tag", "tag%d" % rng.randrange(5)),
        ])
        predicates.append(Predicate(t, col, rng.choice(CMP_OPS), value))
    shape = rng.random()
    group_by, aggregates, projections = [], [], []
    order_by, limit, distinct = None, None, False
    if shape < 0.4:
        # Aggregation query; ~half the time grouped, sometimes on the
        # nullable column (the latent all-NULL-group-key class), and
        # sometimes on a TEXT key plus an INT key (codes read from the
        # segment dictionaries combined with codes of values).
        if rng.random() < 0.75:
            t = rng.choice(chosen)
            keys = rng.choice(["k", "tag", "ntag", "ntag", "tag,k", "ntag,k"])
            group_by.extend((t, key) for key in keys.split(","))
        for __ in range(rng.randint(1, 3)):
            func = rng.choice(AGG_FUNCS)
            if func == "count":
                aggregates.append(Aggregate("count"))
            else:
                t = rng.choice(chosen)
                col = rng.choice(["k", "v", "id"])
                aggregates.append(Aggregate(func, t, col))
    elif star and n > 1 and rng.random() < 0.25:
        # SELECT *: no Project narrows the join, every column is read.
        if rng.random() < 0.5:
            order_by = ((rng.choice(chosen), rng.choice(["id", "k", "v"])),
                        rng.random() < 0.5)
        if rng.random() < 0.35:
            limit = rng.choice([0, 1, 3, 10, 500])
    else:
        # Projection query over 1–3 random columns; DISTINCT may include
        # the nullable column.
        for __ in range(rng.randint(1, 3)):
            t = rng.choice(chosen)
            projections.append((t, rng.choice(["id", "k", "v", "tag", "ntag"])))
        distinct = rng.random() < 0.4
        if rng.random() < 0.5:
            t, col = rng.choice(projections)
            if col != "ntag":  # sort keys must be totally ordered
                order_by = ((t, col), rng.random() < 0.5)
        if rng.random() < 0.35:
            limit = rng.choice([0, 1, 3, 10, 500])
        if n > 1:
            t = rng.choice(chosen)
            unread = [c for c in INDEXABLE if (t, c) not in projections]
            col = rng.choice(unread)
            value = {"id": rng.randrange(150), "k": rng.randrange(12),
                     "v": round(rng.uniform(-8.0, 8.0), 3),
                     "tag": "tag%d" % rng.randrange(5)}[col]
            predicates.append(Predicate(t, col, rng.choice(CMP_OPS), value))
    return ConjunctiveQuery(
        tables=chosen,
        join_edges=edges,
        predicates=predicates,
        projections=projections,
        aggregates=aggregates,
        group_by=group_by,
        order_by=order_by,
        limit=limit,
        distinct=distinct,
    )


# ----------------------------------------------------------------------
# The SQLite oracle: same catalog, same SQL text, an engine that is not us
# ----------------------------------------------------------------------
def _sqlite_twin(db, tables):
    """``db``'s tables loaded into an in-memory SQLite database."""
    lite = sqlite3.connect(":memory:")
    for name in tables:
        lite.execute(
            "CREATE TABLE %s (id INTEGER, k INTEGER, v REAL, tag TEXT, "
            "ntag TEXT)" % name)
        lite.executemany(
            "INSERT INTO %s VALUES (?, ?, ?, ?, ?)" % name,
            db.catalog.table(name).rows(),
        )
    return lite


def _render_sql(query, limit=True):
    """``query`` as SQL text both the engine and SQLite accept.

    The engine's dialect is a strict subset of SQLite's. Group keys lead
    the select list because the engine always returns them first.
    """
    items = ["%s.%s" % tc for tc in query.group_by or query.projections]
    for agg in query.aggregates:
        items.append(
            "COUNT(*)" if agg.column is None
            else "%s(%s.%s)" % (agg.func.upper(), agg.table, agg.column)
        )
    sql = "SELECT %s%s FROM %s" % (
        "DISTINCT " if query.distinct else "", ", ".join(items) or "*",
        ", ".join(query.tables),
    )
    where = [
        "%s.%s = %s.%s" % (e.left_table, e.left_column,
                           e.right_table, e.right_column)
        for e in query.join_edges
    ] + [
        "%s.%s %s %r" % (p.table, p.column, p.op, p.value)
        for p in query.predicates
    ]
    if where:
        sql += " WHERE " + " AND ".join(where)
    if query.group_by:
        sql += " GROUP BY " + ", ".join("%s.%s" % tc for tc in query.group_by)
    if query.order_by is not None:
        (t, c), descending = query.order_by
        sql += " ORDER BY %s.%s%s" % (t, c, " DESC" if descending else "")
    if limit and query.limit is not None:
        sql += " LIMIT %d" % query.limit
    return sql


def _null_safe(row):
    """Sort key giving rows with NULLs a total order. Floats are compared
    only where they are exact in both engines: projected values tie-break
    bit for bit, and aggregate rows differ on their group key first."""
    return tuple((x is not None, 0 if x is None else x) for x in row)


def _assert_matches_sqlite(lite, query, sql, result, label):
    """The engine's answer to ``sql`` (``query`` rendered) against SQLite's.

    Unordered output is a multiset (compared sorted, floats with the
    usual fold-order tolerance); ORDER BY additionally fixes the sequence
    of sort-key values (ties may legitimately permute the other columns);
    LIMIT n is a pick-any-n contract, so a limited answer must have
    SQLite's row count and be drawn from the un-limited multiset (exact:
    only projections carry a LIMIT, and they fold nothing). Under
    ``SELECT *`` the engine's columns follow its join order, SQLite's
    the FROM list: the engine's rows are compared in SQLite's order.
    """
    shown = query.projections
    engine_rows = result.rows
    if not (shown or query.aggregates or query.group_by):
        shown = [(t, c) for t in query.tables for c in COLUMNS]
        pos = [result.columns.index(tc) for tc in shown]
        engine_rows = [tuple(r[p] for p in pos) for r in engine_rows]
    theirs = lite.execute(sql).fetchall()
    if query.limit is None:
        assert approx_equal_rows(sorted(engine_rows, key=_null_safe),
                                 sorted(theirs, key=_null_safe)), (
            "%s: rows diverge from SQLite\nsql=%s\nsqlite=%r\nengine=%r"
            % (label, sql, theirs[:10], engine_rows[:10])
        )
    else:
        assert len(engine_rows) == len(theirs), (label, sql)
        extra = Counter(engine_rows) - Counter(
            lite.execute(_render_sql(query, limit=False)).fetchall())
        assert not extra, (
            "%s: LIMIT returned rows SQLite's un-limited answer lacks\n"
            "sql=%s\nextra=%r" % (label, sql, extra)
        )
    if query.order_by is not None:
        pos = shown.index(query.order_by[0])
        assert [r[pos] for r in engine_rows] == [r[pos] for r in theirs], (
            "%s: sort-key sequence diverges from SQLite\nsql=%s"
            % (label, sql)
        )


# ----------------------------------------------------------------------
# The fuzz loop
# ----------------------------------------------------------------------
@pytest.mark.parametrize("catalog_seed", CATALOG_SEEDS)
def test_fuzz_differential(catalog_seed):
    db, tables = _build_db(catalog_seed)
    # Same segment boundaries in the plain-encoding twin, so even float
    # aggregation is bit-identical — compared exactly, not approximately.
    plain_db, __ = _build_db(catalog_seed, segment_encodings=("plain",))
    reference = ReferenceExecutor(db.catalog, db.cost_model)
    lite = _sqlite_twin(db, tables)
    rng = random.Random(10_000 + catalog_seed + 1_000_003 * FUZZ_SEED)
    for case in range(CASES_PER_CATALOG):
        query = _random_query(rng, tables, star=True)
        label = "catalog_seed=%d case=%d query=%r" % (
            catalog_seed, case, query
        )
        cold = db.run_query_object(query)
        warm = db.run_query_object(query)
        # Cold vs. warm: second run must hit the plan cache and be
        # observationally identical (same executor => exact equality).
        assert warm.trace.cache_hit is True, label
        assert warm.rows == cold.rows, label
        assert warm.work == cold.work, label
        assert warm.operator_work == cold.operator_work, label
        # The specification, on the very plan the engine just ran.
        plan = db.pipeline.prepare_query(query).plan
        assert_matches_reference(cold, reference.execute(plan), label)
        # Encoded segments vs a plain-encoding twin: rows, order, work,
        # per-node counts, exactly.
        plain = plain_db.run_query_object(query)
        assert plain.columns == cold.columns, label
        assert plain.rows == cold.rows, (
            "%s: encoded vs plain rows diverge\nplain=%r\nencoded=%r"
            % (label, plain.rows[:10], cold.rows[:10])
        )
        assert plain.work == cold.work, label
        assert plain.operator_work == cold.operator_work, label
        assert node_counts(plain) == node_counts(cold), label
        # The oracle that is not us — and the text route, which must be
        # the object route by another door.
        sql = _render_sql(query)
        text = db.execute(sql)
        assert text.rows == cold.rows, (
            "%s: SQL text and query object disagree\nsql=%s\ntext=%r\n"
            "object=%r" % (label, sql, text.rows[:10], cold.rows[:10])
        )
        _assert_matches_sqlite(lite, query, sql, cold, label)


# ----------------------------------------------------------------------
# Shape route: a statement bound into its shape's template is the query
# parse and lower would have built
# ----------------------------------------------------------------------
SHAPE_ROUTE_SEEDS = (0, 1, 2, 3)
SHAPE_ROUTE_CASES = max(10, N_CASES // len(SHAPE_ROUTE_SEEDS))
#: Literals a slot may be redrawn to beyond the random ones: escaped and
#: comment-like strings, every number spelling the lexer reads, and a
#: malformed one.
ODD_LITERALS = ("'it''s'", "'--'", "''''", "'a''--''b'", "''", "'5'",
                "1e5", "1E-2", "+5", "-5", "5.", "007", "-0.0", "1e+")


def _redraw(rng, lexeme):
    """Another literal for the slot holding ``lexeme``: the same kind,
    the other kind, a sign flip, int <-> float, or an odd spelling."""
    value = literal_value(lexeme)
    draw = rng.randrange(5)
    if draw == 0:  # same kind
        if isinstance(value, str):
            return "'tag%d'" % rng.randrange(6)
        if isinstance(value, int):
            return str(rng.randrange(-20, 160))
        return repr(round(rng.uniform(-9.0, 9.0), 3))
    if draw == 1:  # the other kind
        if isinstance(value, str):
            return rng.choice((str(rng.randrange(12)), "2.5"))
        return rng.choice(("'tag1'", "'%s'" % lexeme))
    if draw == 2 and not isinstance(value, str):  # sign flip
        return rng.choice("+-") + lexeme.lstrip("+-")
    if draw == 3 and not isinstance(value, str):  # int <-> float
        if isinstance(value, int):
            return rng.choice(("%d.0", "%d.", "%de0")) % value
        return str(int(value))
    return rng.choice(ODD_LITERALS)


def _lowered_form(query):
    return (query.signature(), tuple(query.tables),
            tuple((p.table, p.column, p.op, type(p.value))
                  for p in query.predicates))


def _parse_and_lower(db, sql):
    """What the parse route builds for ``sql``: the lowered query's
    signature, tables and per-predicate types in order, or the type of
    the error it raised."""
    try:
        return _lowered_form(lower_select(parse_sql(sql), db.catalog))
    except Exception as exc:  # noqa: BLE001 - compared by type
        return type(exc)


def _through_the_front_end(db, sql):
    """``(form, route)`` of ``sql`` through the pipeline's front end."""
    try:
        query, __, trace, sig = db.pipeline.front_end(
            sql, db.catalog.snapshot())
    except Exception as exc:  # noqa: BLE001 - compared by type
        return type(exc), None
    assert sig == query.signature(), sql
    return _lowered_form(query), trace.span("lower").attrs["front"]


def _assert_shape_route_is_parse_route(db, base, probe, label):
    """After ``base`` went through the front end (storing its shape when
    its literals bind), ``probe`` must lower as parse and lower would —
    or raise the same error type — and must take the shape route when
    it is new text of a stored shape. Returns the route it took."""
    shape = fingerprint(probe)[0]
    known = shape is not None and shape in db.pipeline.shape_cache
    expected = _parse_and_lower(db, probe)
    got, route = _through_the_front_end(db, probe)
    assert got == expected, "%s\nbase=%s\nprobe=%s\nparse=%r\nfront=%r" % (
        label, base, probe, expected, got)
    if route is not None and route != "text":
        assert (route == "shape") == known, (label, probe, route)
    return route


@pytest.mark.parametrize("catalog_seed", SHAPE_ROUTE_SEEDS)
def test_fuzz_shape_route_matches_parse_route(catalog_seed):
    """Every literal of every generated SELECT redrawn at random (see
    :func:`_redraw`): binding the new literals into the shape's template
    gives the signature, tables and predicate types parse and lower give
    — or the same error type."""
    db, tables = _build_db(catalog_seed)
    rng = random.Random(77_000 + catalog_seed + 1_000_003 * FUZZ_SEED)
    shape_hits = 0
    for case in range(SHAPE_ROUTE_CASES):
        base = _render_sql(_random_query(rng, tables, star=True))
        shape, literals = fingerprint(base)
        assert shape is not None, base
        db.pipeline.front_end(base, db.catalog.snapshot())
        label = "catalog_seed=%d case=%d" % (catalog_seed, case)
        pieces = shape.split("?")
        for __ in range(3):
            probe = pieces[0] + "".join(
                _redraw(rng, lexeme) + rest
                for lexeme, rest in zip(literals, pieces[1:]))
            route = _assert_shape_route_is_parse_route(db, base, probe, label)
            shape_hits += route == "shape"
    # Not vacuous: most generated shapes carry a literal and no LIMIT.
    assert shape_hits >= SHAPE_ROUTE_CASES, shape_hits


# ----------------------------------------------------------------------
# Generic route: after five custom plans a shape's statements run one
# cached plan bound to their literals — judged by both oracles
# ----------------------------------------------------------------------
GENERIC_ROUTE_SEEDS = (0, 1, 2, 3)
GENERIC_ROUTE_CASES = max(8, N_CASES // (2 * len(GENERIC_ROUTE_SEEDS)))
#: Statements per generated shape: the base text and its redraws.
GENERIC_ROUTE_DRAWS = 9


def _assert_estimates_are_annotates(db, prepared, label):
    """Every node of a generic statement's plan carries the estimates
    ``CostModel.annotate`` gives a copy of it with a fresh memo."""
    fresh = copy.deepcopy(prepared.plan)
    db.cost_model.annotate(
        fresh, db.planner.estimator.planning_scope(prepared.query),
        prepared.query)
    ran = [(n.est_rows, n.est_cost) for n in prepared.plan.walk()]
    assert ran == [(n.est_rows, n.est_cost) for n in fresh.walk()], label


def _redrawn(rng, query):
    """``query`` with every predicate value redrawn from its column's
    domain, keeping the value's type (so the statement keeps its shape's
    slots and may take the generic route)."""
    draws = {"k": lambda: rng.randrange(12), "id": lambda: rng.randrange(150),
             "v": lambda: round(rng.uniform(-8.0, 8.0), 3),
             "tag": lambda: "tag%d" % rng.randrange(5)}
    twin = ConjunctiveQuery(
        query.tables, query.join_edges,
        [Predicate(p.table, p.column, p.op, draws[p.column]())
         for p in query.predicates],
        query.projections, query.aggregates, query.group_by,
        query.order_by, query.limit, query.distinct)
    assert [type(p.value) for p in twin.predicates] == [
        type(p.value) for p in query.predicates]
    return twin


@pytest.mark.parametrize("catalog_seed", GENERIC_ROUTE_SEEDS)
def test_fuzz_generic_route_matches_both_oracles(catalog_seed):
    """Each generated SELECT with a predicate runs as its base text plus
    eight redraws of its literals through ``db.execute``: the first five
    plan custom, the rest may bind the shape's generic plan. Every
    statement matches SQLite, and the reference executor on the plan the
    engine actually ran (rows, ``work``, per-node counts); a generic
    statement's estimates are what ``annotate`` gives its plan."""
    db, tables = _build_db(catalog_seed)
    reference = ReferenceExecutor(db.catalog, db.cost_model)
    lite = _sqlite_twin(db, tables)
    rng = random.Random(55_000 + catalog_seed + 1_000_003 * FUZZ_SEED)
    generic = cases = 0
    while cases < GENERIC_ROUTE_CASES:
        base = _random_query(rng, tables, star=True)
        if not base.predicates:
            continue
        cases += 1
        query = base
        for draw in range(GENERIC_ROUTE_DRAWS):
            sql = _render_sql(query)
            label = "catalog_seed=%d case=%d draw=%d sql=%s" % (
                catalog_seed, cases, draw, sql)
            result = db.execute(sql)
            generic += result.trace.plan_route == "generic"
            ran = db.pipeline.prepare_sql(sql)
            assert ran.trace.cache_hit, label
            if result.trace.plan_route == "generic":
                _assert_estimates_are_annotates(db, ran, label)
            assert_matches_reference(result, reference.execute(ran.plan),
                                     label)
            _assert_matches_sqlite(lite, query, sql, result, label)
            query = _redrawn(rng, base)
    # Not vacuous: most shapes go generic after their five samples.
    assert generic >= GENERIC_ROUTE_CASES * 2, generic
    assert db.pipeline.stats()["generic_plans"]["shapes"] > 0


# ----------------------------------------------------------------------
# One route, two ways: a cached (or template) program is the plan
# compiled afresh
# ----------------------------------------------------------------------
ONE_ROUTE_SEEDS = (0, 1, 2, 3)
ONE_ROUTE_CASES = max(6, N_CASES // (2 * len(ONE_ROUTE_SEEDS)))


def _execute_spans(result):
    """The ``execute`` span tree in preorder: name, rows, work and
    attributes, the decode timing masked."""
    return [(s.name, s.rows, s.work,
             {k: v for k, v in s.attrs.items() if k != "decode_seconds"})
            for s in result.telemetry.walk()]


@pytest.mark.parametrize("catalog_seed", ONE_ROUTE_SEEDS)
def test_fuzz_cached_program_runs_as_the_plan_compiled_afresh(catalog_seed):
    """Each generated SELECT (and, when it has a predicate, eight redraws
    of its literals, so shapes go generic) runs as EXPLAIN ANALYZE
    through the plan cache — its entry's program, or its template's —
    and its plan runs again through ``Executor.execute`` with no memo,
    compiled afresh, under the same planning spans. Rows, ``work``,
    ``operator_work``, ``node_stats``, the ``execute`` span tree and the
    EXPLAIN ANALYZE text (it holds no timing) are identical."""
    from repro.engine.explain import ExplainResult

    db, tables = _build_db(catalog_seed)
    rng = random.Random(77_000 + catalog_seed + 1_000_003 * FUZZ_SEED)
    generic = 0
    for case in range(ONE_ROUTE_CASES):
        base = _random_query(rng, tables, star=True)
        query = base
        for draw in range(GENERIC_ROUTE_DRAWS if base.predicates else 1):
            sql = _render_sql(query)
            label = "catalog_seed=%d case=%d draw=%d sql=%s" % (
                catalog_seed, case, draw, sql)
            cached = db.explain_analyze(sql)
            generic += cached.trace.plan_route == "generic"
            ran = cached.result
            fresh = db.executor.execute(cached.plan,
                                        trace=cached.trace.fork())
            assert fresh.columns == ran.columns, label
            assert fresh.rows == ran.rows, label
            assert fresh.work == ran.work, label
            assert fresh.operator_work == ran.operator_work, label
            assert (fresh.telemetry.node_stats
                    == ran.telemetry.node_stats), label
            assert _execute_spans(fresh) == _execute_spans(ran), label
            assert str(ExplainResult(cached.plan, fresh.trace)) == str(
                cached), label
            query = _redrawn(rng, base)
    # Not vacuous: template programs ran.
    assert generic >= ONE_ROUTE_CASES, generic


# ----------------------------------------------------------------------
# Mixed case: identifiers are case-insensitive, string literals are not
# ----------------------------------------------------------------------
MIXED_CASE_SEEDS = (0, 1, 2, 3)
MIXED_CASE_CASES = max(8, N_CASES // (2 * len(MIXED_CASE_SEEDS)))
#: Statements per generated shape: the first five plan custom, the rest
#: may bind the shape's generic plan.
MIXED_CASE_DRAWS = 7
#: A string literal (quotes doubled inside), left exactly as written.
_STRING_LITERAL = re.compile(r"'(?:[^']|'')*'")
_WORD = re.compile(r"\b[A-Za-z_]\w*")


def _recased(seed, sql, names):
    """``sql`` with every token in ``names`` (identifiers) spelled in a
    random case drawn from ``seed``; keywords, numbers and string
    literals keep their spelling. One seed re-cases every redraw of one
    shape alike, so those redraws share a shape too."""
    rng = random.Random(seed)

    def recase(match):
        word = match.group(0)
        if word.lower() not in names:
            return word
        return "".join(ch.upper() if rng.random() < 0.5 else ch.lower()
                       for ch in word)

    pieces, last = [], 0
    for literal in _STRING_LITERAL.finditer(sql):
        pieces.append(_WORD.sub(recase, sql[last:literal.start()]))
        pieces.append(literal.group(0))
        last = literal.end()
    pieces.append(_WORD.sub(recase, sql[last:]))
    return "".join(pieces)


@pytest.mark.parametrize("catalog_seed", MIXED_CASE_SEEDS)
def test_fuzz_mixed_case_identifiers(catalog_seed):
    """Each generated SELECT with a predicate runs as its base text plus
    redraws of its literals on two twin databases: one gets the lowercase
    text, the other the same text with every table and column name
    re-cased at random. The re-cased statement matches SQLite, whose
    identifiers are case-insensitive too, and equals its lowercase twin
    in rows, result labels, ``work``, plan route (custom or generic) and
    EXPLAIN text."""
    db, tables = _build_db(catalog_seed)
    mixed_db, __ = _build_db(catalog_seed)
    lite = _sqlite_twin(db, tables)
    names = set(tables) | set(COLUMNS)
    rng = random.Random(66_000 + catalog_seed + 1_000_003 * FUZZ_SEED)
    routes = Counter()
    cases = 0
    while cases < MIXED_CASE_CASES:
        base = _random_query(rng, tables, star=True)
        if not base.predicates:
            continue
        cases += 1
        casing = rng.randrange(1 << 30)
        query = base
        for draw in range(MIXED_CASE_DRAWS):
            sql = _render_sql(query)
            mixed = _recased(casing, sql, names)
            label = "catalog_seed=%d case=%d draw=%d sql=%s" % (
                catalog_seed, cases, draw, mixed)
            assert _STRING_LITERAL.findall(mixed) == \
                _STRING_LITERAL.findall(sql), label
            lower, got = db.execute(sql), mixed_db.execute(mixed)
            _assert_matches_sqlite(lite, query, mixed, got, label)
            assert got.rows == lower.rows, label
            assert got.columns == lower.columns, label
            assert got.work == lower.work, label
            assert got.trace.plan_route == lower.trace.plan_route, label
            assert str(mixed_db.explain(mixed)) == str(db.explain(sql)), label
            routes[lower.trace.plan_route] += 1
            query = _redrawn(rng, base)
    # Not vacuous: both plan routes ran, and re-casing changed the text.
    assert routes["custom"] and routes["generic"], routes
    assert mixed_db.pipeline.shape_cache.stats()["hits"] > 0


# ----------------------------------------------------------------------
# Plans outlive writes: a cached plan or generic state survives every
# write that cannot change a plan, and no other
# ----------------------------------------------------------------------
OUTLIVE_SEEDS = (0, 1, 2, 3)
OUTLIVE_ROUNDS = max(12, min(60, N_CASES // 10))
#: Fixed texts per catalog; each also runs ``OUTLIVE_REDRAWS`` redraws
#: of its literals per round, so its frame samples, goes generic and
#: meets writes.
OUTLIVE_TEXTS = 6
OUTLIVE_REDRAWS = 3
#: Tables stop growing by band-sized steps past this many rows.
OUTLIVE_MAX_ROWS = 512


def _outlive_write(rng, db, lite, tables):
    """Insert into one table: exactly up to the next power of two of its
    row count (a band crossing), to one row short of it (the last row
    of the band), or one to three rows. Returns ``(table, before,
    after)``; SQLite gets the same rows."""
    t = rng.choice(tables)
    n = db.catalog.table(t).n_rows
    edge = 1 << n.bit_length()
    mode = rng.choice(("cross", "below", "small", "small", "small", "small"))
    if mode == "cross" and n < OUTLIVE_MAX_ROWS:
        count = edge - n
    elif mode == "below" and edge - 1 - n > 0 and n < OUTLIVE_MAX_ROWS:
        count = edge - 1 - n
    else:
        count = rng.randint(1, 3)
    rows = [(rng.randrange(150), rng.randrange(12),
             round(rng.uniform(-10.0, 10.0), 6), "tag%d" % rng.randrange(5),
             None if rng.random() < 0.3 else "n%d" % rng.randrange(3))
            for __ in range(count)]
    if count <= 3 and all(r[4] is not None for r in rows):
        db.execute("INSERT INTO %s VALUES %s" % (t, ", ".join(
            "(%d, %d, %r, '%s', '%s')" % r for r in rows)))
    else:
        db.catalog.table(t).insert_rows(rows)
    lite.executemany("INSERT INTO %s VALUES (?, ?, ?, ?, ?)" % t, rows)
    return t, n, n + count


@pytest.mark.parametrize("catalog_seed", OUTLIVE_SEEDS)
def test_fuzz_plans_outlive_writes(catalog_seed):
    """Fixed SELECT texts re-run between inserts, on the custom route
    (the same text) and the generic route (redraws of its literals),
    over tables indexed on ``id`` and ``k``, with a materialized view
    over one text's join that every write to its tables drops and the
    arm re-registers.

    Every statement matches SQLite, and the reference executor on the
    plan it ran (rows, ``work``, per-node counts). A fixed text's
    plan-cache outcome is what the plan-version rule predicts, tracked
    here from the row counts: ``hit`` unless, since it was planned, one
    of its tables was analyzed, entered a new power-of-two band of row
    count, or gained or lost a view — then ``invalidated``."""
    from repro.ai4db.config.view_advisor import ViewCandidate, materialize_view

    db, tables = _build_db(catalog_seed)
    for t in tables:  # every table can be probed by id and k
        for column in ("id", "k"):
            if db.catalog.index_on(t, column) is None:
                db.execute("CREATE INDEX %s_%s ON %s (%s)"
                           % (t, column, t, column))
    reference = ReferenceExecutor(db.catalog, db.cost_model)
    lite = _sqlite_twin(db, tables)
    rng = random.Random(91_000 + catalog_seed + 1_000_003 * FUZZ_SEED)
    bases = []
    while len(bases) < OUTLIVE_TEXTS:
        query = _random_query(rng, tables)
        # Joins on ``id`` only: a ``k`` join's output grows with the
        # square of the tables, which the writes keep growing.
        if (query.predicates and query.limit is None
                and all(e.left_column == "id" for e in query.join_edges)):
            bases.append(query)
    joined = [q for q in bases if len(q.tables) > 1]
    view_query = ConjunctiveQuery(
        tables=joined[0].tables,
        join_edges=joined[0].join_edges) if joined else None
    view = None
    # The rule's state, kept here: a counter per table that moves where
    # the plan version must, and each fixed text's counters at planning.
    epoch = dict.fromkeys(tables, 0)
    planned = {}
    seen = Counter()
    for round_ in range(OUTLIVE_ROUNDS):
        if view_query and view is None and rng.random() < 0.25:
            view = materialize_view(db, ViewCandidate(view_query, 2))
            for t in view_query.tables:
                epoch[t] += 1
        for i, base in enumerate(bases):
            for query in [base] + [_redrawn(rng, base)
                                   for __ in range(OUTLIVE_REDRAWS)]:
                sql = _render_sql(query)
                label = "catalog_seed=%d round=%d text=%d sql=%s" % (
                    catalog_seed, round_, i, sql)
                result = db.execute(sql)
                token = tuple(epoch[t] for t in query.tables)
                if query is base:
                    if i in planned:
                        expected = ("hit" if planned[i] == token
                                    else "invalidated")
                        assert result.trace.cache_outcome == expected, (
                            label, planned[i], token)
                        seen[expected] += 1
                    planned[i] = token
                ran = db.pipeline.prepare_sql(sql)
                assert ran.trace.cache_hit, label
                seen[result.trace.plan_route] += 1
                seen["index"] += any(isinstance(n, IndexScan)
                                     for n in ran.plan.walk())
                seen["view"] += any(isinstance(n, ViewScan)
                                    for n in ran.plan.walk())
                assert_matches_reference(result, reference.execute(ran.plan),
                                         label)
                _assert_matches_sqlite(lite, query, sql, result, label)
        for __ in range(rng.randint(1, 2)):
            t, before, after = _outlive_write(rng, db, lite, tables)
            dropped = view is not None and t in view_query.tables
            if dropped:
                view = None
                seen["view dropped"] += 1
            if dropped or before.bit_length() != after.bit_length():
                epoch[t] += 1
                seen["band"] += not dropped
        if rng.random() < 0.1:
            t = rng.choice(tables)
            db.execute("ANALYZE %s" % t)
            epoch[t] += 1
    # Not vacuous: cached plans outlived writes and were invalidated by
    # them, generic plans ran, and so did index probes and view scans.
    assert seen["hit"] and seen["invalidated"] and seen["band"], seen
    assert seen["generic"] and seen["index"], seen
    if view_query:
        assert seen["view"] and seen["view dropped"], seen


#: ``name -> (base, probes)``: the base text goes through the front end
#: first, then each probe must lower as parse and lower would.
SHAPE_ROUTE_PINNED = {
    "limit": ("SELECT t0.id FROM t0 WHERE t0.k = 1 LIMIT 3", (
        "SELECT t0.id FROM t0 WHERE t0.k = 2 LIMIT 3",
        "SELECT t0.id FROM t0 WHERE t0.k = 1 LIMIT 0",
        "SELECT t0.id FROM t0 WHERE t0.k = 1 LIMIT 5.0",
        "SELECT t0.id FROM t0 WHERE t0.k = 1 LIMIT -1")),
    "between": ("SELECT t0.id FROM t0 WHERE t0.k BETWEEN 1 AND 5", (
        "SELECT t0.id FROM t0 WHERE t0.k BETWEEN 7 AND -2",
        "SELECT t0.id FROM t0 WHERE t0.k BETWEEN 'a' AND 2.5",
        "SELECT t0.id FROM t0 WHERE t0.k BETWEEN 1e5 AND +5")),
    "comment": ("SELECT t0.id FROM t0 -- 12 'x' 3.5\nWHERE t0.k = 1", (
        "SELECT t0.id FROM t0 -- 99 '' 'it''s\nWHERE t0.k = 4",
        "SELECT t0.id FROM t0 -- 12 'x' 3.5\nWHERE t0.k = '--'",
        "SELECT t0.id FROM t0 --\nWHERE t0.k = 4 -- 'open")),
    "string_with_dashes": ("SELECT t0.id FROM t0 WHERE t0.tag = 'a--b'", (
        "SELECT t0.id FROM t0 WHERE t0.tag = '--'",
        "SELECT t0.id FROM t0 WHERE t0.tag = 'x'' -- 5'",
        "SELECT t0.id FROM t0 WHERE t0.tag = 'open")),
    "digit_identifiers": (
        "SELECT t1.id FROM t0, t1 WHERE t0.id = t1.k AND t1.v < 2.5", (
            "SELECT t1.id FROM t0, t1 WHERE t0.id = t1.k AND t1.v < -7",
            "SELECT t1.id FROM t0, t1 WHERE t0.id = t1.k AND t1.v < 'x'")),
    "numbers": ("SELECT t0.id FROM t0 WHERE t0.k = 3", tuple(
        "SELECT t0.id FROM t0 WHERE t0.k = %s" % number
        for number in ("1e5", "+5", "-5", "5.", "1.2.3", "1e+", "1e",
                       "3e-1", "٣", "²", "?"))),
    # The tokenizer reads "٣" as the number 3 and "é3" as one word; an
    # ASCII scan would not. Non-ASCII text has no shape.
    "non_ascii": ("SELECT id FROM t0 é3 WHERE k = ٣", (
        "SELECT id FROM t0 é7 WHERE k = ٣",
        "SELECT id FROM t0 é3 WHERE k = 3")),
}
#: Pinned cases whose base text stores no shape.
SHAPE_ROUTE_UNSTORED = ("limit", "non_ascii")


@pytest.mark.parametrize("case", sorted(SHAPE_ROUTE_PINNED))
def test_shape_route_pinned_cases(case):
    """The lexical corners, pinned: a LIMIT literal or non-ASCII text is
    never stored; the rest store their shape, and at least one probe
    binds through it."""
    db, __ = _build_db(0)
    base, probes = SHAPE_ROUTE_PINNED[case]
    db.pipeline.front_end(base, db.catalog.snapshot())
    stored = len(db.pipeline.shape_cache) == 1
    assert stored == (case not in SHAPE_ROUTE_UNSTORED), case
    routes = [_assert_shape_route_is_parse_route(db, base, probe, case)
              for probe in probes]
    if stored:
        assert "shape" in routes, (case, routes)


# ----------------------------------------------------------------------
# Join-order axis: dp vs greedy vs random vs ues orders must agree on results
# ----------------------------------------------------------------------
#: Catalog seeds and cases for the enumerator race (every cold query is
#: planned and run once per join orderer, so the budget is smaller).
ENUMERATOR_RACE_SEEDS = (0, 1)
ENUMERATOR_RACE_CASES = max(10, CASES_PER_CATALOG // 2)

#: The join orderers the race runs, as ``(db, query) -> order``: the
#: planner's own DP (``None``: no explicit order) and the greedy, random
#: and UES orderers installed from :mod:`repro.ai4db.optimization`, whose
#: order reaches the engine as ``order=``.
JOIN_ORDERERS = {
    "dp": lambda db, query: None,
    "greedy": lambda db, query: greedy_order(
        query, db.planner.estimator, db.cost_model)[0],
    "random": lambda db, query: random_order(
        query, db.planner.estimator, db.cost_model, seed=0)[0],
    "ues": lambda db, query: ues_order(db.catalog, query)[0],
}


def _canonical_rows(rows):
    """An order-independent, float-tolerant row-multiset fingerprint.

    Different join orders legitimately reorder unordered output and
    change float fold order, so enumerator parity is a multiset property
    (rounded to 6 decimals) rather than exact list equality.
    """
    return sorted(
        repr(tuple(round(x, 6) if isinstance(x, float) else x for x in r))
        for r in rows
    )


def _unlimited(query):
    """The query with a row-limiting LIMIT dropped.

    LIMIT n over unordered output is a pick-any-n contract: different
    join orders may legitimately return different subsets, so the
    enumerator race compares only fully-determined result multisets.
    LIMIT 0 stays (its result is exactly empty under every plan).
    """
    if query.limit in (None, 0):
        return query
    return ConjunctiveQuery(
        tables=query.tables,
        join_edges=query.join_edges,
        predicates=query.predicates,
        projections=query.projections,
        aggregates=query.aggregates,
        group_by=query.group_by,
        order_by=query.order_by,
        limit=None,
        distinct=query.distinct,
    )


def _assert_the_route_is_the_planner(db, query, order, label):
    """The plan stage is one cache lookup and one ``Planner.plan`` call:
    what it caches for ``(query, order)`` is bit-identical to
    ``Planner.plan(query, order)``, under exactly one cache key, and a
    warm lookup hits it."""
    expected = db.planner.plan(query, order=order)
    cold = db.pipeline.prepare_query(query, order=order)
    warm = db.pipeline.prepare_query(query, order=order)
    for prepared in (cold, warm):
        assert prepared.plan.pretty() == expected.pretty(), label
        assert prepared.plan.est_cost == expected.est_cost, label
    assert warm.plan is cold.plan, label
    assert warm.trace.cache_outcome == "hit", label
    key = (query.signature(),
           None if order is None else tuple(t.lower() for t in order))
    entries = [k for k in db.pipeline.plan_cache._entries if k[:2] == key]
    assert entries == [key], label


@pytest.mark.parametrize("catalog_seed", ENUMERATOR_RACE_SEEDS)
def test_fuzz_enumerator_race(catalog_seed):
    """The four join orderers of :data:`JOIN_ORDERERS` race on identical
    data: whichever order each one picks, the *results* may never
    diverge from ``dp``'s (rows as a multiset, same columns) — measured
    work may differ (that is the point of racing orders), correctness
    may not. Warm reruns must hit the plan cache under every orderer,
    and each one's cached plan is the planner's, with no explicit join
    order, with the orderer's, and with a shuffled one."""
    dbs, tables = {}, None
    for name in JOIN_ORDERERS:
        dbs[name], tables = _build_db(catalog_seed)
    rng = random.Random(55_000 + catalog_seed + 1_000_003 * FUZZ_SEED)
    order_rng = random.Random(56_000 + catalog_seed)
    for case in range(ENUMERATOR_RACE_CASES):
        query = _unlimited(_random_query(rng, tables))
        label = "catalog_seed=%d case=%d query=%r" % (
            catalog_seed, case, query
        )
        explicit = list(query.tables)
        order_rng.shuffle(explicit)
        cold, orders = {}, {}
        for name, db in dbs.items():
            orders[name] = JOIN_ORDERERS[name](db, query)
            for order in (None, explicit, orders[name]):
                _assert_the_route_is_the_planner(
                    db, query, order, "%s %s order=%r" % (
                        label, name, order))
            cold[name] = db.run_query_object(query, order=orders[name])
        oracle = cold["dp"]
        oracle_rows = _canonical_rows(oracle.rows)
        for name, res in cold.items():
            assert res.trace.cache_outcome == "hit", label
            assert res.columns == oracle.columns, label
            assert _canonical_rows(res.rows) == oracle_rows, (
                "%s: %s order rows diverge from dp\n"
                "dp=%r\n%s=%r"
                % (label, name, oracle.rows[:10], name, res.rows[:10])
            )
            warm = dbs[name].run_query_object(query, order=orders[name])
            assert warm.trace.cache_outcome == "hit", label
            assert _canonical_rows(warm.rows) == oracle_rows, label


#: Queries per run of the snapshot-isolation race below.
SNAPSHOT_RACE_CASES = 12

#: The three concurrent arms below run four times each. The axis used to
#: be the executor's mode×fusion matrix; with one cell left, the same
#: four runs buy four ``(catalog seed, stream seed)`` pairs instead.
SNAPSHOT_RACE_CONFIGS = [(0, 31_337), (1, 31_338), (2, 31_339), (3, 31_340)]
SERVER_CONFIGS = [(0, 0), (1, 11), (2, 22), (3, 33)]
AGENT_CONFIGS = [(3, 90_000), (3, 90_017), (3, 90_034), (3, 90_051)]


@pytest.mark.parametrize("config", SNAPSHOT_RACE_CONFIGS)
def test_fuzz_snapshot_isolation(config):
    """A reader pinned to a snapshot races a writer appending to every
    table; its results must be bit-identical to a frozen copy.

    The frozen copy is an identically-seeded twin database that is never
    written — same data, same statistics, same segment boundaries, so
    the engine-vs-engine comparison is exact, not approximate. The exact
    leg executes one shared plan against both the pinned snapshot and
    the twin (rows, work, and per-node counts must match bit-for-bit),
    and the reference executor runs that plan over the twin as the
    specification of what the pinned read should have seen. The
    full-pipeline leg runs through ``snapshot.run_query_object`` and
    compares row *multisets*, since the planner reads live table sizes
    and may legitimately pick a different join order mid-race — the
    values it returns still may not drift.
    """
    catalog_seed, query_seed = config
    db, tables = _build_db(catalog_seed)
    frozen, __ = _build_db(catalog_seed)
    reference = ReferenceExecutor(frozen.catalog, frozen.cost_model)
    snap = db.snapshot()
    stop = threading.Event()
    errors = []

    def writer():
        try:
            wrng = random.Random(777)
            while not stop.is_set():
                t = wrng.choice(tables)
                db.catalog.table(t).insert_rows([(
                    wrng.randrange(10_000),
                    wrng.randrange(12),
                    round(wrng.uniform(-10.0, 10.0), 6),
                    "tag%d" % wrng.randrange(5),
                    None if wrng.random() < 0.3 else "n%d" % wrng.randrange(3),
                ) for __ in range(5)])
        except BaseException as exc:  # noqa: BLE001 - reported below
            errors.append(exc)

    wt = threading.Thread(target=writer)
    wt.start()
    try:
        rng = random.Random(query_seed)
        for case in range(SNAPSHOT_RACE_CASES):
            query = _random_query(rng, tables)
            label = "config=%r case=%d query=%r" % (config, case, query)
            # Exact leg: one plan, two catalogs (pinned vs frozen twin).
            plan = db.planner.plan(query)
            pinned = db.executor.execute(plan, catalog=snap.catalog)
            oracle = frozen.executor.execute(plan)
            assert pinned.rows == oracle.rows, (
                "%s: pinned vs frozen rows diverge\npinned=%r\nfrozen=%r"
                % (label, pinned.rows[:10], oracle.rows[:10])
            )
            assert pinned.work == oracle.work, label
            assert node_counts(pinned) == node_counts(oracle), label
            assert_matches_reference(pinned, reference.execute(plan), label)
            # Pipeline leg: plan may differ (live stats move), values not.
            piped = snap.run_query_object(query)
            assert (sorted(map(repr, piped.rows))
                    == sorted(map(repr, oracle.rows))), label
    finally:
        stop.set()
        wt.join()
    assert not errors, errors[0]
    # The writer must actually have raced the reader, and the snapshot's
    # row counts must have stayed pinned at the frozen copy's.
    assert sum(db.catalog.table(t).n_rows for t in tables) > sum(
        frozen.catalog.table(t).n_rows for t in tables
    )
    for t in tables:
        assert (snap.catalog.table(t).n_rows
                == frozen.catalog.table(t).n_rows), t


#: Server-mode fuzz sizes: concurrent sessions and statements per session.
SERVER_SESSIONS = 4
SERVER_OPS = 10


def _add_private_tables(db, n_sessions, seed):
    """Identically-seeded per-session private tables, in db and twin."""
    for i in range(n_sessions):
        name = "priv%d" % i
        db.execute(
            "CREATE TABLE %s (id INT, k INT, v FLOAT, tag TEXT, ntag TEXT)"
            % name
        )
        prng = random.Random(seed * 31 + i)
        db.catalog.table(name).insert_rows([
            (
                j,
                prng.randrange(12),
                round(prng.uniform(-10.0, 10.0), 6),
                "tag%d" % prng.randrange(5),
                None if prng.random() < 0.3 else "n%d" % prng.randrange(3),
            )
            for j in range(40)
        ])
    db.execute("ANALYZE")


def _session_script(seed, idx, shared_tables, n_ops):
    """One session's deterministic statement mix (pure function of seed).

    Reads are random conjunctive queries over the shared tables plus the
    session's own private table; writes append seeded rows to that
    private table only. Because no session ever writes a table another
    session reads, a serial replay of the same script must observe
    bit-identical results — the property the server-mode fuzz asserts.
    """
    rng = random.Random(seed * 7001 + idx)
    private = "priv%d" % idx
    ops = []
    for __ in range(n_ops):
        if rng.random() < 0.3:
            rows = [
                (
                    rng.randrange(100_000),
                    rng.randrange(12),
                    round(rng.uniform(-10.0, 10.0), 6),
                    "tag%d" % rng.randrange(5),
                    None if rng.random() < 0.3 else "n%d" % rng.randrange(3),
                )
                for __ in range(rng.randint(1, 4))
            ]
            ops.append(("write", rows))
        else:
            ops.append(("read", _random_query(rng, shared_tables + [private])))
    return ops


def _replay_session(server, idx, ops):
    """Run one session's script; return its observable outcomes."""
    out = []
    with server.session(tenant="s%d" % idx) as sess:
        for kind, payload in ops:
            if kind == "write":
                sess.insert_rows("priv%d" % idx, payload)
                out.append(("write", len(payload)))
            else:
                res = sess.run_query_object(payload)
                out.append((
                    "read", res.rows, res.telemetry.total_work,
                    node_counts(res),
                ))
    return out


@pytest.mark.parametrize("config", SERVER_CONFIGS)
def test_fuzz_server_mode_matches_serial_oracle(config):
    """N sessions replay seeded statement mixes through the QueryServer
    concurrently; each session's results must be **bit-identical** to an
    identically-seeded serial replay on a frozen twin server, and match
    a second serial replay whose twin runs the reference executor.

    Sessions share read-only tables and privately own one writable table
    each, so per-session outcomes are deterministic even under real
    concurrency: rows, ``total_work``, and per-node actual_rows must all
    match the serial engine twin and the reference twin exactly (floats
    bit for bit).
    Admission is configured generously so scheduling never sheds or
    reorders anything — this isolates the snapshot-execution and
    single-writer-commit machinery.
    """
    from repro.engine import QueryServer

    catalog_seed, script_seed = config
    db, shared = _build_db(catalog_seed)
    twins = {
        "engine": _build_db(catalog_seed)[0],
        "reference": _build_db(catalog_seed, make=reference_database)[0],
    }
    for each in (db, *twins.values()):
        _add_private_tables(each, SERVER_SESSIONS, seed=script_seed)

    scripts = [
        _session_script(script_seed, idx, shared, SERVER_OPS)
        for idx in range(SERVER_SESSIONS)
    ]
    # The mix must actually exercise both paths.
    kinds = {kind for ops in scripts for kind, __ in ops}
    assert kinds == {"read", "write"}

    live = QueryServer(db, tenant_quota=1e15, quota_refill_rate=0.0)

    concurrent_results = {}
    errors = []
    barrier = threading.Barrier(SERVER_SESSIONS)

    def worker(idx):
        try:
            barrier.wait()
            concurrent_results[idx] = _replay_session(live, idx, scripts[idx])
        except BaseException as exc:  # noqa: BLE001 - reported below
            errors.append(exc)

    threads = [threading.Thread(target=worker, args=(i,))
               for i in range(SERVER_SESSIONS)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert not errors, errors[0]

    for side, twin in twins.items():
        frozen = QueryServer(twin, tenant_quota=1e15, quota_refill_rate=0.0)
        for idx in range(SERVER_SESSIONS):
            oracle = _replay_session(frozen, idx, scripts[idx])
            label = "config=%r twin=%s session=%d" % (config, side, idx)
            assert len(concurrent_results[idx]) == len(oracle), label
            for op_i, (got, want) in enumerate(
                zip(concurrent_results[idx], oracle)
            ):
                assert same_rows([got], [want]), (
                    "%s op=%d diverges from serial oracle\nconcurrent=%r\n"
                    "serial=%r" % (label, op_i, got, want)
                )
            # Both replicas applied the same writes.
            name = "priv%d" % idx
            assert (db.catalog.table(name).n_rows
                    == twin.catalog.table(name).n_rows), label
    # Every server write went through the single-writer commit log.
    writes = sum(
        1 for ops in scripts for kind, __ in ops if kind == "write"
    )
    assert live.commit_history()[-1][0] == writes


# ----------------------------------------------------------------------
# Agent-session arm: random scripts under random policies vs serial oracle
# ----------------------------------------------------------------------
#: Scripts per run of the agent-session arm.
AGENT_CASES = 6

AGENT_POLICY_KINDS = ("SELECT", "INSERT", "CREATE TABLE", "ANALYZE")


def _random_policy(rng):
    """A random session policy (or None for an audit-only session)."""
    from repro.engine import Policy

    roll = rng.random()
    if roll < 0.25:
        return None
    if roll < 0.45:
        return Policy.read_only()
    if roll < 0.60:
        return Policy(deny_tables=("t0",))
    if roll < 0.80:
        return Policy(max_rows=rng.choice([1, 3, 25]))
    kinds = tuple(k for k in AGENT_POLICY_KINDS if rng.random() < 0.7)
    return Policy(statement_kinds=kinds or ("SELECT",))


def _agent_script(rng, tables, case):
    """A random multi-statement SQL script (pure function of the rng).

    Mixes shared-table inserts, scratch DDL + inserts, reads, ANALYZE,
    and the occasional statement that is guaranteed to fail — the mix a
    misbehaving agent would produce. Scratch names embed ``case`` so a
    committed case never collides with the next one.
    """
    stmts = []
    scratch = []
    for __ in range(rng.randint(4, 9)):
        roll = rng.random()
        t = rng.choice(tables)
        if roll < 0.30:
            rows = ", ".join(
                "(%d, %d, %.3f, 'tag%d', 'n%d')" % (
                    rng.randrange(100_000), rng.randrange(12),
                    rng.uniform(-10.0, 10.0), rng.randrange(5),
                    rng.randrange(3))
                for __ in range(rng.randint(1, 3))
            )
            stmts.append("INSERT INTO %s VALUES %s" % (t, rows))
        elif roll < 0.45:
            name = "s%d_%d" % (case, len(scratch))
            scratch.append(name)
            stmts.append("CREATE TABLE %s (a INT, b TEXT)" % name)
        elif roll < 0.55 and scratch:
            stmts.append("INSERT INTO %s VALUES (%d, 'b%d')" % (
                rng.choice(scratch), rng.randrange(100),
                rng.randrange(4)))
        elif roll < 0.80:
            stmts.append(rng.choice([
                "SELECT COUNT(*) FROM %s" % t,
                "SELECT id, k FROM %s WHERE k < %d" % (t, rng.randrange(12)),
                "SELECT MIN(v), MAX(v) FROM %s" % t,
            ]))
        elif roll < 0.90:
            stmts.append("ANALYZE %s" % t)
        else:
            stmts.append("SELECT * FROM no_such_%d" % rng.randrange(10))
    return stmts


def _run_gated_statements(session, stmts):
    """Execute ``stmts`` one by one; return the observable outcomes."""
    from repro.engine import EngineError

    out = []
    for sql in stmts:
        try:
            res = session.execute(sql)
            raw = res.raw
            out.append((
                "ok", res.kind,
                raw.rows if hasattr(raw, "rows") else raw,
            ))
        except EngineError as exc:
            out.append(("error", type(exc).__name__))
    return out


def _full_state(db):
    """Bit-identity probe: every table's rows + the full version vector."""
    state = {
        name: db.query("SELECT * FROM %s" % name)
        for name in sorted(db.catalog.table_names())
    }
    return state, dict(db.catalog.version_vector())


@pytest.mark.parametrize("config", AGENT_CONFIGS)
def test_fuzz_agent_session_rollback_matches_serial_oracle(config):
    """Random scripts under random policies through :class:`AgentSession`:

    * ``rollback()`` restores bit-identical state (all tables' rows and
      the version vector), regardless of how far the script got before
      failing or being denied;
    * re-running the same script and committing produces the **same
      per-statement outcomes** (rows, status strings, error classes,
      policy denials) as a serial gated-session oracle on a frozen
      twin — whose reads run on the reference executor — and leaves
      both databases bit-identical;
    * the audit log records every statement plus BEGIN/ROLLBACK.
    """
    catalog_seed, script_seed = config
    db, tables = _build_db(catalog_seed)
    twin, __ = _build_db(catalog_seed, make=reference_database)
    rng = random.Random(script_seed)
    for case in range(AGENT_CASES):
        policy = _random_policy(rng)
        stmts = _agent_script(rng, tables, case)
        label = "config=%r case=%d policy=%r stmts=%r" % (
            config, case, policy and policy.describe(), stmts)
        before = _full_state(db)

        # Leg 1: run inside a transaction, then roll everything back.
        agent = db.agent_session(policy=policy)
        agent.begin()
        live = _run_gated_statements(agent, stmts)
        agent.rollback()
        assert _full_state(db) == before, label
        assert len(agent.audit) == len(stmts) + 2, label  # BEGIN/ROLLBACK
        assert [r.kind for r in agent.audit][0] == "BEGIN"
        assert [r.kind for r in agent.audit][-1] == "ROLLBACK"

        # Leg 2: serial oracle — same script, same policy, plain gated
        # session on the twin (no transaction machinery at all).
        oracle = _run_gated_statements(twin.session(policy=policy), stmts)
        assert live == oracle, (
            "%s\nagent=%r\noracle=%r" % (label, live, oracle))

        # Leg 3: replay + commit; outcomes repeat and states converge.
        with db.agent_session(policy=policy) as agent2:
            committed = _run_gated_statements(agent2, stmts)
        assert committed == live, label
        assert _full_state(db) == _full_state(twin), label


class TestEdgeCases:
    """Targeted regressions for the edge cases the fuzzer hunts.

    Two were real latent bugs fixed in PR 3 (both from sort-based
    ``np.unique`` on object arrays containing ``None``): columnar
    group-by/DISTINCT/join on all-NULL or mixed-NULL keys crashed with
    ``TypeError``, and ANALYZE on a nullable TEXT column crashed in
    ``ColumnStats.build``. The rest pin down behaviour the engine must
    share with the reference executor.
    """

    def _db(self, build):
        db = Database()
        build(db)
        return db

    def _assert_parity(self, db, query):
        res = db.run_query_object(query)
        plan = db.pipeline.prepare_query(query).plan
        reference = ReferenceExecutor(db.catalog, db.cost_model)
        assert_matches_reference(res, reference.execute(plan))
        return res

    @staticmethod
    def _null_build(db):
        db.execute("CREATE TABLE e (id INT, k INT, ntag TEXT)")
        db.catalog.table("e").insert_rows(
            [(i, i % 3, None) for i in range(60)]
        )
        db.execute("CREATE TABLE f (id INT, k INT)")
        db.execute("ANALYZE")

    def test_empty_relation_join(self):
        db = self._db(self._null_build)
        q = ConjunctiveQuery(
            tables=["e", "f"],
            join_edges=[JoinEdge("e", "k", "f", "k")],
        )
        assert self._assert_parity(db, q).rows == []

    def test_all_null_group_keys(self):
        """Regression: all-NULL TEXT group key grouped via hash equality
        (sort-based factorization used to raise TypeError)."""
        db = self._db(self._null_build)
        q = ConjunctiveQuery(
            tables=["e"],
            group_by=[("e", "ntag")],
            aggregates=[Aggregate("count"), Aggregate("sum", "e", "k")],
        )
        assert self._assert_parity(db, q).rows == [(None, 60, 60)]

    def test_distinct_over_all_null_column(self):
        db = self._db(self._null_build)
        q = ConjunctiveQuery(
            tables=["e"], projections=[("e", "ntag")], distinct=True
        )
        assert self._assert_parity(db, q).rows == [(None,)]

    def test_mixed_null_group_and_join_keys(self):
        def build(db):
            db.execute("CREATE TABLE g (id INT, ntag TEXT)")
            db.catalog.table("g").insert_rows(
                [(i, None if i % 2 else "x%d" % (i % 4)) for i in range(80)]
            )
            db.execute("CREATE TABLE h (id INT, ntag TEXT)")
            db.catalog.table("h").insert_rows(
                [(i, None if i % 3 else "x%d" % (i % 4)) for i in range(60)]
            )
            db.execute("ANALYZE")

        db = self._db(build)
        q = ConjunctiveQuery(
            tables=["g", "h"],
            join_edges=[JoinEdge("g", "ntag", "h", "ntag")],
            group_by=[("g", "ntag")],
            aggregates=[Aggregate("count")],
        )
        res = self._assert_parity(db, q)
        # NULL == NULL joins, like the reference — and unlike SQL: see
        # KNOWN_NULL_DIVERGENCES["join_on_nullable_key"].
        assert len(res.rows) > 0

    def test_limit_zero_identical_in_all_modes(self):
        """LIMIT 0 through the planner: engine and reference agree."""
        db = self._db(self._null_build)
        q = ConjunctiveQuery(tables=["e"], projections=[("e", "id")], limit=0)
        assert self._assert_parity(db, q).rows == []

    def test_raw_limit_zero_plan_node(self):
        """LIMIT 0 as a raw plan node too (the planner usually folds it
        into EmptyResult before the executor ever sees it)."""
        from repro.engine import plans as P

        db = self._db(self._null_build)
        plan = P.Limit(P.SeqScan("e"), 0)
        res = db.executor.execute(plan)
        assert res.rows == []
        reference = ReferenceExecutor(db.catalog, db.cost_model)
        assert_matches_reference(res, reference.execute(plan))

    def test_analyze_nullable_text_column(self):
        """Regression: ANALYZE over a nullable TEXT column must not crash
        and must exclude NULLs from NDV/MCV stats."""
        db = Database()
        db.execute("CREATE TABLE n (id INT, ntag TEXT)")
        db.catalog.table("n").insert_rows(
            [(i, None if i % 2 else "v%d" % (i % 3)) for i in range(40)]
        )
        db.execute("ANALYZE")
        stats = db.catalog.stats("n").column("ntag")
        assert stats.n_distinct == 3
        assert None not in stats.top_values
        assert "None" not in stats.top_values


def test_fusion_actually_fires_on_fuzz_workload():
    """Meta-check: the generated queries include fusible tails, so racing
    the always-fusing engine against the never-fusing reference is not
    vacuously a race between two unfused runs."""
    db, tables = _build_db(0)
    rng = random.Random(4242)
    fused_hits = sum(
        db.run_query_object(_random_query(rng, tables)).telemetry.fused_ops
        for __ in range(20)
    )
    assert fused_hits > 0


def test_index_scan_actually_fires_on_fuzz_workload():
    """Meta-check: the seeded catalogs carry indexes and the generated
    queries probe them, so the IndexScan route really is raced against
    the reference's row-by-row probe and SQLite."""
    ops, indexes = set(), 0
    for seed in CATALOG_SEEDS:
        db, tables = _build_db(seed)
        indexes += len(db.catalog.indexes())
        rng = random.Random(4242 + seed)
        for __ in range(20):
            plan = db.pipeline.prepare_query(_random_query(rng, tables)).plan
            ops.update(node.predicate.op for node in plan.walk()
                       if isinstance(node, IndexScan))
    assert indexes
    assert "=" in ops and ops & {"<", "<=", ">", ">="}, ops


def test_read_set_cases_fire_on_fuzz_workload():
    """Meta-check: the differential stream holds ``SELECT *`` joins and
    joins with an IndexScan residual on a column outside the select list
    — the two ways a scan's read set could drop a column the plan reads."""
    star = residual = 0
    for seed in CATALOG_SEEDS:
        db, tables = _build_db(seed)
        rng = random.Random(10_000 + seed + 1_000_003 * FUZZ_SEED)
        for __ in range(CASES_PER_CATALOG):
            query = _random_query(rng, tables, star=True)
            if len(query.tables) < 2:
                continue
            shown = set(query.projections) | set(query.group_by)
            if not (shown or query.aggregates):
                star += 1
                continue
            plan = db.pipeline.prepare_query(query).plan
            residual += any(
                (p.table, p.column) not in shown
                for node in plan.walk() if isinstance(node, IndexScan)
                for p in node.residual)
    assert star and residual, (star, residual)


# ----------------------------------------------------------------------
# What the SQLite oracle already finds: the NULL contract's divergences
# ----------------------------------------------------------------------
#: Rows of ``t(id INT, v FLOAT, ntag TEXT)``: ``v`` is NULL on every
#: fourth row (the engine stores a FLOAT NULL as NaN), ``ntag`` on every
#: third — 14 NULLs, 13 ``'n1'``, 13 ``'n0'``.
NULL_T_ROWS = [
    (i, None if i % 4 == 0 else float(i),
     None if i % 3 == 0 else "n%d" % (i % 2))
    for i in range(40)
]
#: Rows of ``u(id INT, ntag TEXT)``: three NULL keys, three non-NULL.
NULL_U_ROWS = [(0, "n0"), (1, "n1"), (2, "n1"),
               (3, None), (4, None), (5, None)]

#: name -> (SQL, SQLite's rows, the engine's rows or exception today).
#: Each is a strict xfail: the next correctness PR (three-valued
#: comparison, NULL-skipping aggregates) flips them one by one, and an
#: unexpected pass fails the suite until its row is deleted here and in
#: DESIGN.md.
NAN = float("nan")
KNOWN_NULL_DIVERGENCES = {
    "not_equal_counts_null_rows": (
        "SELECT COUNT(*) FROM t WHERE ntag != 'n1'", [(13,)], [(27,)]),
    "join_on_nullable_key": (
        "SELECT COUNT(*) FROM t JOIN u ON t.ntag = u.ntag",
        [(39,)], [(81,)]),
    "float_null_aggregates": (
        "SELECT SUM(v), AVG(v), MIN(v), MAX(v) FROM t",
        [(600.0, 20.0, 1.0, 39.0)], [(NAN, NAN, NAN, NAN)]),
    "less_than_on_nullable_text": (
        "SELECT COUNT(*) FROM t WHERE ntag < 'n1'", [(13,)], TypeError),
    "min_of_nullable_text": (
        "SELECT MIN(ntag) FROM t", [("n0",)], TypeError),
    "order_by_nullable_text": (
        "SELECT ntag FROM t ORDER BY ntag",
        [(None,)] * 14 + [("n0",)] * 13 + [("n1",)] * 13, TypeError),
}


def _null_contract_twins():
    db = Database()
    db.execute("CREATE TABLE t (id INT, v FLOAT, ntag TEXT)")
    db.execute("CREATE TABLE u (id INT, ntag TEXT)")
    db.catalog.table("t").insert_rows(NULL_T_ROWS)
    db.catalog.table("u").insert_rows(NULL_U_ROWS)
    db.execute("ANALYZE")
    lite = sqlite3.connect(":memory:")
    lite.execute("CREATE TABLE t (id INTEGER, v REAL, ntag TEXT)")
    lite.execute("CREATE TABLE u (id INTEGER, ntag TEXT)")
    lite.executemany("INSERT INTO t VALUES (?, ?, ?)", NULL_T_ROWS)
    lite.executemany("INSERT INTO u VALUES (?, ?)", NULL_U_ROWS)
    return db, lite


def _as_recorded(holds, what):
    """Fail outright — not through the xfail — when an answer recorded
    in :data:`KNOWN_NULL_DIVERGENCES` has drifted."""
    if not holds:
        pytest.fail("%s no longer matches KNOWN_NULL_DIVERGENCES" % what)


@pytest.mark.parametrize("name", sorted(KNOWN_NULL_DIVERGENCES))
def test_known_null_divergence_from_sqlite(name, request):
    """The engine's answer must equal SQLite's — and today does not.

    The ``xfail`` is strict and names the one way each case may fail:
    a raw ``TypeError`` for the ordering comparisons, a wrong answer
    (``AssertionError``) for the rest. An unexpected pass fails the
    suite, and so does a drift in either recorded answer.
    """
    sql, sqlite_says, engine_says = KNOWN_NULL_DIVERGENCES[name]
    raises = engine_says if engine_says is TypeError else AssertionError
    request.node.add_marker(pytest.mark.xfail(strict=True, raises=raises))
    db, lite = _null_contract_twins()
    theirs = lite.execute(sql).fetchall()
    _as_recorded(theirs == sqlite_says, "SQLite's answer")
    ours = db.execute(sql).rows  # the TypeError cases stop here
    # By repr, so that nan equals nan.
    _as_recorded(repr(ours) in (repr(engine_says), repr(theirs)),
                 "the engine's answer")
    assert ours == theirs
