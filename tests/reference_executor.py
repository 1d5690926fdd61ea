"""The executable specification the engine's executor is raced against.

A tuple-at-a-time interpreter over the same physical plans the engine
runs: same plan in; rows, order, ``work``, ``operator_work`` and per-node
``actual_rows`` out, charging through the same
:class:`~repro.engine.optimizer.cost.CostModel` formulas on the
cardinalities it observes. It never fuses, never prunes, and reads
storage through ``table.rows()`` (Python lists), so it shares none of the
engine's columnar kernels, segment masks, column sorts or late
materialization — only the plan-node classes, the cost formulas, and two
helpers that decide *what a plan means* rather than how to run it
(join-key orientation, aggregate output labels). An index probe is
resolved here by looking at every row.

This was the engine's ``row`` executor mode until it stopped being
shipped; it lives here because a reference needs neither a config knob
nor a fused variant. :class:`ReferenceExecutor` has the shape of
``Executor.execute`` so a test can also swap it into a ``Database``
(:func:`reference_database`) and drive it through the pipeline, a
session or a ``QueryServer`` as the other side of a differential arm.
"""

import math

from repro.common import ExecutionError
from repro.engine import Database
from repro.engine import plans as P
from repro.engine.executor import ExecutionResult
from repro.engine.operators.aggregate import output_columns
from repro.engine.operators.base import OPS, Relation
from repro.engine.operators.join import join_keys
from repro.engine.optimizer.cost import CostModel
from repro.engine.telemetry import StatementTrace


def eval_predicates(relation, predicates):
    """Rows of a :class:`Relation` surviving a predicate conjunction."""
    if not predicates:
        return relation.rows
    compiled = [
        (relation.col_pos(p.table, p.column), OPS[p.op], p.value)
        for p in predicates
    ]
    out = []
    for row in relation.rows:
        ok = True
        for pos, op, value in compiled:
            if not op(row[pos], value):
                ok = False
                break
        if ok:
            out.append(row)
    return out


def table_relation(ctx, table_name):
    """``(table, column_labels)`` for a base table."""
    table = ctx.catalog.table(table_name)
    columns = [(table.name, c.name) for c in table.schema.columns]
    return table, columns


def _seq_scan(ctx, node):
    table, columns = table_relation(ctx, node.table)
    ctx.charge(node, ctx.cost_model.seq_scan(table.n_rows))
    relation = Relation(columns, table.rows())
    rows = eval_predicates(relation, node.predicates)
    return Relation(columns, rows)


def _is_null(value):
    return value is None or (isinstance(value, float) and math.isnan(value))


def _index_scan(ctx, node):
    """Resolve the probe tuple-at-a-time: an index holds valid keys only
    (a NULL row is never returned)."""
    idx = next((i for i in ctx.catalog.indexes(node.table)
                if i.name == node.index_name), None)
    if idx is None or idx.hypothetical:
        raise ExecutionError("index %r cannot be probed" % (node.index_name,))
    pred = node.predicate
    if pred.op == "!=":
        raise ExecutionError("index cannot evaluate %r" % (pred,))
    table, columns = table_relation(ctx, node.table)
    pos = table.schema.column_index(idx.column)
    matched = [row for row in table.rows()
               if not _is_null(row[pos]) and OPS[pred.op](row[pos], pred.value)]
    ctx.charge(node, ctx.cost_model.index_scan(len(matched)))
    rows = eval_predicates(Relation(columns, matched), node.residual)
    return Relation(columns, rows)


def _view_scan(ctx, node):
    view_table = node.view.table
    columns = []
    for name in view_table.schema.column_names:
        t, __, c = name.partition("__")
        columns.append((t, c))
    ctx.charge(node, ctx.cost_model.seq_scan(view_table.n_rows))
    relation = Relation(columns, view_table.rows())
    rows = eval_predicates(relation, node.residual)
    return Relation(columns, rows)


def _empty_result(ctx, node):
    return Relation(node.columns, [])


def _hash_join(ctx, node):
    left = ctx.run(node.children[0])
    right = ctx.run(node.children[1])
    left_pos, right_pos = join_keys(node.edges, left, right)
    buckets = {}
    for row in right.rows:
        key = tuple(row[p] for p in right_pos)
        buckets.setdefault(key, []).append(row)
    out = []
    for row in left.rows:
        key = tuple(row[p] for p in left_pos)
        for match in buckets.get(key, ()):
            out.append(row + match)
    ctx.charge(
        node,
        ctx.cost_model.hash_join(len(left.rows), len(right.rows), len(out)),
    )
    return Relation(left.columns + right.columns, out)


def _nested_loop_join(ctx, node):
    left = ctx.run(node.children[0])
    right = ctx.run(node.children[1])
    left_pos, right_pos = join_keys(node.edges, left, right)
    out = []
    for lrow in left.rows:
        lkey = tuple(lrow[p] for p in left_pos)
        for rrow in right.rows:
            if lkey == tuple(rrow[p] for p in right_pos):
                out.append(lrow + rrow)
    ctx.charge(
        node,
        ctx.cost_model.nested_loop_join(
            len(left.rows), len(right.rows), len(out)
        ),
    )
    return Relation(left.columns + right.columns, out)


def _cross_join(ctx, node):
    left = ctx.run(node.children[0])
    right = ctx.run(node.children[1])
    out = [l + r for l in left.rows for r in right.rows]
    ctx.charge(
        node, ctx.cost_model.cross_join(len(left.rows), len(right.rows))
    )
    return Relation(left.columns + right.columns, out)


def _project(ctx, node):
    child = ctx.run(node.children[0])
    positions = [child.col_pos(t, c) for t, c in node.columns]
    ctx.charge(
        node, ctx.cost_model.params["cpu_tuple_cost"] * len(child.rows)
    )
    rows = [tuple(row[p] for p in positions) for row in child.rows]
    if node.distinct:
        seen = set()
        deduped = []
        for row in rows:
            if row not in seen:
                seen.add(row)
                deduped.append(row)
        rows = deduped
    return Relation(node.columns, rows)


def _left_fold(col):
    """``((0 + c0) + c1) + …`` in row order: the SUM fold order the
    engine must match bit for bit. Spelled out rather than ``sum(col)``,
    whose float result changed in CPython 3.12 (compensated summation)."""
    total = 0
    for value in col:
        total = total + value
    return total


def _hash_aggregate(ctx, node):
    child = ctx.run(node.children[0])
    key_pos = [child.col_pos(t, c) for t, c in node.group_by]
    agg_pos = []
    for agg in node.aggregates:
        if agg.column is None:
            agg_pos.append(None)
        else:
            agg_pos.append(child.col_pos(agg.table, agg.column))
    groups = {}
    for row in child.rows:
        key = tuple(row[p] for p in key_pos)
        groups.setdefault(key, []).append(row)
    if not groups and not node.group_by:
        groups[()] = []
    out = []
    for key, rows in groups.items():
        values = []
        for agg, pos in zip(node.aggregates, agg_pos):
            if agg.func == "count":
                values.append(len(rows))
                continue
            col = [r[pos] for r in rows]
            if not col:
                values.append(None)
            elif agg.func == "sum":
                values.append(_left_fold(col))
            elif agg.func == "avg":
                values.append(_left_fold(col) / len(col))
            elif agg.func == "min":
                values.append(min(col))
            elif agg.func == "max":
                values.append(max(col))
            else:
                raise ExecutionError("unknown aggregate %r" % (agg.func,))
        out.append(key + tuple(values))
    ctx.charge(node, ctx.cost_model.aggregate(len(child.rows), len(out)))
    return Relation(output_columns(node), out)


def _sort(ctx, node):
    child = ctx.run(node.children[0])
    pos = child.col_pos(*node.key)
    ctx.charge(node, ctx.cost_model.sort(len(child.rows)))
    rows = sorted(child.rows, key=lambda r: r[pos],
                  reverse=node.descending)
    return Relation(child.columns, rows)


def _limit(ctx, node):
    child = ctx.run(node.children[0])
    return Relation(child.columns, child.rows[: node.n])


#: Plan-node class → its tuple-at-a-time evaluation.
EVALUATORS = {
    P.SeqScan: _seq_scan,
    P.IndexScan: _index_scan,
    P.ViewScan: _view_scan,
    P.EmptyResult: _empty_result,
    P.HashJoin: _hash_join,
    P.NestedLoopJoin: _nested_loop_join,
    P.CrossJoin: _cross_join,
    P.Project: _project,
    P.HashAggregate: _hash_aggregate,
    P.Sort: _sort,
    P.Limit: _limit,
}


class _Run:
    """One execution's accounting: the ``ctx`` the evaluations above
    recurse, charge and (implicitly, per node) count through — one span
    per plan node, nested as the plan is."""

    def __init__(self, catalog, cost_model, span):
        self.catalog = catalog
        self.cost_model = cost_model
        self.span = span
        self.spans = {}

    def run(self, node):
        parent = self.span
        with parent.child(node.op_name) as span:
            self.span = self.spans[id(node)] = span
            out = EVALUATORS[type(node)](self, node)
        self.span = parent
        span.rows = len(out)
        return out

    def charge(self, node, amount):
        span = self.spans[id(node)]
        span.work = amount if span.work is None else span.work + amount


class ReferenceExecutor:
    """``Executor``-shaped driver of the tuple-at-a-time evaluations.

    Per-run state lives on a fresh :class:`_Run`, so one instance is safe
    to share between threads (a ``QueryServer`` over a
    :func:`reference_database` does).
    """

    def __init__(self, catalog, cost_model=None):
        self.catalog = catalog
        self.cost_model = cost_model or CostModel()

    def execute(self, plan, catalog=None, trace=None, memo=None):
        """Run ``plan`` (against ``catalog`` when given, e.g. a pinned
        ``CatalogSnapshot``); returns an ``ExecutionResult`` over the
        same record the engine builds — an ``execute`` span with one
        span per node — so ``work``, ``operator_work`` and
        ``node_stats`` are read through the engine's own accessors.
        ``fused_ops`` is always 0, and the plan cache's ``memo`` (the
        engine's fused tail and read set) goes unused."""
        trace = trace or StatementTrace()
        with trace.root.child("execute") as span:
            run = _Run(self.catalog if catalog is None else catalog,
                       self.cost_model, span)
            relation = run.run(plan)
            for i, node in enumerate(plan.walk()):
                run.spans[id(node)].attrs.update(
                    node=i, est_rows=node.est_rows)
        return ExecutionResult(relation, trace)


def reference_database(**knobs):
    """A ``Database`` whose plans run on the reference executor.

    Everything above the executor — parser, planner, plan cache,
    sessions, snapshots — is the engine's own, so a twin built this way
    differs from ``Database(**knobs)`` in exactly one thing.
    """
    db = Database(**knobs)
    db.executor = ReferenceExecutor(db.catalog, db.cost_model)
    return db


def node_counts(result):
    """Preorder ``(op, actual_rows)`` pairs of one run's node stats."""
    return [(e["op"], e["actual_rows"]) for e in result.telemetry.node_stats]


def approx_equal_rows(rows_a, rows_b):
    """Row-list equality, float-tolerant: for an oracle that folds floats
    in an order of its own (SQLite). The engine and the reference fold
    identically, so they are compared exactly (:func:`same_rows`)."""
    if len(rows_a) != len(rows_b):
        return False
    for ra, rb in zip(rows_a, rows_b):
        if len(ra) != len(rb):
            return False
        for x, y in zip(ra, rb):
            if isinstance(x, float) and isinstance(y, float):
                if not math.isclose(x, y, rel_tol=1e-9, abs_tol=1e-12):
                    return False
            elif x != y:
                return False
    return True


def same_rows(rows_a, rows_b):
    """Row-list equality bit for bit: floats by ``repr``, so ``-0.0``
    differs from ``0.0`` and a NaN equals a NaN."""
    return repr(rows_a) == repr(rows_b)


def assert_matches_reference(result, reference, label=""):
    """The observational contract, engine result vs reference result:
    same columns, rows and order (floats bit for bit: both fold SUM/AVG
    left to right in row order), bit-identical ``work`` and
    ``operator_work``, identical per-node ``actual_rows``."""
    assert result.columns == reference.columns, label
    assert same_rows(result.rows, reference.rows), (
        "%s: rows diverge from the reference\nreference=%r\nengine=%r"
        % (label, reference.rows[:10], result.rows[:10])
    )
    assert result.work == reference.work, label
    assert result.operator_work == reference.operator_work, label
    assert node_counts(result) == node_counts(reference), (
        "%s: per-node actual_rows diverge\nreference=%r\nengine=%r"
        % (label, node_counts(reference), node_counts(result))
    )
