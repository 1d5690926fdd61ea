"""HashAggregate: grouped and global aggregation.

The columnar helpers here (:func:`aggregate_columnar`,
:func:`global_aggregate`) are shared with the fused-pipeline operator,
which runs the same aggregation over a filtered-but-never-materialized
input. :func:`aggregate_columnar` records the
aggregate node's actual output cardinality via ``ctx.count`` — the
group count *before* any LIMIT — so per-node actual-row telemetry is
identical whether the aggregate ran standalone or absorbed into a fused
tail.

Group output order is first-appearance order of each key among input
rows (a stable sort of the dense key codes recovers it).
"""

import numpy as np

from repro.common import ExecutionError
from repro.engine import plans as P
from repro.engine.operators.base import (
    ColumnarRelation,
    PhysicalOperator,
    register,
)
from repro.engine.operators.kernels import (
    factorize, segment_reduce, stable_code_order)


def output_columns(node):
    """Column labels of an aggregate's output relation."""
    return list(node.group_by) + [
        ("agg", "%s_%d" % (a.func, i)) for i, a in enumerate(node.aggregates)
    ]


def global_aggregate(agg, arr, n):
    """One global aggregate value over a full column (or ``None``)."""
    if agg.func == "count":
        return n
    if n == 0:
        return None
    if arr.dtype == object:
        col = arr.tolist()
        if agg.func == "sum":
            return sum(col)
        if agg.func == "avg":
            return sum(col) / len(col)
        if agg.func == "min":
            return min(col)
        if agg.func == "max":
            return max(col)
    else:
        if agg.func == "sum":
            return arr.sum()
        if agg.func == "avg":
            return arr.sum() / n
        if agg.func == "min":
            return arr.min()
        if agg.func == "max":
            return arr.max()
    raise ExecutionError("unknown aggregate %r" % (agg.func,))


def aggregate_columnar(ctx, node, child, key_codes=None):
    """Grouped/global aggregation over ``child``. ``key_codes`` may give,
    per GROUP BY key, ``(codes, dictionary)`` computed already (equal
    values, equal codes; ``dictionary[code]`` is output in place of the
    column, which ``child`` need not hold) or ``None``."""
    n = len(child)
    key_pos = [child.col_pos(t, c) for t, c in node.group_by]
    agg_pos = [
        None if a.column is None else child.col_pos(a.table, a.column)
        for a in node.aggregates
    ]
    columns = output_columns(node)
    if not key_pos:
        # Global aggregate: always exactly one output row, even on empty
        # input (count -> 0, other aggregates -> None).
        values = []
        for agg, pos in zip(node.aggregates, agg_pos):
            values.append(
                global_aggregate(
                    agg, None if pos is None else child.arrays[pos], n
                )
            )
        arrays = []
        for v in values:
            if v is None:
                a = np.empty(1, dtype=object)
                a[0] = None
            else:
                a = np.asarray([v])
            arrays.append(a)
        ctx.charge(node, ctx.cost_model.aggregate(n, 1))
        ctx.count(node, 1)
        return ColumnarRelation(columns, arrays, n_rows=1)
    if n == 0:
        ctx.charge(node, ctx.cost_model.aggregate(0, 0))
        ctx.count(node, 0)
        arrays = [np.empty(0, dtype=object) for __ in columns]
        return ColumnarRelation(columns, arrays, n_rows=0)
    coded = key_codes or [None] * len(key_pos)
    codes = factorize([
        child.arrays[p] if c is None else c[0]
        for p, c in zip(key_pos, coded)
    ])
    order = stable_code_order(codes)
    counts = np.bincount(codes)  # dense codes: every group is non-empty
    seg_starts = np.cumsum(counts) - counts
    first_rows = order[seg_starts]  # stable sort -> global first occurrence
    group_rank = np.argsort(first_rows, kind="stable")  # appearance order
    firsts = first_rows[group_rank]
    key_arrays = [
        child.arrays[p][firsts] if c is None else c[1].take(c[0][firsts])
        for p, c in zip(key_pos, coded)
    ]
    agg_arrays = []
    for agg, pos in zip(node.aggregates, agg_pos):
        if agg.func == "count":
            vals = counts
        else:
            vals = segment_reduce(
                agg.func, child.arrays[pos][order], seg_starts, counts
            )
        agg_arrays.append(np.asarray(vals)[group_rank])
    n_groups = len(counts)
    ctx.charge(node, ctx.cost_model.aggregate(n, n_groups))
    ctx.count(node, n_groups)
    return ColumnarRelation(columns, key_arrays + agg_arrays, n_rows=n_groups)


@register(P.HashAggregate)
class HashAggregateOp(PhysicalOperator):
    """Group-by + aggregate evaluation via hashing."""

    def evaluate(self, ctx, node):
        return aggregate_columnar(ctx, node, ctx.run(node.children[0]))
