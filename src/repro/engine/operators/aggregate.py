"""HashAggregate: grouped and global aggregation.

The columnar helpers here (:func:`aggregate_columnar`,
:func:`global_aggregate`) are shared with the fused-pipeline operator,
which runs the same aggregation over a filtered-but-never-materialized
input. :func:`aggregate_columnar` records the
aggregate node's actual output cardinality via ``run.count`` — the
group count *before* any LIMIT — so per-node actual-row telemetry is
identical whether the aggregate ran standalone or absorbed into a fused
tail.

Rows are never sorted: each aggregate folds per group code in row order
(:func:`~repro.engine.operators.kernels.group_reduce`); groups come out
in first-appearance order. FLOAT ``SUM``/``AVG``, grouped or global, add
left to right from 0.0 — the reference executor's fold, bit for bit.
"""

import numpy as np

from repro.engine import plans as P
from repro.engine.operators.base import (
    ColumnarRelation,
    PhysicalOperator,
    register,
)
from repro.engine.operators.kernels import (
    factorize, first_rows, group_reduce)


def output_columns(node):
    """Column labels of an aggregate's output relation."""
    return list(node.group_by) + [
        ("agg", "%s_%d" % (a.func, i)) for i, a in enumerate(node.aggregates)
    ]


def global_aggregate(agg, arr, n):
    """One global aggregate value over a full column (``None`` for all
    but ``COUNT`` over no rows): :func:`group_reduce` over one group, so
    global and grouped aggregates share one fold."""
    if agg.func == "count":
        return n
    if n == 0:
        return None
    return group_reduce(agg.func, arr, np.zeros(n, dtype=np.uint8),
                        np.array([n]), np.array([0]))[0]


def aggregate_columnar(run, slot, node, child, key_codes=None):
    """Grouped/global aggregation over ``child``, charged and counted to
    span ``slot``. ``key_codes`` may give,
    per GROUP BY key, ``(codes, dictionary)`` computed already (equal
    values, equal codes, not necessarily dense; ``dictionary[code]`` is
    output in place of the column, which ``child`` need not hold) or
    ``None``. One coded key is grouped on its codes as they are."""
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
        arrays = []
        for agg, pos in zip(node.aggregates, agg_pos):
            v = global_aggregate(
                agg, None if pos is None else child.arrays[pos], n)
            # An empty object array holds None.
            arrays.append(np.empty(1, dtype=object) if v is None
                          else np.asarray([v]))
        run.charge(slot, run.cost_model.aggregate(n, 1))
        run.count(slot, 1)
        return ColumnarRelation(columns, arrays, n_rows=1)
    if n == 0:
        run.charge(slot, run.cost_model.aggregate(0, 0))
        run.count(slot, 0)
        arrays = [np.empty(0, dtype=object) for __ in columns]
        return ColumnarRelation(columns, arrays, n_rows=0)
    coded = key_codes or [None] * len(key_pos)
    if len(coded) == 1 and coded[0] is not None:
        codes = coded[0][0]  # grouped on the given codes, dense or not
    else:
        codes = factorize([child.arrays[p] if c is None else c[0]
                           for p, c in zip(key_pos, coded)])
    counts = np.bincount(codes)
    first = first_rows(codes, counts)
    present = np.flatnonzero(counts)
    groups = present[np.argsort(first[present])]  # appearance order
    firsts = first[groups]
    key_arrays = [
        child.arrays[p][firsts] if c is None else c[1].take(c[0][firsts])
        for p, c in zip(key_pos, coded)
    ]
    agg_arrays = [
        group_reduce(agg.func, None if pos is None else child.arrays[pos],
                     codes, counts, first)[groups]
        for agg, pos in zip(node.aggregates, agg_pos)
    ]
    n_groups = len(groups)
    run.charge(slot, run.cost_model.aggregate(n, n_groups))
    run.count(slot, n_groups)
    return ColumnarRelation(columns, key_arrays + agg_arrays, n_rows=n_groups)


@register(P.HashAggregate)
class HashAggregateOp(PhysicalOperator):
    """Group-by + aggregate evaluation via hashing."""

    def evaluate(self, run, step, inputs):
        return aggregate_columnar(
            run, step.slot, run.nodes[step.slot], inputs[0])
