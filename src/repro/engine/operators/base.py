"""Operator-layer foundations: relations, the ``PhysicalOperator``
contract, and the plan-node → operator registry.

Every physical operator family lives in its own module in this package
(scan, join, filter/project, aggregate, sort/limit, fused pipeline) and
subclasses :class:`PhysicalOperator`, implementing two evaluation
backends:

* :meth:`PhysicalOperator.row` — the tuple-at-a-time interpreter (the
  executable specification);
* :meth:`PhysicalOperator.vectorized` — columnar NumPy batches.

Backends receive ``(ctx, node)`` where ``ctx`` is the
:class:`~repro.engine.executor.Executor` driving the plan. The executor
exposes the per-run services operators need: ``ctx.run(child)`` for
recursive evaluation, ``ctx.charge(node, amount)`` for work accounting,
``ctx.count(node, n)`` for the per-node actual-row counters, plus
``ctx.catalog``/``ctx.cost_model``/``ctx.mode``.

Both backends of one operator are observationally identical: same
rows in the same order, same ``work``/``operator_work`` charges, and the
same per-node ``actual_rows`` — the differential fuzzer races them
against each other to enforce it.
"""

import operator

from repro.common import ExecutionError

#: Comparison operators predicates may use, shared by every backend.
OPS = {
    "=": operator.eq,
    "!=": operator.ne,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
}

#: Sentinel distinguishing "no value seen yet" from a stored ``None`` in
#: the row-mode fused aggregation accumulators.
UNSET = object()

#: The evaluation backends an operator implements, one per executor mode.
BACKENDS = ("row", "vectorized")


class Relation:
    """An intermediate result: column labels plus materialized rows.

    Attributes:
        columns: list of ``(table, column)`` labels (lowercased).
        rows: list of tuples aligned with ``columns``.
    """

    __slots__ = ("columns", "rows", "_index")

    def __init__(self, columns, rows):
        self.columns = [(t.lower(), c.lower()) for t, c in columns]
        self.rows = rows
        self._index = {tc: i for i, tc in enumerate(self.columns)}

    def col_pos(self, table, column):
        """Position of ``table.column`` in each row tuple."""
        key = (table.lower(), column.lower())
        if key not in self._index:
            raise ExecutionError(
                "intermediate result has no column %s.%s" % (table, column)
            )
        return self._index[key]

    def __len__(self):
        return len(self.rows)


class ColumnarRelation:
    """An intermediate result carried as aligned NumPy column arrays.

    The vectorized twin of :class:`Relation`: ``arrays[i]`` holds every
    value of ``columns[i]``. Operators produce new ``ColumnarRelation``
    batches via masks and fancy indexing; rows are only materialized when
    the final result is converted with :meth:`to_relation`.
    """

    __slots__ = ("columns", "arrays", "_index", "_n")

    def __init__(self, columns, arrays, n_rows=None):
        self.columns = [(t.lower(), c.lower()) for t, c in columns]
        self.arrays = list(arrays)
        self._index = {tc: i for i, tc in enumerate(self.columns)}
        if n_rows is not None:
            self._n = int(n_rows)
        else:
            self._n = len(self.arrays[0]) if self.arrays else 0

    def col_pos(self, table, column):
        """Position of ``table.column`` in :attr:`arrays`."""
        key = (table.lower(), column.lower())
        if key not in self._index:
            raise ExecutionError(
                "intermediate result has no column %s.%s" % (table, column)
            )
        return self._index[key]

    def take(self, selector):
        """A new relation holding the rows picked by a mask or index array."""
        arrays = [a[selector] for a in self.arrays]
        return ColumnarRelation(self.columns, arrays)

    def to_relation(self):
        """Materialize as a row :class:`Relation` (Python scalar tuples)."""
        if not self.arrays or self._n == 0:
            return Relation(self.columns, [])
        return Relation(
            self.columns, list(zip(*(a.tolist() for a in self.arrays)))
        )

    def __len__(self):
        return self._n


def eval_predicates(relation, predicates):
    """Rows of a row :class:`Relation` surviving a predicate conjunction."""
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


class PhysicalOperator:
    """Uniform interface of one physical operator family.

    Subclasses are stateless singletons registered per plan-node type via
    :func:`register`; the executor resolves ``node → operator`` once per
    node and calls the backend matching its mode. A backend a family does
    not implement raises.
    """

    def row(self, ctx, node):
        raise ExecutionError(
            "executor does not support %r in row mode" % (node,)
        )

    def vectorized(self, ctx, node):
        raise ExecutionError(
            "executor does not support %r in vectorized mode" % (node,)
        )


#: Plan-node class → operator singleton.
_REGISTRY = {}


def register(*node_types):
    """Class decorator binding an operator to its plan-node type(s)."""

    def bind(op_cls):
        instance = op_cls()
        for node_type in node_types:
            _REGISTRY[node_type] = instance
        return op_cls

    return bind


def operator_for(node):
    """The registered :class:`PhysicalOperator` evaluating ``node``."""
    op = _REGISTRY.get(type(node))
    if op is None:
        raise ExecutionError("executor does not support %r" % (node,))
    return op


def registered_node_types():
    """The plan-node classes the operator layer can evaluate (sorted)."""
    return sorted(_REGISTRY, key=lambda cls: cls.__name__)
