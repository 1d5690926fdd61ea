"""Operator-layer foundations: relations, the ``PhysicalOperator``
contract, and the plan-node → operator registry.

Every physical operator family lives in its own module in this package
(scan, join, project, aggregate, sort/limit, fused pipeline) and
subclasses :class:`PhysicalOperator`, implementing its one evaluation
method, :meth:`PhysicalOperator.evaluate` — columnar NumPy batches in,
columnar NumPy batches out.

Operators are resolved once, when a prepared plan is compiled
(:func:`~repro.engine.program.compile_plan`): each plan node becomes a
:class:`~repro.engine.program.Step` holding its operator's
``evaluate``. A run calls ``evaluate(run, step, inputs)``: ``inputs``
are the child results, already computed (the program is postorder, so
an operator never evaluates a child itself), ``step`` carries the span
slot (``step.slot``) and the compiled arguments, and ``run`` is the
per-run context the :class:`~repro.engine.executor.Executor` creates
for each ``execute()`` call. It exposes ``run.nodes`` — the statement's
plan nodes in preorder, where the literals live (``run.nodes[slot]``)
— ``run.charge(slot, amount)`` for work accounting, ``run.count(slot,
n)`` for the per-node actual-row counters and ``run.record_segments``
for a scan's storage counters, plus ``run.catalog``/``run.cost_model``.

The specification every operator is held to — rows, order,
``work``/``operator_work`` charges and per-node ``actual_rows`` — is the
tuple-at-a-time reference executor under ``tests/``; the differential
fuzzer races the engine against it (and against SQLite).
"""

import operator

from repro.common import ExecutionError

#: Comparison operators predicates may use.
OPS = {
    "=": operator.eq,
    "!=": operator.ne,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
}


def _col_pos(relation, table, column):
    """Position of ``table.column`` in ``relation.columns`` (the label
    index is built on the first lookup)."""
    index = relation._index
    if index is None:
        index = relation._index = {
            tc: i for i, tc in enumerate(relation.columns)}
    pos = index.get((table, column))
    if pos is None:
        raise ExecutionError(
            "intermediate result has no column %s.%s" % (table, column)
        )
    return pos


class Relation:
    """A materialized result: column labels plus rows of Python scalars.

    What :meth:`ColumnarRelation.to_relation` produces for the caller of
    ``Executor.execute``; operators never pass these between themselves.

    Attributes:
        columns: list of ``(table, column)`` labels: folded names, as
            the catalog stores them.
        rows: list of tuples aligned with ``columns``.
    """

    __slots__ = ("columns", "rows", "_index")

    def __init__(self, columns, rows):
        self.columns = list(columns)
        self.rows = rows
        self._index = None

    col_pos = _col_pos

    def __len__(self):
        return len(self.rows)


class ColumnarRelation:
    """An intermediate result carried as aligned NumPy column arrays.

    ``arrays[i]`` holds every value of ``columns[i]``, a ``(table,
    column)`` label of folded names as the catalog stores them (like
    :attr:`Relation.columns`). Operators produce
    new ``ColumnarRelation`` batches via masks and fancy indexing; rows
    are only materialized when the final result is converted with
    :meth:`to_relation`.
    """

    __slots__ = ("columns", "arrays", "_index", "_n")

    def __init__(self, columns, arrays, n_rows=None):
        self.columns = list(columns)
        self.arrays = list(arrays)
        self._index = None
        if n_rows is not None:
            self._n = int(n_rows)
        else:
            self._n = len(self.arrays[0]) if self.arrays else 0

    col_pos = _col_pos

    def take(self, selector):
        """A new relation holding the rows picked by a mask or index array
        (a mask becomes row ids once, then one ``take`` per column)."""
        ids = selector.nonzero()[0] if selector.dtype == bool else selector
        return ColumnarRelation(
            self.columns, [a.take(ids) for a in self.arrays], n_rows=len(ids))

    def to_relation(self):
        """Materialize as a row :class:`Relation` (Python scalar tuples)."""
        if not self.arrays or self._n == 0:
            return Relation(self.columns, [])
        return Relation(
            self.columns, list(zip(*[a.tolist() for a in self.arrays])))

    def __len__(self):
        return self._n


class PhysicalOperator:
    """Uniform interface of one physical operator family.

    Subclasses are stateless singletons registered per plan-node type via
    :func:`register`; compiling a plan resolves ``node → operator`` once
    per node, and every run calls :meth:`evaluate`.
    """

    def evaluate(self, run, step, inputs):
        """The step's output as a :class:`ColumnarRelation`, given its
        children's outputs ``inputs`` (left to right)."""
        raise NotImplementedError


def scan_columns(schema, reads):
    """``(keys, labels)``: the columns a scan emits — ``schema`` order,
    restricted to ``reads`` (``None``: every column)."""
    name = schema.name
    keys = schema.names if reads is None else tuple(
        [k for k in schema.names if (name, k) in reads])
    return keys, tuple([(name, k) for k in keys])


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
