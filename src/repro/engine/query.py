"""Structured query model: conjunctive select-project-join queries.

Most learned database components (cardinality estimators, join-order
agents, index/view advisors) operate on a *structured* view of the query —
which tables it touches, which join edges connect them, which filter
predicates it carries. :class:`ConjunctiveQuery` is that view; the SQL
front end lowers parsed SELECT statements into it, and the workload
generators produce it directly.

The constructors fold every table and column name to lower case (DESIGN.md
"Names"); the methods compare the folded names as given.
"""

from repro.common import PlanError

_COMPARISONS = {"=", "!=", "<", "<=", ">", ">="}


class Predicate:
    """A filter predicate ``table.column <op> value``.

    Args:
        table: table name.
        column: column name.
        op: one of ``= != < <= > >=``.
        value: literal (int/float/str), never folded.
    """

    __slots__ = ("table", "column", "op", "value")

    def __init__(self, table, column, op, value):
        if op not in _COMPARISONS:
            raise PlanError("unsupported predicate operator %r" % (op,))
        self.table = table.lower()
        self.column = column.lower()
        self.op = op
        self.value = value

    def key(self):
        """Hashable identity for dedup/caching."""
        return (self.table, self.column, self.op, self.value)

    def __repr__(self):
        return "%s.%s %s %r" % (self.table, self.column, self.op, self.value)

    def __eq__(self, other):
        return isinstance(other, Predicate) and self.key() == other.key()

    def __hash__(self):
        return hash(self.key())


class JoinEdge:
    """An equi-join edge ``left_table.left_column = right_table.right_column``."""

    __slots__ = ("left_table", "left_column", "right_table", "right_column")

    def __init__(self, left_table, left_column, right_table, right_column):
        self.left_table = left_table.lower()
        self.left_column = left_column.lower()
        self.right_table = right_table.lower()
        self.right_column = right_column.lower()

    def touches(self, table):
        """Whether this edge involves ``table``."""
        return table == self.left_table or table == self.right_table

    def other_side(self, table):
        """``(table, column)`` of the side opposite ``table``."""
        if self.left_table == table:
            return self.right_table, self.right_column
        if self.right_table == table:
            return self.left_table, self.left_column
        raise PlanError("edge %r does not touch table %r" % (self, table))

    def key(self):
        """Order-insensitive hashable identity."""
        a = (self.left_table, self.left_column)
        b = (self.right_table, self.right_column)
        return (a, b) if a <= b else (b, a)

    def __repr__(self):
        return "%s.%s = %s.%s" % (
            self.left_table,
            self.left_column,
            self.right_table,
            self.right_column,
        )

    def __eq__(self, other):
        return isinstance(other, JoinEdge) and self.key() == other.key()

    def __hash__(self):
        return hash(self.key())


class Aggregate:
    """An aggregate expression ``func(table.column)`` (or ``COUNT(*)``)."""

    __slots__ = ("func", "table", "column")

    FUNCS = {"count", "sum", "avg", "min", "max"}

    def __init__(self, func, table=None, column=None):
        func = func.lower()
        if func not in self.FUNCS:
            raise PlanError("unsupported aggregate %r" % (func,))
        if func != "count" and column is None:
            raise PlanError("%s() needs a column argument" % func)
        self.func = func
        self.table = None if table is None else table.lower()
        self.column = None if column is None else column.lower()

    def __repr__(self):
        arg = "*" if self.column is None else "%s.%s" % (self.table, self.column)
        return "%s(%s)" % (self.func, arg)


def _fold_pairs(pairs):
    return [(t.lower(), c.lower()) for t, c in pairs]


class ConjunctiveQuery:
    """A select-project-join query in structured form.

    Attributes:
        tables: list of table names (deduplicated, order preserved).
        join_edges: list of :class:`JoinEdge` equi-joins.
        predicates: list of :class:`Predicate` filters (implicitly AND-ed).
        projections: list of ``(table, column)`` output columns; empty means
            "all columns of all tables".
        aggregates: list of :class:`Aggregate` (empty for plain selects).
        group_by: list of ``(table, column)`` grouping keys.
        order_by: optional ``((table, column), descending)`` pair.
        limit: optional row limit.
    """

    def __init__(
        self,
        tables,
        join_edges=(),
        predicates=(),
        projections=(),
        aggregates=(),
        group_by=(),
        order_by=None,
        limit=None,
        distinct=False,
    ):
        self.tables = list(dict.fromkeys(t.lower() for t in tables))
        if not self.tables:
            raise PlanError("a query needs at least one table")
        self.join_edges = list(join_edges)
        self.predicates = list(predicates)
        self.projections = _fold_pairs(projections)
        self.aggregates = list(aggregates)
        self.group_by = _fold_pairs(group_by)
        if order_by is not None:
            (table, column), descending = order_by
            order_by = ((table.lower(), column.lower()), descending)
        self.order_by = order_by
        self.limit = limit
        self.distinct = distinct
        for e in self.join_edges:
            if e.left_table not in self.tables or e.right_table not in self.tables:
                raise PlanError("join edge %r references a table not in FROM" % (e,))
        for p in self.predicates:
            if p.table not in self.tables:
                raise PlanError("predicate %r references a table not in FROM" % (p,))

    def predicates_on(self, table):
        """Filter predicates on one table."""
        return [p for p in self.predicates if p.table == table]

    def edges_between(self, left_tables, right_table):
        """Join edges connecting any table in ``left_tables`` to ``right_table``."""
        out = []
        for e in self.join_edges:
            lt, rt = e.left_table, e.right_table
            if ((lt in left_tables and rt == right_table)
                    or (rt in left_tables and lt == right_table)):
                out.append(e)
        return out

    def join_graph(self):
        """The query's join graph as ``{table: set(neighbor tables)}``."""
        graph = {t: set() for t in self.tables}
        for e in self.join_edges:
            graph[e.left_table].add(e.right_table)
            graph[e.right_table].add(e.left_table)
        return graph

    def is_connected(self):
        """Whether the join graph is connected (no cross products needed)."""
        graph = self.join_graph()
        if not graph:
            return True
        start = next(iter(graph))
        seen = {start}
        stack = [start]
        while stack:
            node = stack.pop()
            for nb in graph[node]:
                if nb not in seen:
                    seen.add(nb)
                    stack.append(nb)
        return len(seen) == len(graph)

    def signature(self):
        """Hashable identity of the full query (for caching/featurizing).

        Covers the join structure (tables, edges, predicates — all
        order-insensitive) *and* the output shape: projections, aggregates,
        grouping keys, ordering, limit, and distinct. Two queries that
        differ only in, say, ``LIMIT`` or their aggregate list therefore
        never share a signature — required by anything keyed on it, most
        importantly the pipeline plan cache.
        """
        order_by = None
        if self.order_by is not None:
            column, descending = self.order_by
            order_by = (column, bool(descending))
        return (
            tuple(sorted(self.tables)),
            tuple(sorted(e.key() for e in self.join_edges)),
            tuple(sorted(p.key() for p in self.predicates)),
            tuple(self.projections),
            tuple((a.func, a.table, a.column) for a in self.aggregates),
            tuple(self.group_by),
            order_by,
            self.limit,
            self.distinct,
        )

    def __repr__(self):
        return "ConjunctiveQuery(tables=%r, joins=%d, predicates=%d)" % (
            self.tables,
            len(self.join_edges),
            len(self.predicates),
        )
