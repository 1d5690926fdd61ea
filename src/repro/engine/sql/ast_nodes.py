"""AST node classes produced by the SQL parser."""


class ColumnRef:
    """A (possibly qualified) column reference ``[table.]column``."""

    __slots__ = ("table", "column")

    def __init__(self, column, table=None):
        self.table = table
        self.column = column

    def __repr__(self):
        if self.table:
            return "%s.%s" % (self.table, self.column)
        return self.column


class Literal:
    """A constant: int, float, or string."""

    __slots__ = ("value",)

    def __init__(self, value):
        self.value = value

    def __repr__(self):
        return repr(self.value)


class Comparison:
    """A binary comparison ``left <op> right`` in a WHERE/ON clause.

    ``left`` is always a :class:`ColumnRef`; ``right`` is a
    :class:`ColumnRef` (join predicate) or :class:`Literal` (filter).
    """

    __slots__ = ("left", "op", "right")

    def __init__(self, left, op, right):
        self.left = left
        self.op = op
        self.right = right

    @property
    def is_join(self):
        """Whether both sides are column references."""
        return isinstance(self.right, ColumnRef)

    def __repr__(self):
        return "%r %s %r" % (self.left, self.op, self.right)


class AggCall:
    """An aggregate call ``func(column)`` or ``COUNT(*)``."""

    __slots__ = ("func", "arg")

    def __init__(self, func, arg):
        self.func = func.lower()
        self.arg = arg  # ColumnRef or None for COUNT(*)

    def __repr__(self):
        return "%s(%s)" % (self.func, "*" if self.arg is None else repr(self.arg))


class TableRef:
    """A table in the FROM clause, with an optional alias."""

    __slots__ = ("name", "alias")

    def __init__(self, name, alias=None):
        self.name = name
        self.alias = alias

    @property
    def effective_name(self):
        """Alias if present, else the table name."""
        return self.alias or self.name

    def __repr__(self):
        if self.alias:
            return "%s AS %s" % (self.name, self.alias)
        return self.name


class SelectStmt:
    """A parsed SELECT statement.

    Attributes:
        items: list of :class:`ColumnRef`/:class:`AggCall`, or the string
            ``"*"`` for select-all.
        tables: list of :class:`TableRef` from FROM (comma list).
        joins: list of ``(TableRef, Comparison)`` from explicit JOIN ... ON.
        where: list of :class:`Comparison` (AND-ed); OR is not supported by
            the core grammar.
        group_by: list of :class:`ColumnRef`.
        order_by: optional ``(ColumnRef, descending)``.
        limit: optional int.
        distinct: whether SELECT DISTINCT was used.
    """

    def __init__(self, items, tables, joins=(), where=(), group_by=(),
                 order_by=None, limit=None, distinct=False):
        self.items = items
        self.tables = list(tables)
        self.joins = list(joins)
        self.where = list(where)
        self.group_by = list(group_by)
        self.order_by = order_by
        self.limit = limit
        self.distinct = distinct

    def __repr__(self):
        return "SelectStmt(tables=%r, joins=%d, where=%d)" % (
            [t.effective_name for t in self.tables],
            len(self.joins),
            len(self.where),
        )


class CreateTableStmt:
    """``CREATE TABLE name (col type, ...)``."""

    def __init__(self, name, columns):
        self.name = name
        self.columns = list(columns)  # list of (name, type_name)

    def __repr__(self):
        return "CreateTableStmt(%r, %d columns)" % (self.name, len(self.columns))


class CreateIndexStmt:
    """``CREATE [HYPOTHETICAL] INDEX name ON table (column) [USING btree]``."""

    def __init__(self, name, table, column, hypothetical=False):
        self.name = name
        self.table = table
        self.column = column
        self.hypothetical = hypothetical

    def __repr__(self):
        return "CreateIndexStmt(%r on %s.%s)" % (self.name, self.table, self.column)


class InsertStmt:
    """``INSERT INTO name [(cols)] VALUES (...), (...)``."""

    def __init__(self, table, columns, rows):
        self.table = table
        self.columns = list(columns) if columns else None
        self.rows = [list(r) for r in rows]

    def __repr__(self):
        return "InsertStmt(%r, %d rows)" % (self.table, len(self.rows))


class AnalyzeStmt:
    """``ANALYZE [table]``."""

    def __init__(self, table=None):
        self.table = table

    def __repr__(self):
        return "AnalyzeStmt(%r)" % (self.table,)
