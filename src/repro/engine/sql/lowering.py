"""Lowering: SELECT AST -> :class:`~repro.engine.query.ConjunctiveQuery`.

Binds column references against the catalog (resolving unqualified names
and aliases), classifies WHERE comparisons into join edges vs. filter
predicates, and validates aggregate/grouping shape.

Self-joins (the same base table appearing twice) are not supported by the
structured query model; the binder rejects them with a clear error.
"""

from repro.common import ParseError, PlanError
from repro.engine.query import Aggregate, ConjunctiveQuery, JoinEdge, Predicate
from repro.engine.sql.ast_nodes import AggCall, ColumnRef, Literal


class _Binder:
    def __init__(self, catalog, table_refs):
        self.catalog = catalog
        self.alias_to_table = {}
        self.tables = []
        for ref in table_refs:
            table = catalog.table(ref.name)  # raises CatalogError if missing
            effective = ref.effective_name
            key = effective.lower()
            if key in self.alias_to_table:
                raise ParseError("duplicate table/alias %r in FROM" % effective)
            base = table.name
            if base in self.tables:
                raise ParseError(
                    "self-joins are not supported (table %r appears twice)" % base
                )
            self.alias_to_table[key] = base
            self.tables.append(base)

    def resolve(self, col_ref):
        """Resolve a ColumnRef to ``(base_table, column_name)``."""
        if col_ref.table is not None:
            key = col_ref.table.lower()
            if key not in self.alias_to_table:
                raise ParseError(
                    "unknown table or alias %r" % (col_ref.table,)
                )
            base = self.alias_to_table[key]
            schema = self.catalog.table(base).schema
            return base, schema.column(col_ref.column).name
        matches = []
        for base in self.tables:
            schema = self.catalog.table(base).schema
            if schema.has_column(col_ref.column):
                matches.append((base, schema.column(col_ref.column).name))
        if not matches:
            raise ParseError("unknown column %r" % (col_ref.column,))
        if len(matches) > 1:
            raise ParseError(
                "ambiguous column %r (in tables: %s)"
                % (col_ref.column, ", ".join(m[0] for m in matches))
            )
        return matches[0]


def lower_select(stmt, catalog):
    """Lower a parsed :class:`SelectStmt` into a :class:`ConjunctiveQuery`.

    Args:
        stmt: the AST from :func:`repro.engine.sql.parse_sql`.
        catalog: the catalog view names are bound against (the pinned
            :class:`~repro.engine.catalog.CatalogSnapshot` in the pipeline).

    Returns:
        ConjunctiveQuery
    """
    all_refs = list(stmt.tables) + [ref for ref, __ in stmt.joins]
    binder = _Binder(catalog, all_refs)

    join_edges = []
    predicates = []
    for __, cond in stmt.joins:
        lt, lc = binder.resolve(cond.left)
        rt, rc = binder.resolve(cond.right)
        if cond.op != "=":
            raise PlanError("only equi-joins are supported in ON clauses")
        join_edges.append(JoinEdge(lt, lc, rt, rc))
    for comp in stmt.where:
        if comp.is_join:
            lt, lc = binder.resolve(comp.left)
            rt, rc = binder.resolve(comp.right)
            if comp.op != "=":
                raise PlanError("column-to-column predicates must be equi-joins")
            if lt == rt:
                raise PlanError(
                    "intra-table column comparisons are not supported"
                )
            join_edges.append(JoinEdge(lt, lc, rt, rc))
        else:
            t, c = binder.resolve(comp.left)
            value = comp.right.value if isinstance(comp.right, Literal) else comp.right
            predicates.append(Predicate(t, c, comp.op, value))

    projections = []
    aggregates = []
    if stmt.items != "*":
        for item in stmt.items:
            if isinstance(item, AggCall):
                if item.arg is None:
                    aggregates.append(Aggregate("count"))
                else:
                    t, c = binder.resolve(item.arg)
                    aggregates.append(Aggregate(item.func, t, c))
            elif isinstance(item, ColumnRef):
                projections.append(binder.resolve(item))
            else:
                raise PlanError("unsupported select item %r" % (item,))

    group_by = [binder.resolve(c) for c in stmt.group_by]
    if aggregates and projections:
        extra = [p for p in projections if p not in group_by]
        if extra:
            raise PlanError(
                "non-aggregated columns %r must appear in GROUP BY" % (extra,)
            )
    order_by = None
    if stmt.order_by is not None:
        col, descending = stmt.order_by
        order_by = (binder.resolve(col), descending)

    return ConjunctiveQuery(
        tables=binder.tables,
        join_edges=join_edges,
        predicates=predicates,
        projections=projections,
        aggregates=aggregates,
        group_by=group_by,
        order_by=order_by,
        limit=stmt.limit,
        distinct=stmt.distinct,
    )
