"""UES-style upper-bound-driven join ordering (pessimistic optimization).

The learned-optimizer literature ("Are We Ready For Learned Cardinality
Estimation?") shows learned estimates win on average and lose badly in
the tail. UES (Hertzschuch et al., CIDR'21) attacks the tail from the
other side: instead of estimating intermediate cardinalities, it *bounds*
them, and orders joins to keep the bound small. The bound is a guarantee,
not an estimate — the true intermediate result can never exceed it — so a
plan chosen under it has defensible worst-case work.

The bound uses only per-table facts the engine knows exactly:

* ``|T|`` — the table's **actual** row count (``Table.n_rows``, exact);
* ``MF_T(a)`` — the **maximum frequency** of any value of join attribute
  ``a`` in ``T``. Read exactly from the segment layer's cached value
  counts (:meth:`~repro.engine.storage.Table.column_value_counts`) when
  available; otherwise sanity-bounded from ANALYZE statistics (MCV /
  top-value counts, else ``ceil(n_rows / n_distinct)`` floored at the
  heaviest bucket — no longer exact, but still per-table-stats-grounded).

For a left-deep prefix ``S`` with bound ``ub(S)``, joining table ``T``
through an equi-join edge on ``T``-side attribute ``a`` gives

    ub(S ⋈ T)  =  ub(S) × MF_T(a)

because each row of the intermediate result matches at most ``MF_T(a)``
rows of ``T``. With several connecting edges the tightest one applies
(every edge must hold, so each is individually an upper bound); with no
edge the cross-product bound ``ub(S) × |T|`` applies. The base case
``ub({T}) = |T|`` is exact. Bounds along a prefix are therefore
monotonically non-decreasing (``MF ≥ 1``) — the property the unit tests
pin — and every level's bound dominates the true join cardinality
whenever the max frequencies are exact.

:func:`ues_order` greedily grows the prefix that minimizes the running
bound (the UES policy: smallest bound first). The engine plans with
Selinger DP alone; a UES order installs from outside as an explicit
join order, ``db.run_query_object(q, order=ues_order(db.catalog, q)[0])``,
and access paths, join operators and the cost annotation are then the
planner's as for any other order.
:class:`~repro.ai4db.optimization.estimators.UpperBoundEstimator`
answers sub-query cardinalities with the same bounds, for pricing any
plan pessimistically.
"""

import math

from repro.common import CatalogError, PlanError


def max_frequency(catalog, table, column):
    """Upper bound on how often any single value of ``column`` occurs.

    Exact when the storage layer can count values per segment (INT/TEXT
    and NaN-free FLOAT columns); otherwise falls back to ANALYZE
    statistics — the MCV/top-value counts, floored by the average
    frequency ``ceil(n_rows / n_distinct)``. Always ``>= 1`` and
    ``<= n_rows`` (an empty table bounds at 1 so products stay sane).

    Raises :class:`~repro.common.CatalogError` for unknown tables and
    columns.
    """
    tab = catalog.table(table)
    n_rows = int(tab.n_rows)
    if n_rows <= 1:
        return 1.0
    counts = tab.column_value_counts(column)
    if counts is not None and len(counts[1]):
        return float(max(1, int(counts[1].max())))
    # Fallback: ANALYZE stats (NaN-bearing FLOAT segments cannot count).
    try:
        stats = catalog.stats(table)
        col = stats.column(column) if stats.has_column(column) else None
    except CatalogError:
        col = None
    if col is None:
        return float(n_rows)
    heaviest = 0
    if col.top_values:
        heaviest = max(col.top_values.values())
    hist = getattr(col, "histogram", None)
    if hist is not None and getattr(hist, "mcv", None):
        heaviest = max(heaviest, max(hist.mcv.values()))
    average = math.ceil(n_rows / max(1, col.n_distinct))
    return float(min(n_rows, max(1, heaviest, average)))


def _join_columns(query, prefix, table):
    """``table``-side join columns of the edges connecting it to ``prefix``."""
    cols = []
    for edge in query.edges_between(prefix, table):
        if edge.left_table.lower() == table.lower():
            cols.append(edge.left_column)
        else:
            cols.append(edge.right_column)
    return cols


def step_bound(catalog, query, prefix, prefix_bound, table):
    """The bound after joining ``table`` onto a prefix bounded by
    ``prefix_bound`` — tightest connecting edge, else cross product."""
    n_rows = max(1.0, float(catalog.table(table).n_rows))
    cols = _join_columns(query, prefix, table)
    if not cols:
        return prefix_bound * n_rows
    tightest = min(max_frequency(catalog, table, c) for c in cols)
    return prefix_bound * min(tightest, n_rows)


def ues_bounds(catalog, query, order):
    """Per-level upper bounds of a left-deep ``order``.

    Returns a list ``bounds`` with ``bounds[i]`` an upper bound on the
    cardinality of joining ``order[:i+1]`` — ``bounds[0]`` is the first
    table's exact row count. Monotonically non-decreasing.
    """
    if {t.lower() for t in order} != {t.lower() for t in query.tables}:
        raise PlanError("order must cover exactly the query's tables")
    bounds = [max(1.0, float(catalog.table(order[0]).n_rows))]
    prefix = [order[0]]
    for t in order[1:]:
        bounds.append(step_bound(catalog, query, prefix, bounds[-1], t))
        prefix.append(t)
    return bounds


def ues_order(catalog, query):
    """The upper-bound-minimizing left-deep join order.

    Starts at the smallest table and greedily appends the (preferably
    adjacent) table that keeps the running bound smallest, breaking ties
    by table name so the order is deterministic.

    Returns:
        ``(order, bounds)`` — the order and its per-level bounds.
    """
    tables = list(query.tables)
    if not tables:
        raise PlanError("query has no tables")
    if len(tables) == 1:
        return [tables[0]], [max(1.0, float(catalog.table(tables[0]).n_rows))]
    start = min(
        tables,
        key=lambda t: (float(catalog.table(t).n_rows), t.lower()),
    )
    order = [start]
    bounds = [max(1.0, float(catalog.table(start).n_rows))]
    remaining = {t.lower(): t for t in tables if t.lower() != start.lower()}
    while remaining:
        adjacent = [
            t for t in remaining.values() if query.edges_between(order, t)
        ]
        pool = adjacent if adjacent else list(remaining.values())
        nxt = min(
            pool,
            key=lambda t: (
                step_bound(catalog, query, order, bounds[-1], t), t.lower()
            ),
        )
        bounds.append(step_bound(catalog, query, order, bounds[-1], nxt))
        order.append(nxt)
        del remaining[nxt.lower()]
    return order, bounds
