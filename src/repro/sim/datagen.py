"""Synthetic data and workload generators.

These replace the TPC-H/JOB/IMDB substrates of the cited systems (see
DESIGN.md §2). The key properties the learned components exploit are
controllable here: **skew** (Zipfian value distributions), **correlation**
(between filter columns, which breaks the independence assumption), and
**join fan-out** (chain/star/clique join graphs with referential
integrity).
"""

import numpy as np

from repro.common import ensure_rng
from repro.engine.query import Aggregate, ConjunctiveQuery, JoinEdge, Predicate
from repro.engine.storage import Table
from repro.engine.types import ColumnSchema, DataType, TableSchema

# ----------------------------------------------------------------------
# Column-level generators
# ----------------------------------------------------------------------

def zipf_integers(n, n_values, skew=1.1, seed=None):
    """``n`` integers in ``[0, n_values)`` with a Zipfian rank distribution.

    ``skew`` ~1.0 is mild, ~2.0 is heavy; skew=0 degenerates to uniform.
    """
    rng = ensure_rng(seed)
    if skew <= 0:
        return rng.integers(0, n_values, size=n)
    ranks = np.arange(1, n_values + 1, dtype=float)
    weights = ranks ** (-skew)
    weights /= weights.sum()
    return rng.choice(n_values, size=n, p=weights)


def correlated_pair(n, n_values, correlation, seed=None):
    """Two integer columns with tunable correlation.

    With probability ``correlation`` the second value equals the first
    (``y = x``); otherwise it is uniform. ``correlation=1`` is a functional
    dependency, ``0`` is full independence — the axis the E6 cardinality
    experiment sweeps. Conjunctions like ``a < v AND b < v`` are exactly
    where the independence assumption collapses.
    """
    rng = ensure_rng(seed)
    x = rng.integers(0, n_values, size=n)
    y_dep = x
    y_rand = rng.integers(0, n_values, size=n)
    mask = rng.random(n) < correlation
    y = np.where(mask, y_dep, y_rand)
    return x, y


# ----------------------------------------------------------------------
# Schema-level generators
# ----------------------------------------------------------------------

def make_correlated_table(catalog, name="facts", n_rows=20000, n_values=100,
                          correlation=0.8, seed=0):
    """A single table with mutually correlated columns for estimation tests.

    Columns ``a``/``b``/``c`` are pairwise correlated with strength
    ``correlation`` (``b`` and ``c`` each equal ``a`` with that
    probability), so conjunctive predicates across them compound the
    independence assumption's error multiplicatively — the classic failure
    mode learned estimators fix. ``d`` is uniform and independent.
    """
    rng = ensure_rng(seed)
    a, b = correlated_pair(n_rows, n_values, correlation, seed=rng)
    c = np.where(rng.random(n_rows) < correlation, a,
                 rng.integers(0, n_values, size=n_rows))
    d = rng.integers(0, n_values, size=n_rows)
    schema = TableSchema(
        name,
        [
            ColumnSchema("a", DataType.INT),
            ColumnSchema("b", DataType.INT),
            ColumnSchema("c", DataType.INT),
            ColumnSchema("d", DataType.INT),
        ],
    )
    table = Table(schema, columns={"a": a, "b": b, "c": c, "d": d})
    catalog.register_table(table)
    catalog.analyze(name)
    return table


_SEGMENTS = ["consumer", "corporate", "home_office", "small_business"]
_REGIONS = ["north", "south", "east", "west", "central"]
_CATEGORIES = ["tools", "toys", "food", "books", "garden", "electronics"]


def make_star_schema(catalog, n_customers=2000, n_products=400, n_dates=365,
                     n_sales=30000, seed=0):
    """A star schema with referential integrity.

    Tables::

        customer(c_id, c_segment, c_region, c_age)
        product(p_id, p_category, p_price)
        dates(d_id, d_month, d_weekday)
        sales(s_id, s_customer, s_product, s_date, s_amount, s_quantity)

    Foreign keys in ``sales`` are Zipf-skewed (hot customers/products), and
    ``s_amount`` correlates with the product's price — realistic structure
    for the advisor and estimator experiments.

    Returns:
        dict of table name -> :class:`Table`.
    """
    rng = ensure_rng(seed)
    customer = Table(
        TableSchema(
            "customer",
            [
                ColumnSchema("c_id", DataType.INT),
                ColumnSchema("c_segment", DataType.TEXT),
                ColumnSchema("c_region", DataType.TEXT),
                ColumnSchema("c_age", DataType.INT),
            ],
        ),
        columns={
            "c_id": np.arange(n_customers),
            "c_segment": np.array(
                [ _SEGMENTS[i] for i in rng.integers(0, len(_SEGMENTS), n_customers)],
                dtype=object,
            ),
            "c_region": np.array(
                [_REGIONS[i] for i in rng.integers(0, len(_REGIONS), n_customers)],
                dtype=object,
            ),
            "c_age": rng.integers(18, 90, size=n_customers),
        },
    )
    prices = np.round(rng.lognormal(mean=3.0, sigma=0.8, size=n_products), 2)
    product = Table(
        TableSchema(
            "product",
            [
                ColumnSchema("p_id", DataType.INT),
                ColumnSchema("p_category", DataType.TEXT),
                ColumnSchema("p_price", DataType.FLOAT),
            ],
        ),
        columns={
            "p_id": np.arange(n_products),
            "p_category": np.array(
                [_CATEGORIES[i] for i in rng.integers(0, len(_CATEGORIES), n_products)],
                dtype=object,
            ),
            "p_price": prices,
        },
    )
    dates = Table(
        TableSchema(
            "dates",
            [
                ColumnSchema("d_id", DataType.INT),
                ColumnSchema("d_month", DataType.INT),
                ColumnSchema("d_weekday", DataType.INT),
            ],
        ),
        columns={
            "d_id": np.arange(n_dates),
            "d_month": (np.arange(n_dates) // 31) % 12 + 1,
            "d_weekday": np.arange(n_dates) % 7,
        },
    )
    s_customer = zipf_integers(n_sales, n_customers, skew=1.1, seed=rng)
    s_product = zipf_integers(n_sales, n_products, skew=1.2, seed=rng)
    s_date = rng.integers(0, n_dates, size=n_sales)
    base_price = prices[s_product]
    quantity = rng.integers(1, 10, size=n_sales)
    amount = np.round(base_price * quantity * rng.uniform(0.8, 1.2, n_sales), 2)
    sales = Table(
        TableSchema(
            "sales",
            [
                ColumnSchema("s_id", DataType.INT),
                ColumnSchema("s_customer", DataType.INT),
                ColumnSchema("s_product", DataType.INT),
                ColumnSchema("s_date", DataType.INT),
                ColumnSchema("s_amount", DataType.FLOAT),
                ColumnSchema("s_quantity", DataType.INT),
            ],
        ),
        columns={
            "s_id": np.arange(n_sales),
            "s_customer": s_customer,
            "s_product": s_product,
            "s_date": s_date,
            "s_amount": amount,
            "s_quantity": quantity,
        },
    )
    tables = {}
    for t in (customer, product, dates, sales):
        catalog.register_table(t)
        catalog.analyze(t.name)
        tables[t.name] = t
    return tables


#: Join edges of the star schema, reused by workload generators.
STAR_EDGES = {
    "customer": ("sales", "s_customer", "customer", "c_id"),
    "product": ("sales", "s_product", "product", "p_id"),
    "dates": ("sales", "s_date", "dates", "d_id"),
}


def make_join_graph_schema(catalog, topology="chain", n_tables=6,
                           rows_per_table=2000, n_values=200, seed=0,
                           prefix="t", correlated=False):
    """Tables wired into a chain, star, or clique join graph.

    Every table has ``id`` (0..rows-1, unique), ``fk`` (Zipf into the key
    domain), and ``val`` (the filter column). The returned edge list
    encodes the topology:

    * ``chain``: ``t0.id = t1.fk``, ``t1.id = t2.fk``, ...
    * ``star``: ``t0.id = ti.fk`` for all i >= 1 (t0 is the hub).
    * ``clique``: edges between all pairs on ``fk`` columns.

    With ``correlated=True``, each table's ``fk`` is a noisy monotone
    function of its ``val`` — a filter on ``val`` then concentrates the
    surviving foreign keys into a narrow range, so filtered-join
    cardinalities violate the independence assumption badly (the regime
    where latency-trained optimizers beat analytic ones).

    Returns:
        ``(table_names, join_edges)``.
    """
    rng = ensure_rng(seed)
    names = ["%s%d" % (prefix, i) for i in range(n_tables)]
    for i, name in enumerate(names):
        n = rows_per_table
        schema = TableSchema(
            name,
            [
                ColumnSchema("id", DataType.INT),
                ColumnSchema("fk", DataType.INT),
                ColumnSchema("val", DataType.INT),
            ],
        )
        val = rng.integers(0, n_values, size=n)
        if correlated:
            fk = (
                val.astype(float) / n_values * rows_per_table
                + rng.normal(0, rows_per_table * 0.02, size=n)
            )
            fk = np.clip(fk, 0, rows_per_table - 1).astype(np.int64)
        else:
            fk = zipf_integers(n, rows_per_table, skew=0.8, seed=rng)
        table = Table(
            schema,
            columns={"id": np.arange(n), "fk": fk, "val": val},
        )
        catalog.register_table(table)
        catalog.analyze(name)
    edges = []
    if topology == "chain":
        for i in range(n_tables - 1):
            edges.append(JoinEdge(names[i], "id", names[i + 1], "fk"))
    elif topology == "star":
        for i in range(1, n_tables):
            edges.append(JoinEdge(names[0], "id", names[i], "fk"))
    elif topology == "clique":
        for i in range(n_tables):
            for j in range(i + 1, n_tables):
                edges.append(JoinEdge(names[i], "fk", names[j], "fk"))
    else:
        raise ValueError("topology must be chain, star, or clique")
    return names, edges


# ----------------------------------------------------------------------
# Workload generators
# ----------------------------------------------------------------------

def star_workload(n_queries=40, seed=0, max_dims=3):
    """Analytical queries over the star schema of :func:`make_star_schema`.

    Each query joins ``sales`` with 1..max_dims dimension tables, filters on
    dimension attributes and fact measures, and aggregates. Query templates
    repeat (with different constants), giving view/index advisors reuse to
    exploit.

    Returns:
        list of :class:`ConjunctiveQuery`.
    """
    rng = ensure_rng(seed)
    queries = []
    dim_names = list(STAR_EDGES)
    for __ in range(n_queries):
        k = int(rng.integers(1, max_dims + 1))
        dims = list(rng.choice(dim_names, size=k, replace=False))
        tables = ["sales"] + dims
        edges = [JoinEdge(*STAR_EDGES[d]) for d in dims]
        predicates = []
        if "customer" in dims:
            if rng.random() < 0.6:
                predicates.append(
                    Predicate("customer", "c_region", "=",
                              _REGIONS[int(rng.integers(0, len(_REGIONS)))])
                )
            else:
                predicates.append(
                    Predicate("customer", "c_age", "<", int(rng.integers(30, 80)))
                )
        if "product" in dims and rng.random() < 0.7:
            predicates.append(
                Predicate("product", "p_category", "=",
                          _CATEGORIES[int(rng.integers(0, len(_CATEGORIES)))])
            )
        if "dates" in dims and rng.random() < 0.5:
            predicates.append(
                Predicate("dates", "d_month", "=", int(rng.integers(1, 13)))
            )
        if rng.random() < 0.4:
            predicates.append(
                Predicate("sales", "s_quantity", ">=", int(rng.integers(2, 8)))
            )
        queries.append(
            ConjunctiveQuery(
                tables=tables,
                join_edges=edges,
                predicates=predicates,
                aggregates=[Aggregate("count"), Aggregate("sum", "sales", "s_amount")],
            )
        )
    return queries


def join_graph_workload(names, edges, n_queries=20, n_values=200, seed=0,
                        min_tables=3):
    """Queries over a join-graph schema from :func:`make_join_graph_schema`.

    Each query picks a connected subset of tables and adds a range filter
    per table with probability 0.7.
    """
    rng = ensure_rng(seed)
    adjacency = {n: set() for n in names}
    for e in edges:
        adjacency[e.left_table].add(e.right_table)
        adjacency[e.right_table].add(e.left_table)
    queries = []
    for __ in range(n_queries):
        size = int(rng.integers(min_tables, len(names) + 1))
        start = names[int(rng.integers(0, len(names)))]
        subset = [start]
        frontier = set(adjacency[start])
        while len(subset) < size and frontier:
            nxt = sorted(frontier)[int(rng.integers(0, len(frontier)))]
            subset.append(nxt)
            frontier |= adjacency[nxt]
            frontier -= set(subset)
        sub_edges = [
            e
            for e in edges
            if e.left_table in subset and e.right_table in subset
        ]
        predicates = []
        for t in subset:
            if rng.random() < 0.7:
                lo = int(rng.integers(0, n_values // 2))
                predicates.append(Predicate(t, "val", "<", lo + n_values // 4))
        queries.append(
            ConjunctiveQuery(tables=subset, join_edges=sub_edges,
                             predicates=predicates,
                             aggregates=[Aggregate("count")])
        )
    return queries


def selection_workload(table, column, n_queries, n_values, seed=0, ops=("=", "<", ">")):
    """Single-table selection queries for the cardinality experiments."""
    rng = ensure_rng(seed)
    queries = []
    for __ in range(n_queries):
        n_preds = int(rng.integers(1, 3))
        cols = list(rng.choice(column, size=n_preds, replace=False)) if isinstance(
            column, (list, tuple)
        ) else [column] * n_preds
        predicates = []
        for c in cols:
            op = ops[int(rng.integers(0, len(ops)))]
            predicates.append(Predicate(table, c, op, int(rng.integers(0, n_values))))
        queries.append(
            ConjunctiveQuery(tables=[table], predicates=predicates,
                             aggregates=[Aggregate("count")])
        )
    return queries
