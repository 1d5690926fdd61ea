"""Join-order enumeration: Selinger-style DP, greedy, and random baselines.

All enumerators produce *left-deep orders* — a list of table names — and
share one objective, :func:`order_cost`, so the traditional enumerators and
the learned agents in :mod:`repro.ai4db.optimization.join_order` compete on
exactly the same footing. The planner keeps only the order, so it asks
:func:`left_deep_order`, which skips the :func:`order_cost` pass.
"""

from itertools import combinations

from repro.common import PlanError, ensure_rng


def order_cost(query, order, estimator, cost_model):
    """Cost of executing a left-deep join order.

    The first table is scanned; each subsequent table is joined to the
    accumulated prefix with the cheaper of hash/nested-loop join (cross
    join when no edge connects it). Scan costs for the base tables are
    included once.

    Args:
        query: the :class:`~repro.engine.query.ConjunctiveQuery`.
        order: list of table names covering the query's tables exactly.
        estimator: a cardinality estimator.
        cost_model: a :class:`~repro.engine.optimizer.cost.CostModel`.

    Returns:
        float total cost.
    """
    if {t.lower() for t in order} != {t.lower() for t in query.tables}:
        raise PlanError("order must cover exactly the query's tables")
    total = 0.0
    first = order[0]
    bare = _NoPredicateView(query)
    current_rows = estimator.estimate_table(query, first)
    total += cost_model.seq_scan(estimator.estimate_subset(bare, [first]))
    joined = [first]
    for t in order[1:]:
        right_rows = estimator.estimate_table(query, t)
        total += cost_model.seq_scan(estimator.estimate_subset(bare, [t]))
        out_rows = estimator.estimate_subset(query, joined + [t])
        edges = query.edges_between(joined, t)
        if edges:
            __, join_cost = cost_model.choose_join(current_rows, right_rows, out_rows)
        else:
            join_cost = cost_model.cross_join(current_rows, right_rows)
        total += join_cost
        current_rows = out_rows
        joined.append(t)
    return total


class _NoPredicateView:
    """Query view with all filter predicates stripped (for base-scan costs)."""

    def __init__(self, query):
        self._query = query
        self.tables = query.tables
        self.join_edges = query.join_edges
        self.predicates = []

    def predicates_on(self, table):
        return []

    def memo_overrides(self, tables):
        """The planning memo's key part: ``(table, ())`` for each of
        ``tables`` the query filters."""
        return tuple(sorted((t.lower(), ()) for t in tables
                            if self._query.predicates_on(t)))

    def signature(self):
        return (self._query.signature(), "__nopred__")


def left_deep_order(enumerator, query, estimator, cost_model, seed=None):
    """The order ``enumerator`` (``"dp"``, ``"greedy"`` or ``"random"``)
    picks, as :func:`dp_left_deep`, :func:`greedy_order` and
    :func:`random_order` would, without pricing it."""
    if enumerator == "dp":
        return _dp_order(query, estimator, cost_model)
    if enumerator == "greedy":
        return _greedy_order(query, estimator)
    if enumerator == "random":
        return _random_order(query, seed)
    raise PlanError(f"unknown enumerator {enumerator!r}")


def dp_left_deep(query, estimator, cost_model):
    """Optimal left-deep order by dynamic programming over table subsets.

    Cross products are considered only when a subset has no connecting edge
    (disconnected join graphs), mirroring the System R policy.

    Returns:
        ``(order, cost)``.
    """
    order = _dp_order(query, estimator, cost_model)
    return order, order_cost(query, order, estimator, cost_model)


def _dp_order(query, estimator, cost_model):
    tables = list(query.tables)
    n = len(tables)
    if n == 0:
        raise PlanError("query has no tables")
    index = {t.lower(): i for i, t in enumerate(tables)}
    # best[frozenset of indices] = (cost_without_scans, rows, order tuple)
    best = {}
    for i in range(n):
        best[frozenset([i])] = (
            0.0, estimator.estimate_table(query, tables[i]), (tables[i],))

    adjacency = [set() for _ in range(n)]
    for e in query.join_edges:
        a, b = index[e.left_table.lower()], index[e.right_table.lower()]
        adjacency[a].add(b)
        adjacency[b].add(a)

    for size in range(1, n):
        for subset_tuple in combinations(range(n), size):
            subset = frozenset(subset_tuple)
            if subset not in best:
                continue
            cost_s, rows_s, order_s = best[subset]
            connected = set()
            for i in subset:
                connected |= adjacency[i]
            connected -= subset
            candidates = connected if connected else set(range(n)) - subset
            for j in candidates:
                new_set = subset | {j}
                out_rows = estimator.estimate_subset(
                    query, [tables[k] for k in new_set]
                )
                right_rows = estimator.estimate_table(query, tables[j])
                if j in connected:
                    __, join_cost = cost_model.choose_join(
                        rows_s, right_rows, out_rows
                    )
                else:
                    join_cost = cost_model.cross_join(rows_s, right_rows)
                new_cost = cost_s + join_cost
                entry = best.get(new_set)
                if entry is None or new_cost < entry[0]:
                    best[new_set] = (new_cost, out_rows, order_s + (tables[j],))

    full = frozenset(range(n))
    if full not in best:
        raise PlanError("DP failed to cover all tables")
    return list(best[full][2])


def _grow(query, first, pick, connected=True):
    """A left-deep order from ``first``: ``pick(order, pool)`` chooses each
    next table among those adjacent to the prefix (among all remaining
    ones when none is, or when not ``connected``)."""
    order = [first]
    remaining = [t for t in query.tables if t.lower() != first.lower()]
    while remaining:
        adjacent = [t for t in remaining
                    if connected and query.edges_between(order, t)]
        nxt = pick(order, adjacent or remaining)
        order.append(nxt)
        remaining.remove(nxt)
    return order


def greedy_order(query, estimator, cost_model):
    """Greedy left-deep order: start at the smallest filtered table, then
    repeatedly join the adjacent table minimizing the intermediate size.

    Returns:
        ``(order, cost)``.
    """
    order = _greedy_order(query, estimator)
    return order, order_cost(query, order, estimator, cost_model)


def _greedy_order(query, estimator):
    start = min(query.tables, key=lambda t: estimator.estimate_table(query, t))
    return _grow(query, start, lambda order, pool: min(
        pool, key=lambda t: estimator.estimate_subset(query, order + [t])))


def random_order(query, estimator, cost_model, seed=None, connected=True):
    """A random (by default connectivity-respecting) left-deep order.

    Returns:
        ``(order, cost)``.
    """
    order = _random_order(query, seed, connected)
    return order, order_cost(query, order, estimator, cost_model)


def _random_order(query, seed, connected=True):
    rng = ensure_rng(seed)
    tables = query.tables
    return _grow(query, tables[int(rng.integers(0, len(tables)))],
                 lambda order, pool: pool[int(rng.integers(0, len(pool)))],
                 connected)
