"""Join-order enumeration: Selinger-style DP over left-deep orders.

An order is a list of table names, priced by one objective,
:func:`order_cost`, so DP and the orders built outside the engine
(the greedy, random, UES and learned orderers of
:mod:`repro.ai4db.optimization`) compete on exactly the same footing.
The planner keeps only the order, so it asks :func:`dp_order`, which
skips the :func:`order_cost` pass.
"""

from itertools import combinations

from repro.common import PlanError


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


def dp_left_deep(query, estimator, cost_model):
    """Optimal left-deep order by dynamic programming over table subsets.

    Cross products are considered only when a subset has no connecting edge
    (disconnected join graphs), mirroring the System R policy.

    Returns:
        ``(order, cost)``.
    """
    order = dp_order(query, estimator, cost_model)
    return order, order_cost(query, order, estimator, cost_model)


def dp_order(query, estimator, cost_model):
    """:func:`dp_left_deep`'s order, unpriced."""
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
