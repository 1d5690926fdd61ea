"""Join-order enumeration: Selinger-style DP over left-deep orders.

An order is a list of table names. The planner asks :func:`dp_order`
for the cheapest one under its cost model and keeps only the order;
pricing whole orders, so DP can be raced against the greedy, random,
UES and learned orderers, is :mod:`repro.ai4db.optimization.join_order`'s.
"""

from itertools import combinations

from repro.common import PlanError


def dp_order(query, estimator, cost_model):
    """Optimal left-deep order by dynamic programming over table subsets.

    Cross products are considered only when a subset has no connecting edge
    (disconnected join graphs), mirroring the System R policy.

    Returns:
        the order, a list of table names.
    """
    tables = list(query.tables)
    n = len(tables)
    if n == 0:
        raise PlanError("query has no tables")
    index = {t: i for i, t in enumerate(tables)}
    # best[frozenset of indices] = (cost_without_scans, rows, order tuple)
    best = {}
    for i in range(n):
        best[frozenset([i])] = (
            0.0, estimator.estimate_table(query, tables[i]), (tables[i],))

    adjacency = [set() for _ in range(n)]
    for e in query.join_edges:
        a, b = index[e.left_table], index[e.right_table]
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
