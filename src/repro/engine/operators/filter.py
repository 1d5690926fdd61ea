"""Filter and Project operators (Project includes DISTINCT dedup)."""

import numpy as np

from repro.engine import plans as P
from repro.engine.operators.base import (
    ColumnarRelation,
    PhysicalOperator,
    Relation,
    eval_predicates,
    register,
)
from repro.engine.operators.kernels import factorize, predicate_mask


@register(P.Filter)
class FilterOp(PhysicalOperator):
    """Standalone predicate filter (predicates not pushed into a scan)."""

    def row(self, ctx, node):
        child = ctx.run(node.children[0])
        ctx.charge(
            node, ctx.cost_model.params["cpu_tuple_cost"] * len(child.rows)
        )
        rows = eval_predicates(child, node.predicates)
        return Relation(child.columns, rows)

    def vectorized(self, ctx, node):
        child = ctx.run(node.children[0])
        ctx.charge(node, ctx.cost_model.params["cpu_tuple_cost"] * len(child))
        if node.predicates:
            child = child.take(predicate_mask(child, node.predicates))
        return child


@register(P.Project)
class ProjectOp(PhysicalOperator):
    """Column projection with optional first-occurrence DISTINCT."""

    def row(self, ctx, node):
        child = ctx.run(node.children[0])
        positions = [child.col_pos(t, c) for t, c in node.columns]
        ctx.charge(
            node, ctx.cost_model.params["cpu_tuple_cost"] * len(child.rows)
        )
        rows = [tuple(row[p] for p in positions) for row in child.rows]
        if node.distinct:
            seen = set()
            deduped = []
            for row in rows:
                if row not in seen:
                    seen.add(row)
                    deduped.append(row)
            rows = deduped
        return Relation(node.columns, rows)

    def vectorized(self, ctx, node):
        child = ctx.run(node.children[0])
        positions = [child.col_pos(t, c) for t, c in node.columns]
        ctx.charge(node, ctx.cost_model.params["cpu_tuple_cost"] * len(child))
        arrays = [child.arrays[p] for p in positions]
        n = len(child)
        if node.distinct and n:
            codes = factorize(arrays)
            __, first = np.unique(codes, return_index=True)
            keep = np.sort(first)  # first-occurrence order, like the dict dedup
            arrays = [a[keep] for a in arrays]
            n = len(keep)
        return ColumnarRelation(node.columns, arrays, n_rows=n)
