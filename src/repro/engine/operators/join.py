"""Join operators: HashJoin, NestedLoopJoin, CrossJoin.

All joins emit rows in nested-loop order — left rows in order, each left
row's right matches in original right order — which is what the
reference executor under ``tests/`` specifies. Work is charged from
observed cardinalities via the cost-model formula matching the join
algorithm, never from implementation details.
"""

from repro.engine import plans as P
from repro.engine.operators.base import (
    ColumnarRelation,
    PhysicalOperator,
    register,
)
from repro.engine.operators.kernels import cross_indices, join_indices


def join_keys(edges, left, right):
    """Positions of the ``edges``' key columns in the two relations
    being joined (each edge may name either side first)."""
    left_index = left._index
    left_pos, right_pos = [], []
    for e in edges:
        if (e.left_table, e.left_column) in left_index:
            lp = left.col_pos(e.left_table, e.left_column)
            rp = right.col_pos(e.right_table, e.right_column)
        else:
            lp = left.col_pos(e.right_table, e.right_column)
            rp = right.col_pos(e.left_table, e.left_column)
        left_pos.append(lp)
        right_pos.append(rp)
    return left_pos, right_pos


def _v_join(ctx, node, charge):
    """Columnar equi-join shared by hash and NL charges."""
    left = ctx.run(node.children[0])
    right = ctx.run(node.children[1])
    left_pos, right_pos = join_keys(node.edges, left, right)
    il, ir = join_indices(
        [left.arrays[p] for p in left_pos],
        [right.arrays[p] for p in right_pos],
    )
    out = ColumnarRelation(
        left.columns + right.columns,
        [a[il] for a in left.arrays] + [a[ir] for a in right.arrays],
        n_rows=len(il),
    )
    ctx.charge(node, charge(len(left), len(right), len(out)))
    return out


@register(P.HashJoin)
class HashJoinOp(PhysicalOperator):
    """Hash join (right child is the build side)."""

    def evaluate(self, ctx, node):
        return _v_join(ctx, node, ctx.cost_model.hash_join)


@register(P.NestedLoopJoin)
class NestedLoopJoinOp(PhysicalOperator):
    """Nested loops over the join edges (equi only)."""

    def evaluate(self, ctx, node):
        # Same matches as the hash join; only the charge differs.
        return _v_join(ctx, node, ctx.cost_model.nested_loop_join)


@register(P.CrossJoin)
class CrossJoinOp(PhysicalOperator):
    """Cartesian product, left-major order."""

    def evaluate(self, ctx, node):
        left = ctx.run(node.children[0])
        right = ctx.run(node.children[1])
        il, ir = cross_indices(len(left), len(right))
        out = ColumnarRelation(
            left.columns + right.columns,
            [a[il] for a in left.arrays] + [a[ir] for a in right.arrays],
            n_rows=len(il),
        )
        ctx.charge(node, ctx.cost_model.cross_join(len(left), len(right)))
        return out
