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
    left_pos, right_pos = [], []
    for e in edges:
        lk, rk = (e.left_table, e.left_column), (e.right_table, e.right_column)
        if lk not in left.columns:
            lk, rk = rk, lk
        left_pos.append(left.col_pos(*lk))
        right_pos.append(right.col_pos(*rk))
    return left_pos, right_pos


def _v_join(run, step, inputs, charge):
    """Columnar equi-join shared by hash and NL charges."""
    left, right = inputs
    left_pos, right_pos = join_keys(run.nodes[step.slot].edges, left, right)
    il, ir = join_indices(
        [left.arrays[p] for p in left_pos],
        [right.arrays[p] for p in right_pos],
    )
    out = ColumnarRelation(
        left.columns + right.columns,
        [a[il] for a in left.arrays] + [a[ir] for a in right.arrays],
        n_rows=len(il),
    )
    run.charge(step.slot, charge(len(left), len(right), len(out)))
    return out


@register(P.HashJoin)
class HashJoinOp(PhysicalOperator):
    """Hash join (right child is the build side)."""

    def evaluate(self, run, step, inputs):
        return _v_join(run, step, inputs, run.cost_model.hash_join)


@register(P.NestedLoopJoin)
class NestedLoopJoinOp(PhysicalOperator):
    """Nested loops over the join edges (equi only)."""

    def evaluate(self, run, step, inputs):
        # Same matches as the hash join; only the charge differs.
        return _v_join(run, step, inputs, run.cost_model.nested_loop_join)


@register(P.CrossJoin)
class CrossJoinOp(PhysicalOperator):
    """Cartesian product, left-major order."""

    def evaluate(self, run, step, inputs):
        left, right = inputs
        il, ir = cross_indices(len(left), len(right))
        out = ColumnarRelation(
            left.columns + right.columns,
            [a[il] for a in left.arrays] + [a[ir] for a in right.arrays],
            n_rows=len(il),
        )
        run.charge(step.slot,
                   run.cost_model.cross_join(len(left), len(right)))
        return out
