"""The Project operator (column projection, optional DISTINCT dedup)."""

from repro.engine import plans as P
from repro.engine.operators.base import (
    ColumnarRelation,
    PhysicalOperator,
    register,
)
from repro.engine.operators.kernels import distinct_rows


@register(P.Project)
class ProjectOp(PhysicalOperator):
    """Column projection with optional first-occurrence DISTINCT."""

    def evaluate(self, run, step, inputs):
        node, child = run.nodes[step.slot], inputs[0]
        positions = [child.col_pos(t, c) for t, c in node.columns]
        run.charge(step.slot,
                   run.cost_model.params["cpu_tuple_cost"] * len(child))
        arrays = [child.arrays[p] for p in positions]
        n = len(child)
        if node.distinct:
            arrays, n = distinct_rows(arrays, n)
        return ColumnarRelation(node.columns, arrays, n_rows=n)
