"""Sort and Limit operators."""

from repro.engine import plans as P
from repro.engine.operators.base import (
    ColumnarRelation,
    PhysicalOperator,
    register,
)
from repro.engine.operators.kernels import stable_sort_indices


@register(P.Sort)
class SortOp(PhysicalOperator):
    """Stable sort on one key."""

    def evaluate(self, run, step, inputs):
        node, child = run.nodes[step.slot], inputs[0]
        pos = child.col_pos(*node.key)
        run.charge(step.slot, run.cost_model.sort(len(child)))
        if len(child) == 0:
            return child
        idx = stable_sort_indices(child.arrays[pos], node.descending)
        return child.take(idx)


@register(P.Limit)
class LimitOp(PhysicalOperator):
    """Truncate output to the first ``n`` rows (charge-free)."""

    def evaluate(self, run, step, inputs):
        n, child = run.nodes[step.slot].n, inputs[0]
        if n >= len(child):
            return child
        return ColumnarRelation(
            child.columns, [a[:n] for a in child.arrays], n_rows=n
        )
