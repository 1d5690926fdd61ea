"""Physical plan trees.

A physical plan is a tree of operator nodes. Each node carries the
optimizer's estimates (``est_rows``, ``est_cost``) so learned components can
featurize plans, and the executor interprets the tree to produce rows and
an exact *work* measurement (tuples processed) that serves as the
deterministic ground-truth latency in experiments.
"""

from repro.common import PlanError


class PhysicalPlan:
    """Base class for physical operator nodes.

    Attributes:
        children: child plan nodes.
        est_rows: optimizer's output-cardinality estimate.
        est_cost: optimizer's cumulative cost estimate for the subtree.
    """

    def __init__(self, children=()):
        self.children = list(children)
        self.est_rows = None
        self.est_cost = None

    @property
    def op_name(self):
        """Operator name used in plan rendering and featurization."""
        return type(self).__name__

    def walk(self):
        """Yield every node in the subtree, preorder."""
        yield self
        for child in self.children:
            yield from child.walk()

    def output_tables(self):
        """Set of base-table names contributing to this node's output."""
        out = set()
        for node in self.walk():
            if isinstance(node, (SeqScan, IndexScan)):
                out.add(node.table)
            elif isinstance(node, ViewScan):
                out.update(node.view.query.tables)
        return out

    def pretty(self, indent=0, annotate=None):
        """Render the plan as an indented explain-style string.

        ``annotate(node)`` supplies each line's suffix, called in
        preorder; the default shows the optimizer's estimates.
        """
        if annotate is None:
            annotate = PhysicalPlan._estimates
        lines = ["  " * indent + self.describe() + annotate(self)]
        for child in self.children:
            lines.append(child.pretty(indent + 1, annotate))
        return "\n".join(lines)

    def _estimates(self):
        if self.est_rows is None:
            return ""
        return "  (rows=%s cost=%s)" % (
            format(self.est_rows, ".4g"),
            format(self.est_cost, ".4g") if self.est_cost is not None else "?",
        )

    def describe(self):
        """One-line node description (overridden by subclasses)."""
        return self.op_name

    def __repr__(self):
        return "<%s>" % self.describe()


class SeqScan(PhysicalPlan):
    """Full scan of a base table, applying pushed-down predicates."""


    def __init__(self, table, predicates=()):
        super().__init__()
        self.table = table
        self.predicates = list(predicates)

    def describe(self):
        preds = " [%s]" % ", ".join(map(str, self.predicates)) if self.predicates else ""
        return "SeqScan(%s)%s" % (self.table, preds)


class IndexScan(PhysicalPlan):
    """Index lookup/range scan on one indexed predicate, plus residual filters."""


    def __init__(self, table, index_name, predicate, residual=()):
        super().__init__()
        self.table = table
        self.index_name = index_name
        self.predicate = predicate
        self.residual = list(residual)

    def describe(self):
        res = " +%d residual" % len(self.residual) if self.residual else ""
        return "IndexScan(%s via %s on %s)%s" % (
            self.table, self.index_name, self.predicate, res
        )


class ViewScan(PhysicalPlan):
    """Scan of a materialized view with residual predicates."""


    def __init__(self, view, residual=()):
        super().__init__()
        self.view = view
        self.residual = list(residual)

    def describe(self):
        return "ViewScan(%s, residual=%d)" % (self.view.name, len(self.residual))


class NestedLoopJoin(PhysicalPlan):
    """Tuple-at-a-time nested loops over the join edges (equi only)."""


    def __init__(self, left, right, edges):
        super().__init__([left, right])
        if not edges:
            raise PlanError("NestedLoopJoin requires at least one join edge")
        self.edges = list(edges)

    def describe(self):
        return "NestedLoopJoin(%s)" % ", ".join(map(str, self.edges))


class HashJoin(PhysicalPlan):
    """Hash join; the right child is the build side."""


    def __init__(self, left, right, edges):
        super().__init__([left, right])
        if not edges:
            raise PlanError("HashJoin requires at least one join edge")
        self.edges = list(edges)

    def describe(self):
        return "HashJoin(%s)" % ", ".join(map(str, self.edges))


class CrossJoin(PhysicalPlan):
    """Cartesian product (only produced for disconnected join graphs)."""

    def __init__(self, left, right):
        super().__init__([left, right])

    def describe(self):
        return "CrossJoin"


class Project(PhysicalPlan):
    """Column projection (and implicit dedup when ``distinct``)."""


    def __init__(self, child, columns, distinct=False):
        super().__init__([child])
        self.columns = list(columns)  # list of (table, column)
        self.distinct = distinct

    def describe(self):
        cols = ", ".join("%s.%s" % tc for tc in self.columns)
        return "Project(%s)%s" % (cols, " DISTINCT" if self.distinct else "")


class HashAggregate(PhysicalPlan):
    """Group-by + aggregate evaluation via hashing."""


    def __init__(self, child, group_by, aggregates):
        super().__init__([child])
        self.group_by = list(group_by)  # list of (table, column)
        self.aggregates = list(aggregates)

    def describe(self):
        return "HashAggregate(keys=%d, aggs=%s)" % (
            len(self.group_by),
            ", ".join(map(str, self.aggregates)),
        )


class Sort(PhysicalPlan):
    """Sort on one key."""

    def __init__(self, child, key, descending=False):
        super().__init__([child])
        self.key = key  # (table, column)
        self.descending = descending

    def describe(self):
        return "Sort(%s.%s %s)" % (
            self.key[0], self.key[1], "DESC" if self.descending else "ASC"
        )


class Limit(PhysicalPlan):
    """Truncate output to ``n`` rows."""

    def __init__(self, child, n):
        super().__init__([child])
        if n < 0:
            raise PlanError("LIMIT must be non-negative")
        self.n = n

    def describe(self):
        return "Limit(%d)" % self.n


class FusedPipelineOp(PhysicalPlan):
    """A fused Filter→Project/Aggregate(→Limit) plan tail.

    Produced by :func:`repro.engine.fusion.fuse_plan` at execution time —
    never by the planner, so cached plans and cost estimates stay in
    terms of the unfused operators. The executor evaluates predicate
    mask, projection/aggregation, and limit in one pass over the source's
    column arrays without materializing the intermediate filtered (or
    projected) relation.

    Exactly one of ``project_node``/``agg_node`` is set. ``predicates``
    is the predicate list lifted off the source scan (every predicate
    the planner emits is pushed into a scan), so one mask stage always
    suffices.
    """


    def __init__(self, source, predicates=(), project_node=None,
                 agg_node=None, limit_node=None):
        super().__init__([source])
        if (project_node is None) == (agg_node is None):
            raise PlanError(
                "FusedPipelineOp needs exactly one of project_node/agg_node"
            )
        self.predicates = list(predicates)
        self.project_node = project_node
        self.agg_node = agg_node
        self.limit_node = limit_node

    @property
    def stages(self):
        """Names of the absorbed pipeline stages, in evaluation order."""
        names = []
        if self.predicates:
            names.append("Filter")
        if self.agg_node is not None:
            names.append("Aggregate")
        if self.project_node is not None:
            names.append("Project")
            if self.project_node.distinct:
                names.append("Distinct")
        if self.limit_node is not None:
            names.append("Limit")
        return names

    @property
    def fused_ops(self):
        """How many pipeline stages this node absorbed."""
        return len(self.stages)

    def describe(self):
        return "FusedPipelineOp(%s)" % "→".join(self.stages)


class EmptyResult(PhysicalPlan):
    """Plan node producing no rows (e.g., contradictory predicates)."""

    def __init__(self, columns):
        super().__init__()
        self.columns = list(columns)

    def describe(self):
        return "EmptyResult"


def operator_counts(plan):
    """How many nodes of each operator type a plan contains.

    Returns ``{op_name: count}`` — handy for cross-checking executor
    telemetry (every node should contribute exactly one batch) and for
    plan-shape features.
    """
    counts = {}
    for node in plan.walk():
        counts[node.op_name] = counts.get(node.op_name, 0) + 1
    return counts
