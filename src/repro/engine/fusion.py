"""Operator fusion: run a scan's plan tail on the scan's segments.

The planner emits plan tails of the shape ``Limit?(HashAggregate(src))``
or ``Limit?(Project(Sort?(src)))``. When ``src`` is a ``SeqScan``,
:func:`fuse_plan` rewrites the tail into one
:class:`~repro.engine.plans.FusedPipelineOp` over that scan, which the
executor evaluates *late-materialized* on the table's row groups: the
scan's pushed predicates prune by zone map and mask in encoded space,
only the columns the tail reads are decoded, only for surviving rows, a
dictionary-coded GROUP BY key is grouped on its codes, and a LIMIT stops
the gather early (:mod:`repro.engine.operators.fused`).

Every other tail — over an ``IndexScan``, a ``ViewScan``, a join, an
``EmptyResult`` or a ``Sort`` — runs through the ``Project``,
``HashAggregate`` and ``Limit`` operators: each scan already gathers
only the plan's read set (:func:`plan_reads`), so a tail over rows that
are already decoded has nothing left to fuse. A bare ``Project`` over
an unfiltered scan with no DISTINCT and no LIMIT is refused too (fusion
would only relabel the plan).

Fusion is an *execution-time* rewrite, applied unconditionally: once
per cached plan (:func:`prepare_plan`, which compiles the fused tree
into the program stored in the plan-cache entry; a generic statement
reuses its template's, :func:`bind_memo`) or once per
``Executor.execute`` call on a plan handed in directly. The
plan cache, EXPLAIN cost annotations, and cost-model estimates all stay
in terms of the unfused plan; the fused node keeps references to the
original operator nodes (its child *is* the plan's scan) so work is
charged under the same operator keys, in the same order, with the same
cardinalities as operator-at-a-time evaluation — which is what lets the
differential fuzzer race the engine against the never-fusing reference
executor under ``tests/`` and demand identical ``work``/``operator_work``
numbers.
"""

from repro.engine import plans as P
from repro.engine.program import compile_plan

def plan_reads(plan):
    """The ``(table, column)`` labels a (fused) plan reads above
    its scans: the tail's group-by, aggregate and project columns, every
    join edge, IndexScan/ViewScan residual and Sort key (a scan evaluates
    its own predicates on its segments). Or ``None`` — every column —
    when no Project/HashAggregate tail narrows the output
    (``SELECT *``)."""
    top = plan
    while isinstance(top, (P.Limit, P.Sort)):
        top = top.children[0]
    if not isinstance(top, (P.Project, P.HashAggregate, P.FusedPipelineOp)):
        return None
    reads = []
    for node in plan.walk():
        if isinstance(node, P.FusedPipelineOp):
            node = node.agg_node or node.project_node
        if isinstance(node, P.Project):
            reads += node.columns
        elif isinstance(node, P.HashAggregate):
            reads += node.group_by
            reads += [(a.table, a.column) for a in node.aggregates
                      if a.column is not None]
        elif isinstance(node, (P.HashJoin, P.NestedLoopJoin)):
            for e in node.edges:
                reads += [(e.left_table, e.left_column),
                          (e.right_table, e.right_column)]
        elif isinstance(node, (P.IndexScan, P.ViewScan)):
            reads += [(p.table, p.column) for p in node.residual]
        elif isinstance(node, P.Sort):
            reads.append(node.key)
    return set(reads)


def fuse_plan(plan):
    """Rewrite ``plan``'s tail over a ``SeqScan`` into a
    ``FusedPipelineOp`` when that saves a pass.

    Returns ``(plan, fused_ops)``: the (possibly rewritten) plan and the
    number of pipeline stages the fused node absorbed (0 when the tail
    does not end in a ``SeqScan`` or fusion would not save a
    materialization). The caller's plan is never mutated.
    """
    node = plan
    limit_node = None
    if isinstance(node, P.Limit):
        limit_node, node = node, node.children[0]
    agg_node = project_node = None
    if isinstance(node, P.HashAggregate):
        agg_node, node = node, node.children[0]
    elif isinstance(node, P.Project):
        project_node, node = node, node.children[0]
    else:
        return plan, 0
    if not isinstance(node, P.SeqScan):
        return plan, 0
    if not (agg_node or node.predicates or limit_node
            or project_node.distinct):
        return plan, 0
    fused = P.FusedPipelineOp(
        node,
        project_node=project_node,
        agg_node=agg_node,
        limit_node=limit_node,
    )
    top = limit_node or agg_node or project_node
    fused.est_rows = top.est_rows
    fused.est_cost = top.est_cost
    return fused, fused.fused_ops


def prepare_plan(plan):
    """``(program, nodes)``: :func:`fuse_plan` of ``plan`` compiled
    (:func:`~repro.engine.program.compile_plan`, with the fused plan's
    :func:`plan_reads`) and the unfused
    preorder node list. The program holds the plan's structure only; the
    statement's predicates sit in the nodes' literal slots
    (:data:`LITERAL_SLOTS`), which a run reads through ``nodes``. So the
    plan cache stores the pair beside the plan, every warm run reuses
    it, and :func:`bind_memo` pairs the same program with another
    statement's nodes (the plan itself never points back at it, so an
    evicted plan is freed by reference counting). Do not mutate a plan
    once it is prepared."""
    fused, __ = fuse_plan(plan)
    nodes = list(plan.walk())
    return compile_plan(fused, nodes, plan_reads(fused)), nodes


#: Node attributes holding a statement's predicates, literal values
#: included — the only part of a plan that differs between two
#: statements of one shape on one plan (a scan's, an index probe's, a
#: residual).
LITERAL_SLOTS = ("predicate", "predicates", "residual")


def bind_plan(node, predicates, done):
    """``node``'s tree bound to another statement of its shape: a copy
    whose literal slots hold ``predicates[id(p)]`` for each template
    predicate ``p`` (``done``: ``id(node) -> copy``, kept for
    :func:`bind_memo`). The template is never mutated."""
    twin = done[id(node)] = object.__new__(type(node))
    state = twin.__dict__
    state.update(node.__dict__)
    state["children"] = [bind_plan(c, predicates, done)
                         for c in node.children]
    for slot in LITERAL_SLOTS:
        value = state.get(slot)
        if isinstance(value, list):
            state[slot] = [predicates[id(p)] for p in value]
        elif value is not None:
            state[slot] = predicates[id(value)]
    return twin


def bind_memo(memo, done):
    """:func:`prepare_plan` of the plan :func:`bind_plan` just bound
    (same ``done``), without compiling: the template's program, paired
    with the bound plan's nodes."""
    program, nodes = memo
    return program, [done[id(n)] for n in nodes]
