"""Operator fusion: collapse a plan's tail into one pipelined pass.

The planner emits plan tails of the shape ``Limit?(HashAggregate(src))``
or ``Limit?(Project(Sort?(src)))`` where ``src`` is a scan (with pushed
predicates) or a completed join subtree. Executing that tail
operator-at-a-time materializes the full
filtered relation just so the next operator can immediately narrow it to
a handful of columns (or a handful of groups). :func:`fuse_plan` rewrites
such a tail into a single :class:`~repro.engine.plans.FusedPipelineOp`
that the executor evaluates in one pass — predicate mask, gather of only
the columns the tail actually reads, aggregation/dedup/limit — without
the intermediate relation ever existing.

Fusion is an *execution-time* rewrite, applied unconditionally: once
per cached plan (:func:`prepare_plan`, which compiles the fused tree
into the program stored in the plan-cache entry; a generic statement
reuses its template's, :func:`bind_memo`) or once per
``Executor.execute`` call on a plan handed in directly. The
plan cache, EXPLAIN cost annotations, and cost-model estimates all stay
in terms of the unfused plan; the fused
node keeps references to the original operator nodes so work accounting
is charged under the same operator keys, in the same order, with the
same cardinalities as operator-at-a-time evaluation — which is what
lets the differential fuzzer race the engine against the never-fusing
reference executor under ``tests/`` and demand identical
``work``/``operator_work`` numbers.

The pass deliberately refuses anything order-sensitive or pointless:

* a ``Sort`` anywhere in the tail (fused evaluation has no sort stage);
* ``EmptyResult`` sources (nothing to fuse);
* bare ``Project`` tails with no predicates, no DISTINCT, and no LIMIT
  (fusion would only relabel the plan).
"""

from repro.engine import plans as P
from repro.engine.program import compile_plan

#: Node types a fused tail may consume directly.
_SOURCE_TYPES = (
    P.SeqScan,
    P.IndexScan,
    P.ViewScan,
    P.HashJoin,
    P.NestedLoopJoin,
    P.CrossJoin,
)


def _lift_scan_predicates(node):
    """``(bare_source, lifted_predicates)`` for a fused tail's source.

    Pushed scan predicates move into the fused op so the scan emits raw
    rows and the fused pass applies one mask over exactly the columns it
    needs. Index probing stays in the scan (only the residual lifts) —
    the index lookup is the point of an IndexScan. Estimates carry over
    so plan featurization of the source stays stable.
    """
    if isinstance(node, P.SeqScan) and node.predicates:
        bare = P.SeqScan(node.table, ())
        lifted = list(node.predicates)
    elif isinstance(node, P.IndexScan) and node.residual:
        bare = P.IndexScan(node.table, node.index_name, node.predicate, ())
        lifted = list(node.residual)
    elif isinstance(node, P.ViewScan) and node.residual:
        bare = P.ViewScan(node.view, ())
        lifted = list(node.residual)
    else:
        return node, []
    bare.est_rows = node.est_rows
    bare.est_cost = node.est_cost
    # Back-reference for actual-row attribution: counts recorded against
    # the bare copy land on the original plan's scan node, so per-node
    # telemetry is identical with fusion on or off.
    bare.origin = getattr(node, "origin", node)
    return bare, lifted


def plan_reads(plan):
    """The ``(table, column)`` labels a (fused) plan reads above
    its scans: the tail's group-by, aggregate and project columns, the
    lifted predicates, every join edge, IndexScan/ViewScan residual and
    Sort key (a scan evaluates its own predicates on its segments). Or
    ``None`` — every column — when no Project/HashAggregate tail narrows
    the output (``SELECT *``)."""
    top = plan
    while isinstance(top, (P.Limit, P.Sort)):
        top = top.children[0]
    if not isinstance(top, (P.Project, P.HashAggregate, P.FusedPipelineOp)):
        return None
    reads = []
    for node in plan.walk():
        if isinstance(node, P.FusedPipelineOp):
            reads += [(p.table, p.column) for p in node.predicates]
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
    """Rewrite ``plan``'s tail into a ``FusedPipelineOp`` when profitable.

    Returns ``(plan, fused_ops)``: the (possibly rewritten) plan and the
    number of pipeline stages the fused node absorbed (0 when the tail
    does not match or fusion would not save a materialization). The
    caller's plan is never mutated.
    """
    node = plan
    limit_node = None
    if isinstance(node, P.Limit):
        limit_node, node = node, node.children[0]
    agg_node = None
    project_node = None
    if isinstance(node, P.HashAggregate):
        agg_node, node = node, node.children[0]
    elif isinstance(node, P.Project):
        project_node, node = node, node.children[0]
    else:
        return plan, 0
    if not isinstance(node, _SOURCE_TYPES):
        return plan, 0
    source, predicates = _lift_scan_predicates(node)
    worth_it = (
        agg_node is not None
        or bool(predicates)
        or (project_node is not None and project_node.distinct)
        or limit_node is not None
    )
    if not worth_it:
        return plan, 0
    fused = P.FusedPipelineOp(
        source,
        predicates=predicates,
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
