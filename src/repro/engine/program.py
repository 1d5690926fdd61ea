"""Plans lowered to programs: what a run of a prepared plan executes.

:func:`~repro.engine.fusion.prepare_plan` fuses a plan's tail and lowers
the fused tree once, with :func:`compile_plan`, into a :class:`Program`:
a flat postorder tuple of :class:`Step` s holding what a run would
otherwise resolve from the plan every time. The executor walks the
steps; nothing dispatches on a plan node at run time.

A program holds structure only: no literal value, no catalog object, no
per-run state. A run reads the literals from the statement's plan nodes
by preorder slot (``run.nodes[slot]``), so one program serves every
statement its plan is bound to (the generic route binds nodes, never a
program) on any catalog or snapshot; the columns a scan emits are
derived from the schema of the table the run reads.
"""

from collections import namedtuple

from repro.engine import plans as P
from repro.engine.operators import operator_for
from repro.engine.operators.scan import WINDOWS

#: One instruction. ``opens`` lists ``(slot, parent slot, name)`` of the
#: spans that begin with this step, outermost first (a node's span opens
#: with its leftmost leaf; the ``execute`` span is slot -1); ``zero``
#: lists ``(slot, name)`` of the absorbed nodes' zero-time spans, opened
#: under this step's span before it evaluates.
Step = namedtuple("Step", "evaluate arity slot name opens zero args")

#: A compiled plan: its steps, how many span slots a run needs (the
#: unfused plan's nodes first, in preorder), the fused stage count and
#: the read set (:func:`~repro.engine.fusion.plan_reads`) a scan derives
#: its columns from.
Program = namedtuple("Program", "steps n_slots fused_ops reads")

#: A fused tail's compiled arguments: the span slots of its source and
#: absorbed nodes, ``(slot, attribute)`` of the plan node holding its
#: predicates (``None``: a join source lifts none), and the table a
#: late-materialized SeqScan source reads (else ``None``).
Tail = namedtuple("Tail", "source lifted agg project limit table")


def compile_plan(fused, nodes, reads):
    """Lower the fused tree ``fused`` of the plan whose preorder node list
    is ``nodes`` into a :class:`Program`; ``reads`` is the fused plan's
    read set."""
    slots = {id(n): i for i, n in enumerate(nodes)}
    steps = []

    def slot_of(node):
        # A bare scan copy stands for its origin; a node the plan does
        # not hold (a fused op) takes the next free slot.
        key = id(getattr(node, "origin", node))
        slot = slots.get(key)
        if slot is None:
            slot = slots[key] = len(slots)
        return slot

    def lower(node, parent, opens):
        slot = slot_of(node)
        name = node.op_name
        opens += ((slot, parent, name),)
        children = node.children
        zero = args = ()
        if isinstance(node, (P.SeqScan, P.IndexScan)):
            args = (node.table,)
            if isinstance(node, P.IndexScan):
                args += (node.index_name, WINDOWS.get(node.predicate.op),
                         not hasattr(node, "origin"))
        elif isinstance(node, P.ViewScan):
            args = not hasattr(node, "origin")
        elif isinstance(node, P.FusedPipelineOp):
            args = _tail(node, slot_of)
            absorbed = (node.agg_node or node.project_node, node.limit_node)
            if args.table is not None:  # late-materialized: no child step
                absorbed = (children[0],) + absorbed
                children = ()
            zero = tuple((slot_of(n), n.op_name)
                         for n in absorbed if n is not None)
        for i, child in enumerate(children):
            lower(child, slot, opens if i == 0 else ())
        steps.append(Step(operator_for(node).evaluate, len(children), slot,
                          name, () if children else opens, zero, args))

    lower(fused, -1, ())
    return Program(tuple(steps), len(slots), getattr(fused, "fused_ops", 0),
                   None if reads is None else frozenset(reads))


def _tail(node, slot_of):
    """A fused op's compiled :class:`Tail`."""
    source = node.children[0]
    origin = slot_of(source)
    if isinstance(source, P.SeqScan):
        lifted = (origin, "predicates")
    elif isinstance(source, (P.IndexScan, P.ViewScan)):
        lifted = (origin, "residual")
    else:
        lifted = None
    table = None
    if isinstance(source, P.SeqScan) and not source.predicates:
        table = source.table
    return Tail(origin, lifted, *[
        None if n is None else slot_of(n)
        for n in (node.agg_node, node.project_node, node.limit_node)],
        table=table)
