"""Plan executor: a thin driver over the physical-operator layer.

Interprets a physical plan over the catalog, producing rows *and* an exact
work measurement. Work is computed with the same formulas as the analytic
cost model but on the **actual** cardinalities observed at run time, so:

* measured work == cost-model output under a perfect estimator, and
* the gap between a plan's ``est_cost`` and its measured work is exactly
  the damage done by cardinality misestimation — the quantity the learned
  optimizer experiments report.

The operator implementations live in :mod:`repro.engine.operators`, one
module per operator family, each exposing one columnar ``evaluate``
method behind the uniform
:class:`~repro.engine.operators.PhysicalOperator` interface.

There is one way a plan runs. Preparing it
(:func:`~repro.engine.fusion.prepare_plan`, once per plan-cache entry)
fuses its tail and compiles the fused tree into a flat postorder
:class:`~repro.engine.program.Program`; a run walks those steps over a
value stack, and every node is evaluated columnar — NumPy arrays
end-to-end, rows materialized once at the top. The executor supplies
the evaluation context — a per-run object, not executor state: catalog,
cost model, the statement's plan nodes, work accounting and per-node
actual-row counters, all recorded as spans of the statement's trace
(:mod:`repro.engine.telemetry`).
Work is charged from observed cardinalities, never from implementation
details, which is what keeps "cost gap == misestimation damage" true;
the same cardinalities are the per-node ``actual_rows`` counters that
feed the EXPLAIN ANALYZE view and any cardinality-feedback loop
installed from outside the engine. What the right rows, order, work and
counters *are* is specified by the tuple-at-a-time reference executor
the test suite races this one against (``tests/reference_executor.py``);
it is not shipped.

Results are fully materialized (these are analytics-scale experiments, not
a streaming engine).
"""

from repro.engine.fusion import prepare_plan
from repro.engine.optimizer.cost import CostModel
from repro.engine.telemetry import StatementTrace


class ExecutionResult:
    """Executor output: the result relation plus the statement's trace.

    Attributes:
        relation: the materialized result.
        trace: the :class:`~repro.engine.telemetry.StatementTrace` the
            run was recorded into.
        telemetry: that trace's ``execute`` span — per-operator rows,
            work and time, ``node_stats``, segment counters.
    """

    def __init__(self, relation, trace):
        self.relation = relation
        self.trace = trace
        self.telemetry = trace.execute

    @property
    def work(self):
        """The run's exact deterministic work measurement."""
        return self.telemetry.total_work

    @property
    def operator_work(self):
        """``{op_name: work}`` over the operators that charged any."""
        return self.telemetry.operator_work

    @property
    def rows(self):
        """Result rows (list of tuples)."""
        return self.relation.rows

    @property
    def columns(self):
        """Result column labels."""
        return self.relation.columns

    def __repr__(self):
        return "ExecutionResult(rows=%d, work=%.1f)" % (len(self.rows), self.work)


class _Run:
    """One execution's state — the *evaluation context* handed to every
    :class:`~repro.engine.operators.PhysicalOperator`: the statement's
    plan ``nodes`` (preorder; a step reads its literals at its slot),
    :meth:`charge` for work accounting, :meth:`count` for actual-row
    attribution and :meth:`record_segments` for a scan's storage
    counters. A fresh object per ``execute()`` call, so concurrent runs
    on one shared :class:`Executor` never see each other's accounting.

    Attributes:
        catalog: what operators read from (the statement's pinned
            snapshot on the pipeline's route).
        spans: one span per program slot, the ``execute`` span last.
        reads: the program's read set
            (:func:`~repro.engine.fusion.plan_reads`).
    """

    __slots__ = ("catalog", "cost_model", "nodes", "spans", "reads")

    def __init__(self, catalog, cost_model, nodes, spans, reads):
        self.catalog = catalog
        self.cost_model = cost_model
        self.nodes = nodes
        self.spans = spans
        self.reads = reads

    def charge(self, slot, amount):
        """Charge ``amount`` of work to the node at ``slot``."""
        span = self.spans[slot]
        span.work = amount if span.work is None else span.work + amount

    def count(self, slot, n):
        """Record the node's actual output cardinality (assignment, not
        accumulation — later, more specific attributions win)."""
        self.spans[slot].rows = int(n)

    def record_segments(self, slot, total, pruned, bytes_decoded, seconds):
        """A scan's storage counters, on the scan that read them: row
        groups considered and zone-map-skipped, encoded bytes decoded,
        and the time the decoding took."""
        self.spans[slot].attrs.update(
            segments_total=int(total), segments_pruned=int(pruned),
            bytes_decoded=int(bytes_decoded), decode_seconds=seconds)


def _walk(program, run):
    """Run ``program``'s steps in order; the root step's output.

    Each step opens the spans that begin with it (a node's span opens
    with its leftmost leaf, so children nest under it and its self time
    is its duration minus theirs), opens its absorbed nodes' zero-time
    spans, evaluates on the child outputs it takes off the value stack,
    and closes its span with its output's row count — which a fused
    tail then overrides for the nodes it absorbed, so every plan node
    ends up with the cardinality it would have produced unfused. A step
    that raises leaves every open span closed, children before their
    parents, so each child still ends inside its parent."""
    spans = run.spans
    values = []
    try:
        for step in program.steps:
            for slot, parent, name in step.opens:
                spans[slot] = spans[parent].child(name)
            span = spans[step.slot]
            for slot, name in step.zero:
                spans[slot] = span.child(name, seconds=0.0)
            arity = step.arity
            if arity:
                inputs = values[-arity:]
                del values[-arity:]
            else:
                inputs = ()
            out = step.evaluate(run, step, inputs)
            span.close()
            span.rows = len(out)
            values.append(out)
    except BaseException:
        for span in reversed(list(spans[-1].walk())):
            if span.seconds is None:
                span.close()
        raise
    return values[0]


class Executor:
    """Executes physical plans against a catalog.

    Args:
        catalog: the :class:`~repro.engine.catalog.Catalog`.
        cost_model: the :class:`CostModel` whose constants weight the work
            accounting (pass the knob-derived model so knob settings change
            measured work, closing the tuning feedback loop).

    Scans always consult zone maps to skip whole column segments a
    pushed-down predicate provably matches no (or every) row of; that
    never changes rows, order, or work — only wall time and the
    ``segments_pruned``/``bytes_decoded`` telemetry. The executor holds
    no per-run state: that lives on the :class:`_Run` each
    :meth:`execute` call creates.
    """

    def __init__(self, catalog, cost_model=None):
        self.catalog = catalog
        self.cost_model = cost_model or CostModel()

    def execute(self, plan, catalog=None, trace=None, memo=None):
        """Run ``plan``; returns an :class:`ExecutionResult`.

        ``memo`` is the plan's :func:`~repro.engine.fusion.prepare_plan`
        pair — compiled program, preorder node list — as the pipeline's
        plan cache holds it; without one the plan is prepared (fused and
        compiled) for this call. The caller's nodes are never
        rewritten, and the fused pass charges work through their slots,
        so accounting stays in terms of the plan the caller handed in.

        ``catalog`` is this run's read surface: the statement's pinned
        :class:`~repro.engine.catalog.CatalogSnapshot` on the pipeline's
        route, the executor's own catalog by default.

        The run is recorded as an ``execute`` span under ``trace``'s
        root (a trace of its own when the executor is driven directly):
        one span per executed node, and every node of the *original*
        plan tagged with its preorder position and estimate, which is
        what ``node_stats`` — the est-vs-actual view behind EXPLAIN
        ANALYZE — reads, and ``catalog_versions``, the read surface's
        ``version_map()``.
        """
        own = trace is None
        if own:
            trace = StatementTrace()
        catalog = self.catalog if catalog is None else catalog
        program, nodes = memo or prepare_plan(plan)
        with trace.root.child("execute") as span:
            spans = [None] * program.n_slots
            spans.append(span)
            run = _Run(catalog, self.cost_model, nodes, spans, program.reads)
            span.attrs["fused_ops"] = program.fused_ops
            relation = _walk(program, run).to_relation()
            for i, node in enumerate(nodes):
                attrs = spans[i].attrs
                attrs["node"] = i
                attrs["est_rows"] = node.est_rows
            span.attrs["catalog_versions"] = catalog.version_map()
        if own:
            trace.root.close()
        return ExecutionResult(relation, trace)
