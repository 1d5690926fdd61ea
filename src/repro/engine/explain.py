"""EXPLAIN output: the plan text rendered from a statement's trace.

:class:`ExplainResult` is what ``Database.explain`` and
``Database.explain_analyze`` return; :func:`render_explain` is its text,
a pure function of the plan and the
:class:`~repro.engine.telemetry.StatementTrace` the pipeline filled.
"""

from repro.engine.fusion import fuse_plan


def render_explain(plan, trace):
    """EXPLAIN text as a function of the statement's trace.

    Without an ``execute`` span: the plan with the optimizer's
    estimates. With one (EXPLAIN ANALYZE): each node of the unfused plan
    with its estimated rows, executor-counted actual rows and q-error,
    then the scans' segment counters, the version vector the plan stage
    keyed on and the plan-cache verdict. Either way a plan the pipeline's
    generic route built ends with ``Plan: generic``.
    """
    run = trace.execute
    if run is None:
        text = plan.pretty()
    else:
        stats = iter(run.node_stats)

        def actuals(node):
            entry = next(stats)
            est, actual, q = (entry["est_rows"], entry["actual_rows"],
                              entry["q_error"])
            return "  (rows=%s actual=%s%s)" % (
                "?" if est is None else format(est, ".4g"),
                "?" if actual is None else actual,
                "" if q is None else " q=%s" % format(q, ".3g"),
            )

        text = plan.pretty(annotate=actuals)
        if run.segments_total:
            text += "\nSegments: %d scanned, %d pruned (%d bytes decoded)" % (
                run.segments_total - run.segments_pruned,
                run.segments_pruned,
                run.bytes_decoded,
            )
        if trace.plan_versions:
            text += "\nVersions: " + ", ".join(
                "%s=%s" % pair for pair in trace.plan_versions
            )
        text += "\nPlan cache: %s" % trace.cache_outcome
        if trace.invalidation_cause:
            text += " (%s)" % trace.invalidation_cause
    if trace.plan_route == "generic":
        text += "\nPlan: generic"
    return text


class ExplainResult:
    """Structured EXPLAIN output.

    ``str()`` of an ExplainResult is exactly the classic indented plan
    text (and ``==`` / ``in`` defer to it), so callers that treated
    ``Database.explain`` as returning a string keep working unchanged.
    Everything else is read off the trace:

    Attributes:
        text: :func:`render_explain` of the plan and the trace.
        plan: the (unfused) :class:`~repro.engine.plans.PhysicalPlan`.
        trace: the statement's
            :class:`~repro.engine.telemetry.StatementTrace` — cache
            outcome and invalidation cause, the version vector the plan
            stage keyed on; for EXPLAIN ANALYZE also the
            ``execute`` span (``node_stats``, segment counters).
        result: for EXPLAIN ANALYZE only — the
            :class:`~repro.engine.executor.ExecutionResult` of the run;
            ``None`` for a plain EXPLAIN.
    """

    __slots__ = ("text", "plan", "trace", "result")

    def __init__(self, plan, trace, result=None):
        self.text = render_explain(plan, trace)
        self.plan = plan
        self.trace = trace
        self.result = result

    @property
    def fused_ops(self):
        """How many tail stages the executor's fusion pass collapsed
        (EXPLAIN ANALYZE) or will collapse when this plan is executed."""
        return fuse_plan(self.plan)[1]

    def __str__(self):
        return self.text

    def __contains__(self, needle):
        return needle in self.text

    def __eq__(self, other):
        if isinstance(other, ExplainResult):
            return self.text == other.text
        if isinstance(other, str):
            return self.text == other
        return NotImplemented

    def __hash__(self):
        return hash(self.text)

    def __repr__(self):
        return "ExplainResult(cache_hit=%r, fused_ops=%d)" % (
            self.trace.cache_hit, self.fused_ops,
        )
