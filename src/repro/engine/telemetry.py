"""The engine's telemetry records.

:class:`ExecutionTelemetry` (per-operator batch/row/time counters the
executor fills in while running a plan), :class:`PipelineTelemetry`
(per-stage timings of one trip through the pipeline) and
:class:`ServingRollup` (per-tenant / per-session accounting of served
statements), plus the two helpers they share with their readers:
:func:`q_error` and :func:`percentile`.
"""

import threading


def q_error(est_rows, actual_rows):
    """The q-error of one cardinality estimate (symmetric ratio, >= 1).

    ``max(est/actual, actual/est)`` with both sides floored at one row so
    empty results and zero estimates stay finite — the standard metric of
    the learned-cardinality literature. Returns ``None`` when either side
    is unknown.
    """
    if est_rows is None or actual_rows is None:
        return None
    est = max(float(est_rows), 1.0)
    actual = max(float(actual_rows), 1.0)
    return max(est / actual, actual / est)


class ExecutionTelemetry:
    """Per-operator execution counters for one plan run.

    Attributes:
        operators: ``{op_name: {"batches": int, "rows": int,
            "seconds": float}}`` — one entry per operator type;
            ``batches`` counts operator invocations (one batch per
            invocation in this engine), ``rows`` sums output rows, and
            ``seconds`` sums self-time (child operator time excluded).
        fused_ops: how many pipeline stages the executor's fusion pass
            collapsed into a single ``FusedPipelineOp`` for this run (0
            when the plan tail did not match).
        node_stats: per-plan-node cardinality records in plan preorder —
            ``[{"op", "est_rows", "actual_rows", "q_error"}]`` — attributed
            to the *original* (pre-fusion) plan's nodes. This is the
            est-vs-actual view EXPLAIN ANALYZE renders and the signal the
            optimizer's cardinality-feedback loop ingests.
        segments_total: column-storage row groups the run's scans
            considered (0 when no base-table scan ran).
        segments_pruned: of those, how many a zone map proved irrelevant
            to the pushed-down predicates — skipped without decoding.
        bytes_decoded: modeled encoded bytes of the segments the scans
            actually decoded (late materialization counts only the
            columns read, only for surviving segments).
        catalog_versions: ``{table: version}`` of the catalog state the
            run read — the live catalog's current versions, or the pinned
            vector when the run executed against a
            :class:`~repro.engine.catalog.CatalogSnapshot`.
        total_work: the run's exact deterministic work measurement (the
            same number as ``ExecutionResult.work``) — the currency the
            serving layer's admission control settles quota charges in.
        total_seconds: wall-clock time for the whole plan.
    """

    __slots__ = ("operators", "fused_ops", "node_stats",
                 "segments_total", "segments_pruned",
                 "bytes_decoded", "catalog_versions", "total_work",
                 "total_seconds")

    def __init__(self):
        self.operators = {}
        self.fused_ops = 0
        self.node_stats = []
        self.segments_total = 0
        self.segments_pruned = 0
        self.bytes_decoded = 0
        self.catalog_versions = {}
        self.total_work = 0.0
        self.total_seconds = 0.0

    def record(self, op_name, rows, seconds):
        """Accumulate one operator invocation."""
        entry = self.operators.setdefault(
            op_name, {"batches": 0, "rows": 0, "seconds": 0.0}
        )
        entry["batches"] += 1
        entry["rows"] += rows
        entry["seconds"] += seconds

    def record_segments(self, total, pruned, bytes_decoded):
        """Accumulate one scan's segment counters (pruning telemetry)."""
        self.segments_total += int(total)
        self.segments_pruned += int(pruned)
        self.bytes_decoded += int(bytes_decoded)

    def set_node_stats(self, stats):
        """Attach the per-node est-vs-actual records (plan preorder)."""
        self.node_stats = list(stats)

    def actual_rows_by_operator(self):
        """``{op_name: total actual output rows}`` over the node stats."""
        totals = {}
        for entry in self.node_stats:
            if entry["actual_rows"] is None:
                continue
            op = entry["op"]
            totals[op] = totals.get(op, 0) + entry["actual_rows"]
        return totals

    def max_q_error(self):
        """Worst per-node q-error of the run (``None`` if unmeasured)."""
        errors = [e["q_error"] for e in self.node_stats
                  if e["q_error"] is not None]
        return max(errors) if errors else None

    def brief(self):
        """A one-line dict digest for logs that keep one row per query.

        The session audit log stores this (work, wall time, fused ops,
        worst q-error) instead of the full :meth:`summary`, which
        carries per-operator and per-node detail too wide for a log row.
        """
        return {
            "total_work": self.total_work,
            "total_seconds": self.total_seconds,
            "fused_ops": self.fused_ops,
            "max_q_error": self.max_q_error(),
        }

    def summary(self):
        """A plain-dict snapshot (JSON-friendly)."""
        return {
            "total_seconds": self.total_seconds,
            "fused_ops": self.fused_ops,
            "segments_total": self.segments_total,
            "segments_pruned": self.segments_pruned,
            "bytes_decoded": self.bytes_decoded,
            "catalog_versions": dict(self.catalog_versions),
            "total_work": self.total_work,
            "operators": {
                k: dict(v) for k, v in sorted(self.operators.items())
            },
            "node_stats": [dict(e) for e in self.node_stats],
        }

    def __repr__(self):
        return "ExecutionTelemetry(operators=%d, total=%.6fs)" % (
            len(self.operators), self.total_seconds,
        )


#: Pipeline stages counted as "planning" (everything before execution).
PLANNING_STAGES = ("parse", "lower", "rewrite", "plan")


class PipelineTelemetry:
    """Per-stage timings for one trip through the query pipeline.

    Extends the per-operator :class:`ExecutionTelemetry` with the
    stage-level view: how long each named pipeline stage (parse, lower,
    rewrite, plan, execute) took, whether the plan came from the plan
    cache, and — via :attr:`execution` — the operator counters of the run
    itself.

    Attributes:
        stages: ``{stage_name: seconds}`` for the stages that actually ran.
        cache_hit: ``True``/``False`` once the plan stage ran (``None`` for
            statements that never reach planning, e.g. DDL).
        cache_outcome: what the plan-cache lookup concluded — ``"hit"``,
            ``"miss"`` (never cached), or ``"invalidated"`` (a cached
            plan's version token went stale); ``None`` before planning.
        invalidation_cause: for ``"invalidated"`` only — which token
            component moved: ``"table:<name>"`` (that table's catalog
            version) or ``"feedback:<name>"`` (cardinality drift on
            that table). ``None`` otherwise.
        plan_versions: the catalog half of the token the plan stage keyed
            on — ``((table, version), ...)`` restricted to the query's
            tables (``None`` before planning).
        execution: the run's :class:`ExecutionTelemetry`, or ``None`` when
            nothing was executed (EXPLAIN, DDL).
        arm: the hint-set arm the plan selector chose for this run
            (``"default"`` under the ``cost`` selector; ``None`` before
            planning).
        arm_est_cost: the chosen candidate's cost estimate — the number
            the selector compared and the online trainer settles wins and
            strikes against (``None`` before planning).
        n_candidates: how many arm candidates the selector chose among
            (0 before planning).
        ues_bound: the UES arm's pessimistic cost guarantee for this
            query, when a UES candidate was generated — the regret
            guard's anchor (``None`` otherwise).
        selection_features: the contextual feature vector the bandit
            selected (and later trains) on; ``None`` under selectors
            that do not learn from one.
    """

    __slots__ = ("stages", "cache_hit", "cache_outcome",
                 "invalidation_cause", "plan_versions", "execution",
                 "arm", "arm_est_cost", "n_candidates", "ues_bound",
                 "selection_features")

    def __init__(self):
        self.stages = {}
        self.cache_hit = None
        self.cache_outcome = None
        self.invalidation_cause = None
        self.plan_versions = None
        self.execution = None
        self.arm = None
        self.arm_est_cost = None
        self.n_candidates = 0
        self.ues_bound = None
        self.selection_features = None

    def record_stage(self, stage, seconds):
        """Accumulate wall time for one pipeline stage."""
        self.stages[stage] = self.stages.get(stage, 0.0) + seconds

    @property
    def planning_seconds(self):
        """Total time spent before execution (parse + lower + rewrite + plan)."""
        return sum(self.stages.get(s, 0.0) for s in PLANNING_STAGES)

    @property
    def execution_seconds(self):
        """Time spent in the execute stage."""
        return self.stages.get("execute", 0.0)

    def summary(self):
        """A plain-dict snapshot (JSON-friendly)."""
        return {
            "stages": dict(self.stages),
            "planning_seconds": self.planning_seconds,
            "execution_seconds": self.execution_seconds,
            "cache_hit": self.cache_hit,
            "cache_outcome": self.cache_outcome,
            "invalidation_cause": self.invalidation_cause,
            "plan_versions": None if self.plan_versions is None
            else [list(p) for p in self.plan_versions],
            "arm": self.arm,
            "arm_est_cost": self.arm_est_cost,
            "ues_bound": self.ues_bound,
            "execution": None if self.execution is None
            else self.execution.summary(),
        }

    def __repr__(self):
        return "PipelineTelemetry(planning=%.6fs, execution=%.6fs, hit=%r)" % (
            self.planning_seconds, self.execution_seconds, self.cache_hit,
        )


def percentile(values, q):
    """The ``q``-quantile (0..1) of ``values`` by nearest-rank on a copy.

    Deterministic and dependency-free — the latency-percentile helper the
    serving rollups and the server benchmarks share. Returns 0.0 for an
    empty input.
    """
    if not values:
        return 0.0
    ordered = sorted(values)
    idx = min(len(ordered) - 1, int(round(q * (len(ordered) - 1))))
    return ordered[idx]


class _RollupBucket:
    """One aggregation cell of a :class:`ServingRollup` (tenant or session)."""

    __slots__ = ("queries", "outcomes", "total_work", "total_seconds",
                 "queue_seconds", "latencies")

    def __init__(self):
        self.queries = 0
        self.outcomes = {}
        self.total_work = 0.0
        self.total_seconds = 0.0
        self.queue_seconds = 0.0
        self.latencies = []

    def observe(self, seconds, work, outcome, queue_wait):
        self.queries += 1
        self.outcomes[outcome] = self.outcomes.get(outcome, 0) + 1
        self.total_work += work
        self.total_seconds += seconds
        self.queue_seconds += queue_wait
        self.latencies.append(seconds)

    def summary(self):
        return {
            "queries": self.queries,
            "outcomes": dict(sorted(self.outcomes.items())),
            "total_work": self.total_work,
            "total_seconds": self.total_seconds,
            "queue_seconds": self.queue_seconds,
            "p50_seconds": percentile(self.latencies, 0.50),
            "p95_seconds": percentile(self.latencies, 0.95),
            "p99_seconds": percentile(self.latencies, 0.99),
        }


class ServingRollup:
    """Per-tenant and per-session aggregation of served queries.

    The serving layer (:class:`~repro.engine.server.QueryServer`) records
    every statement it completes here: which tenant and session issued
    it, how long it took end to end (admission wait included), how much
    deterministic ``work`` it charged, and what the admission verdict was
    (``"admitted"`` / ``"queued"`` / ``"shed"``). Thread-safe — sessions
    on many threads observe into one shared rollup.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._tenants = {}
        self._sessions = {}

    def observe(self, tenant, session_id, seconds, work, outcome,
                queue_wait=0.0):
        """Record one completed (or shed) statement."""
        with self._lock:
            self._tenants.setdefault(tenant, _RollupBucket()).observe(
                seconds, work, outcome, queue_wait
            )
            self._sessions.setdefault(session_id, _RollupBucket()).observe(
                seconds, work, outcome, queue_wait
            )

    def tenant_work(self, tenant):
        """Total settled work recorded for one tenant (0.0 if unseen)."""
        with self._lock:
            bucket = self._tenants.get(tenant)
            return 0.0 if bucket is None else bucket.total_work

    def tenant_latencies(self, tenant):
        """A copy of one tenant's per-statement latency samples."""
        with self._lock:
            bucket = self._tenants.get(tenant)
            return [] if bucket is None else list(bucket.latencies)

    def summary(self):
        """JSON-friendly per-tenant / per-session rollup snapshot."""
        with self._lock:
            return {
                "tenants": {
                    name: bucket.summary()
                    for name, bucket in sorted(self._tenants.items())
                },
                "sessions": {
                    name: bucket.summary()
                    for name, bucket in sorted(self._sessions.items())
                },
            }

    def __repr__(self):
        with self._lock:
            return "ServingRollup(tenants=%d, sessions=%d)" % (
                len(self._tenants), len(self._sessions),
            )
