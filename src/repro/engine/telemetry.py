"""The engine's one telemetry record: a span tree per statement.

A :class:`StatementTrace` is created once where a statement enters and
handed down explicitly; every layer the statement passes opens a
:class:`Span` under it (stages under the root, one span per executed
plan node under ``execute`` — the tree is drawn in DESIGN.md,
"Statement trace"), and everything that reports on the statement —
``result.telemetry``, ``work``, EXPLAIN, the audit digest, the
aggregates (:class:`ServingRollup`, ``QueryPipeline.stats()``) — is a
read of that tree. The aggregates keep numbers, never trees: a trace
lives as long as the result that carries it. Also here: :func:`q_error`,
the helper the readers share.
"""

import math
import threading
import time

_clock = time.perf_counter

#: Root spans counted as "planning" (everything before execution).
PLANNING_STAGES = ("parse", "lower", "plan")


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


class Span:
    """One timed step of a statement — the tree's only node type.

    Attributes:
        name: the stage (``"plan"``) or operator (``"SeqScan"``) name.
        start: ``time.perf_counter()`` when the step began.
        seconds: its duration; ``None`` while it is open. ``with span:``
            closes it however the block exits, so a failing statement
            still leaves a closed tree.
        rows: output cardinality (operator spans; attributed to the
            unfused plan's nodes, so fusion never changes it).
        work: deterministic work charged to this node, ``None`` when it
            was never charged.
        attrs: what the step decided or counted (DESIGN.md lists them).
        children: sub-steps, in the order they began (an empty tuple
            until the first one).

    The execution reads (``total_work``, ``operators``, ``node_stats``,
    the segment counters, …) aggregate over the span's subtree; they are
    what ``result.telemetry`` — the ``execute`` span — is read through.
    """

    __slots__ = ("name", "start", "seconds", "rows", "work", "attrs",
                 "children")

    def __init__(self, name, start=None, seconds=None):
        self.name = name
        self.start = _clock() if start is None else start
        self.seconds = seconds
        self.rows = None
        self.work = None
        self.attrs = {}
        # Most spans are leaves: a list each would double the containers
        # a statement allocates, and the collector runs on that count.
        self.children = ()

    def child(self, name, start=None, seconds=None):
        """Open (``seconds=0.0``: record a zero-time) sub-step."""
        span = Span(name, start, seconds)
        if self.children:
            self.children.append(span)
        else:
            self.children = [span]
        return span

    def close(self):
        """Stamp the end. An enclosing layer may stamp a root again
        later; the last stamp wins."""
        self.seconds = _clock() - self.start

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.seconds = _clock() - self.start
        return False

    def walk(self):
        """Every span of the subtree, preorder."""
        yield self
        for child in self.children:
            yield from child.walk()

    def _charged(self, out=None):
        """Charged spans in the order they were charged: operators
        charge after their children ran, so postorder."""
        out = [] if out is None else out
        for child in self.children:
            child._charged(out)
        if self.work is not None:
            out.append(self)
        return out

    @property
    def self_seconds(self):
        """Duration minus the part the direct children cover — summed
        over a tree, the parts give the whole."""
        return self.seconds - sum(c.seconds for c in self.children)

    @property
    def total_work(self):
        """The subtree's exact work: charges summed in charge order, so
        the float is the one a running total would have produced."""
        total = 0.0
        for span in self._charged():
            total += span.work
        return total

    @property
    def operator_work(self):
        """``{op_name: work}`` over the charged operators."""
        totals = {}
        for span in self._charged():
            totals[span.name] = totals.get(span.name, 0.0) + span.work
        return totals

    @property
    def operators(self):
        """``{op_name: {"batches", "rows", "seconds"}}`` over the
        operator spans below: invocations, output rows, self time."""
        out = {}
        for child in self.children:
            for span in child.walk():
                entry = out.setdefault(
                    span.name, {"batches": 0, "rows": 0, "seconds": 0.0})
                entry["batches"] += 1
                entry["rows"] += span.rows or 0
                entry["seconds"] += span.self_seconds
        return out

    @property
    def node_stats(self):
        """Per-plan-node ``{"op", "est_rows", "actual_rows", "q_error"}``
        in the *unfused* plan's preorder — what EXPLAIN ANALYZE renders
        and a cardinality-feedback loop ingests."""
        nodes = sorted((s for s in self.walk() if "node" in s.attrs),
                       key=lambda s: s.attrs["node"])
        return [{
            "op": s.name,
            "est_rows": s.attrs["est_rows"],
            "actual_rows": s.rows,
            "q_error": q_error(s.attrs["est_rows"], s.rows),
        } for s in nodes]

    def _sum(self, attr):
        return sum(s.attrs.get(attr, 0) for s in self.walk())

    segments_total = property(
        lambda self: self._sum("segments_total"),
        doc="Row groups the subtree's scans considered.")
    segments_pruned = property(
        lambda self: self._sum("segments_pruned"),
        doc="Of those, how many a zone map skipped without decoding.")
    bytes_decoded = property(
        lambda self: self._sum("bytes_decoded"),
        doc="Modeled encoded bytes of the segments actually decoded.")
    fused_ops = property(
        lambda self: self.attrs.get("fused_ops", 0),
        doc="Tail stages the fusion pass collapsed for this run.")
    catalog_versions = property(
        lambda self: self.attrs.get("catalog_versions", {}),
        doc="``{table: version}`` of the catalog state the run read.")

    def summary(self):
        """The subtree as plain dicts and lists (JSON-friendly)."""
        return {
            "name": self.name, "start": self.start,
            "seconds": self.seconds, "rows": self.rows, "work": self.work,
            "attrs": dict(self.attrs),
            "children": [c.summary() for c in self.children],
        }

    def __repr__(self):
        return "Span(%s, %s, children=%d)" % (
            self.name,
            "open" if self.seconds is None else "%.6fs" % self.seconds,
            len(self.children))


#: What the ``plan`` span records, readable straight off the trace.
_PLAN_ATTRS = ("cache_outcome", "invalidation_cause", "plan_versions",
               "plan_route")


class StatementTrace:
    """One statement's life: a root :class:`Span` and reads of its tree.

    Attributes:
        root: the ``statement`` span; its children are the stages.
        shared: how many leading root children belong to an earlier
            statement (:meth:`fork`) — aggregates skip them.

    The ``plan`` span's attributes (``cache_outcome``, …) read
    as attributes of the trace, ``None`` before planning.
    """

    __slots__ = ("root", "shared")

    def __init__(self):
        self.root = Span("statement")
        self.shared = 0

    def fork(self):
        """A new statement over the same planning: re-executing one
        prepared query shares its planning spans by reference and adds
        only its own ``execute``. The root starts where the planning
        did, so the shared children stay inside it."""
        twin = StatementTrace()
        twin.root.start = self.root.start
        twin.root.children = [s for s in self.root.children
                              if s.name in PLANNING_STAGES]
        twin.shared = len(twin.root.children)
        return twin

    def span(self, name):
        """The stage span called ``name``, or ``None``."""
        for span in self.root.children:
            if span.name == name:
                return span
        return None

    @property
    def execute(self):
        """The ``execute`` span (``result.telemetry``), or ``None``."""
        return self.span("execute")

    def __getattr__(self, name):
        if name not in _PLAN_ATTRS:
            raise AttributeError(name)
        plan = self.span("plan")
        return None if plan is None else plan.attrs.get(name)

    @property
    def cache_hit(self):
        """Whether the chosen plan came from the plan cache (``None``
        before planning)."""
        outcome = self.cache_outcome
        return None if outcome is None else outcome == "hit"

    @property
    def stages(self):
        """``{stage: seconds}`` of the root's children."""
        out = {}
        for span in self.root.children:
            out[span.name] = out.get(span.name, 0.0) + span.seconds
        return out

    def brief(self):
        """The executed plan's one-row digest (work, wall time, fused
        ops, worst q-error) — what the audit log keeps of a trace;
        ``None`` unless a plan ran to completion."""
        run = self.execute
        stats = run.node_stats if run is not None else None
        if not stats:
            return None
        errors = [e["q_error"] for e in stats if e["q_error"] is not None]
        return {
            "total_work": run.total_work,
            "total_seconds": run.seconds,
            "fused_ops": run.fused_ops,
            "max_q_error": max(errors) if errors else None,
        }

    def summary(self):
        """The whole tree as plain dicts and lists (JSON-friendly)."""
        return self.root.summary()

    def __repr__(self):
        return "StatementTrace(%s)" % ", ".join(
            s.name for s in self.root.children)


#: Ratio between consecutive latency-histogram bin edges.
_BIN_RATIO = 1.1
_LOG_RATIO = math.log(_BIN_RATIO)


class _RollupBucket:
    """One aggregation cell of a :class:`ServingRollup` (tenant or session).

    Counts, outcomes and totals are exact; latencies are counted in
    log-spaced bins (``bins``: ``floor(log_1.1(seconds))`` → count, ``-inf``
    for zero), ~220 of them between 1 µs and 1000 s however many
    statements arrive. A percentile reports its bin's geometric midpoint,
    within ``sqrt(1.1) - 1`` < 5% of the exact nearest-rank value.
    """

    __slots__ = ("queries", "outcomes", "total_work", "total_seconds",
                 "queue_seconds", "bins")

    def __init__(self):
        self.queries = 0
        self.outcomes = {}
        self.total_work = 0.0
        self.total_seconds = 0.0
        self.queue_seconds = 0.0
        self.bins = {}

    def observe(self, seconds, work, outcome, queue_wait):
        self.queries += 1
        self.outcomes[outcome] = self.outcomes.get(outcome, 0) + 1
        self.total_work += work
        self.total_seconds += seconds
        self.queue_seconds += queue_wait
        key = (math.floor(math.log(seconds) / _LOG_RATIO) if seconds > 0
               else -math.inf)
        self.bins[key] = self.bins.get(key, 0) + 1

    def quantile(self, q):
        """The nearest-rank ``q``-quantile (0..1), 0.0 when empty."""
        rank = min(self.queries - 1, int(round(q * (self.queries - 1))))
        for key in sorted(self.bins):
            rank -= self.bins[key]
            if rank < 0:
                return _BIN_RATIO ** (key + 0.5)
        return 0.0

    def summary(self):
        return {
            "queries": self.queries,
            "outcomes": dict(sorted(self.outcomes.items())),
            "total_work": self.total_work,
            "total_seconds": self.total_seconds,
            "queue_seconds": self.queue_seconds,
            "p50_seconds": self.quantile(0.50),
            "p95_seconds": self.quantile(0.95),
            "p99_seconds": self.quantile(0.99),
        }


class ServingRollup:
    """Per-tenant and per-session aggregation of served statements.

    The serving layer (:class:`~repro.engine.server.QueryServer`)
    observes the trace of every statement that reached admission — on
    every exit, so this view and the admission counters describe the
    same statements. Read off the trace: the tenant and session (root
    attributes), the end-to-end time (root duration, admission wait
    included), and the ``admission`` span's outcome (``"admitted"`` /
    ``"queued"`` / ``"shed"``, or ``"error"`` when the statement failed
    after admission), queue wait and settled ``work``. Keeps numbers,
    not traces, in constant memory per tenant and open session
    (percentiles within 5%): a closed session's bucket is dropped, its
    statements still counted under its tenant. Thread-safe — sessions on
    many threads observe into one shared rollup.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._tenants = {}
        self._sessions = {}

    def observe(self, trace):
        """Record one served (or shed, or failed) statement."""
        root = trace.root
        admission = trace.span("admission").attrs
        sample = (root.seconds, admission.get("settled", 0.0),
                  admission["outcome"], admission.get("queue_wait", 0.0))
        with self._lock:
            for buckets, key in ((self._tenants, root.attrs["tenant"]),
                                 (self._sessions, root.attrs["session"])):
                bucket = buckets.get(key)
                if bucket is None:
                    bucket = buckets[key] = _RollupBucket()
                bucket.observe(*sample)

    def close_session(self, session_id):
        """Drop ``session_id``'s bucket (its tenant keeps the counts)."""
        with self._lock:
            self._sessions.pop(session_id, None)

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
