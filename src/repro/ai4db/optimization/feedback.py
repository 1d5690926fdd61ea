"""Cardinality feedback: observed actuals correcting future estimates.

Closes the loop the AI4DB literature keeps open in one-shot learned
estimators: after an execution each plan node's **actual** output
cardinality (from the executor's per-node counters) is fed into a
:class:`QueryFeedbackStore`, keyed by the structural signature of the
sub-query that node computes. Estimators then consult the store:

* :class:`FeedbackCorrectedEstimator` wraps any base estimator and
  returns the remembered actual on an exact signature hit — repeated
  (sub-)queries are estimated perfectly after one execution, exactly the
  per-subplan memo of adaptive re-optimization à la Leo;
* :meth:`repro.ai4db.optimization.cardinality.LearnedCardinalityEstimator.
  refit_from_feedback` retrains the learned model on its base training
  set plus the store's observed pairs, so feedback also *generalizes*.

The store carries a monotonically increasing :attr:`~QueryFeedbackStore.
version` that bumps only when an observation reveals **drift** — the
estimate the plan was built from missed the actual by at least
``drift_threshold`` q-error (or a previously stored actual changed).

The engine knows nothing of any of this. :class:`FeedbackLoop` installs
the loop on a :class:`~repro.engine.database.Database` from outside, the
way any learned estimator is installed: it wraps ``db.planner.estimator``,
runs statements through the pipeline's public prepare → execute route,
ingests each run's ``node_stats``, and empties the plan cache (and the
shapes' generic plans) when an observation drifts, so the next run
replans with corrected estimates
while well-estimated workloads keep their warm cache.
"""

from collections import OrderedDict

from repro.engine import plans as P
from repro.engine.optimizer.cardinality import CardinalityEstimator
from repro.engine.query import ConjunctiveQuery
from repro.engine.telemetry import q_error


def induced_subquery(query, tables):
    """The sub-query of ``query`` over a table subset.

    Keeps exactly the tables, the join edges with both ends inside the
    subset, and the local predicates on those tables — the query whose
    result cardinality a plan node over ``tables`` produces. Shared by
    the feedback store and the learned estimator so signatures agree.
    """
    subset = {t.lower() for t in tables}
    sub_tables = [t for t in query.tables if t.lower() in subset]
    sub_edges = [
        e for e in query.join_edges
        if e.left_table.lower() in subset and e.right_table.lower() in subset
    ]
    sub_preds = [p for p in query.predicates if p.table.lower() in subset]
    return ConjunctiveQuery(
        tables=sub_tables, join_edges=sub_edges, predicates=sub_preds
    )


class QueryFeedbackStore:
    """Observed (sub-plan signature → actual cardinality) memory.

    Args:
        drift_threshold: q-error at or above which a *new* observation
            counts as drift and bumps :attr:`version` (a
            :class:`FeedbackLoop` then empties the plan cache). 2.0 —
            "off by 2× either way" — is the conventional boundary
            between benign and plan-changing misestimation.
        capacity: maximum remembered signatures (LRU-evicted beyond it).

    Attributes:
        version: feedback generation; starts at 0, bumps on drift.
        observations: total :meth:`observe` calls.
        drifts: how many observations bumped the version.
    """

    def __init__(self, drift_threshold=2.0, capacity=4096):
        if drift_threshold < 1.0:
            raise ValueError("drift_threshold is a q-error and must be >= 1")
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.drift_threshold = float(drift_threshold)
        self.capacity = int(capacity)
        self._obs = OrderedDict()  # signature -> record dict
        self.version = 0
        self.observations = 0
        self.drifts = 0

    def observe(self, query, tables, est_rows, actual_rows):
        """Record one node's actual output cardinality.

        Args:
            query: the executed :class:`ConjunctiveQuery`.
            tables: the base tables the node's output covers.
            est_rows: the estimate the plan carried (may be ``None``).
            actual_rows: the executor-counted actual output rows.

        Returns:
            ``True`` when the observation was drift (version bumped).
        """
        sub = induced_subquery(query, tables)
        key = sub.signature()
        prev = self._obs.get(key)
        actual = int(actual_rows)
        self._obs[key] = {"query": sub, "actual_rows": actual}
        self._obs.move_to_end(key)
        while len(self._obs) > self.capacity:
            self._obs.popitem(last=False)
        self.observations += 1
        # Only *new information* can drift: an unseen signature whose
        # planning estimate was badly off, or a remembered actual that
        # changed underneath us. Re-observing a known-stable value must
        # not bump the version, or every execution would empty the plan
        # cache.
        novel = prev is None or prev["actual_rows"] != actual
        err = q_error(est_rows, actual_rows)
        if novel and err is not None and err >= self.drift_threshold:
            self.version += 1
            self.drifts += 1
            return True
        return False

    def lookup(self, query, tables):
        """The remembered actual for this sub-query, or ``None``."""
        record = self._obs.get(induced_subquery(query, tables).signature())
        return None if record is None else record["actual_rows"]

    def pairs(self):
        """``(queries, actuals)`` of every remembered observation —
        training data for :meth:`LearnedCardinalityEstimator.
        refit_from_feedback`."""
        queries = [r["query"] for r in self._obs.values()]
        actuals = [r["actual_rows"] for r in self._obs.values()]
        return queries, actuals

    def clear(self):
        """Forget every observation (version and counters are kept)."""
        self._obs.clear()

    def stats(self):
        """A plain-dict snapshot (JSON-friendly)."""
        return {
            "size": len(self._obs),
            "capacity": self.capacity,
            "version": self.version,
            "observations": self.observations,
            "drifts": self.drifts,
            "drift_threshold": self.drift_threshold,
        }

    def __len__(self):
        return len(self._obs)

    def __repr__(self):
        return "QueryFeedbackStore(size=%d, version=%d, observations=%d)" % (
            len(self._obs), self.version, self.observations,
        )


class FeedbackCorrectedEstimator(CardinalityEstimator):
    """Wraps a base estimator with exact-signature feedback overrides.

    On an exact sub-query signature hit the remembered actual is
    returned; otherwise the base estimator answers. The planner sees one
    ordinary :class:`CardinalityEstimator`, so feedback correction
    composes with any base — traditional, sampling, or learned.
    """

    def __init__(self, base, store):
        self.base = base
        self.store = store

    def estimate_table(self, query, table):
        hit = self.store.lookup(query, [table])
        if hit is not None:
            return float(hit)
        return self.base.estimate_table(query, table)

    def estimate_subset(self, query, tables):
        hit = self.store.lookup(query, tables)
        if hit is not None:
            return float(hit)
        return self.base.estimate_subset(query, tables)

    def __repr__(self):
        return "FeedbackCorrectedEstimator(%r)" % (self.base,)


#: Plan nodes whose output is the join of base tables (feedback-ingestible).
_JOIN_NODES = (P.HashJoin, P.NestedLoopJoin, P.CrossJoin)


def ingest_execution(store, query, plan, node_stats):
    """Feed one execution's per-node actuals into the store.

    Walks ``plan`` (preorder) alongside the trace's ``node_stats`` and
    observes every node whose output cardinality is the result of a
    well-defined sub-query: scans (post-filter table cardinality) and
    join nodes (join-subset cardinality). Shaping operators (project
    without dedup, sort, limit, aggregate) are skipped — their outputs
    are not join cardinalities.

    Returns the number of observations ingested.
    """
    known = {t.lower() for t in query.tables}
    ingested = 0
    for node, entry in zip(plan.walk(), node_stats):
        actual = entry.get("actual_rows")
        if actual is None:
            continue
        if isinstance(node, (P.SeqScan, P.IndexScan)):
            tables = [node.table]
        elif isinstance(node, _JOIN_NODES) or isinstance(node, P.ViewScan):
            tables = sorted(node.output_tables())
        else:
            continue
        if not tables or not {t.lower() for t in tables} <= known:
            continue
        store.observe(query, tables, entry.get("est_rows"), actual)
        ingested += 1
    return ingested


class FeedbackLoop:
    """The feedback loop, installed on one database from outside.

    Installing wraps ``db.planner.estimator`` in a
    :class:`FeedbackCorrectedEstimator` over :attr:`store` and drops the
    plans cached under the bare estimator. :meth:`run` is the loop's
    statement route: statements run elsewhere (``db.execute``, sessions,
    the server, snapshots) are estimated with the corrections but teach
    the store nothing.

    A drifting observation empties the whole plan cache and every
    shape's generic-plan state, so the next lookup of any statement
    reads ``miss`` and replans.
    """

    def __init__(self, db):
        self.db = db
        self.store = QueryFeedbackStore()
        db.planner.estimator = FeedbackCorrectedEstimator(
            db.planner.estimator, self.store)
        db.pipeline.invalidate()

    def run(self, statement, order=None):
        """Execute a :class:`ConjunctiveQuery` (under an optional join
        ``order``) or SELECT text, then ingest its per-node actuals.

        Returns the run's :class:`~repro.engine.executor.ExecutionResult`.
        """
        pipeline = self.db.pipeline
        if isinstance(statement, str):
            prepared = pipeline.prepare_sql(statement)
        else:
            prepared = pipeline.prepare_query(statement, order=order)
        result = pipeline.execute_prepared(prepared)
        version = self.store.version
        ingest_execution(self.store, prepared.query, prepared.plan,
                         result.telemetry.node_stats)
        if self.store.version != version:
            pipeline.plan_cache.clear()
            pipeline.shape_plans.clear()
        return result
