"""Cardinality feedback: observed actuals correcting future estimates.

Closes the loop the AI4DB literature keeps open in one-shot learned
estimators: after every execution the pipeline feeds each plan node's
**actual** output cardinality (from the executor's per-node counters)
into a :class:`QueryFeedbackStore`, keyed by the structural signature of
the sub-query that node computes. Estimators then consult the store:

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
The query pipeline checks each cached plan against the catalog versions
and the store's per-table drift state of the tables it reads, so a drift
observation invalidates cached plans over the drifted tables and the next
run replans with corrected estimates — while well-estimated workloads
keep their warm cache untouched.
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
    the feedback store and the learned/sampling estimators so signatures
    agree everywhere.
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
            counts as drift and bumps :attr:`version` (invalidating
            cached plans). 2.0 — "off by 2× either way" — is the
            conventional boundary between benign and plan-changing
            misestimation.
        capacity: maximum remembered signatures (LRU-evicted beyond it).

    Attributes:
        version: global feedback generation; starts at 0, bumps on drift.
        observations: total :meth:`observe` calls.
        drifts: how many observations bumped the version.

    Drift is also tracked **per table**: a drifting observation bumps the
    drift version of every base table its sub-query covers, and
    :meth:`version_vector` restricts that state to a table set — the
    scoped invalidation token the plan cache pairs with the catalog's,
    so drift on one table's estimates never evicts plans over others.
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
        self._table_versions = {}

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
        self._obs[key] = {
            "query": sub,
            "tables": tuple(sorted(t.lower() for t in tables)),
            "est_rows": None if est_rows is None else float(est_rows),
            "actual_rows": actual,
        }
        self._obs.move_to_end(key)
        while len(self._obs) > self.capacity:
            self._obs.popitem(last=False)
        self.observations += 1
        # Only *new information* can drift: an unseen signature whose
        # planning estimate was badly off, or a remembered actual that
        # changed underneath us. Re-observing a known-stable value must
        # not bump the version, or every execution would invalidate the
        # plan cache.
        novel = prev is None or prev["actual_rows"] != actual
        err = q_error(est_rows, actual_rows)
        if novel and err is not None and err >= self.drift_threshold:
            self.version += 1
            self.drifts += 1
            for t in tables:
                key_t = t.lower()
                self._table_versions[key_t] = (
                    self._table_versions.get(key_t, 0) + 1
                )
            return True
        return False

    def table_version(self, name):
        """One table's drift generation (0 when it never drifted)."""
        return self._table_versions.get(name.lower(), 0)

    def version_vector(self, tables):
        """Sorted ``((name, drift_version), ...)`` over ``tables``.

        The feedback half of a scoped plan-cache token: it moves exactly
        when an estimate covering one of these tables drifts.
        """
        names = sorted({t.lower() for t in tables})
        return tuple((n, self._table_versions.get(n, 0)) for n in names)

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
            "table_versions": dict(self._table_versions),
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

    Walks ``plan`` (preorder) alongside the telemetry's ``node_stats``
    and observes every node whose output cardinality is the result of a
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
