"""Cardinality estimation: the traditional estimator and the interface
the learned estimators plug into.

The estimator contract has two methods:

* :meth:`CardinalityEstimator.estimate_table` — rows surviving a table's
  local filter predicates.
* :meth:`CardinalityEstimator.estimate_subset` — rows produced by joining a
  subset of the query's tables (after local filters).

:class:`TraditionalEstimator` implements the System-R textbook rules the
tutorial describes as failing on correlated data: per-predicate histogram
selectivities multiplied together (attribute-value independence) and the
``1/max(ndv, ndv)`` equi-join selectivity. The learned MSCN-lite estimator
in :mod:`repro.ai4db.optimization.cardinality` implements the same contract
so planners can swap estimators freely, as do the sampling and
exact-count estimators of :mod:`repro.ai4db.optimization.estimators`.
"""


class CardinalityEstimator:
    """Abstract estimator interface used by the planner and join orderers.

    An estimator must be a pure function of the induced sub-query — the
    requested tables in ``query.tables`` order, their predicates and the
    edges inside them — under a fixed catalog: the planner memoizes
    answers per planning call by that identity (:meth:`planning_scope`).
    """

    def estimate_table(self, query, table):
        """Estimated rows of ``table`` after the query's local predicates."""
        raise NotImplementedError

    def estimate_subset(self, query, tables):
        """Estimated join-result rows over ``tables`` (iterable of names)."""
        raise NotImplementedError

    def planning_scope(self, query):
        """A fresh :class:`EstimateMemo` over this estimator for one
        planning call of ``query``."""
        return EstimateMemo(self, query)


class EstimateMemo:
    """One planning call's estimates, shared by all its arms: each induced
    sub-query is asked once. A call on the root ``query`` is keyed by its
    table set; a query view adds its ``memo_overrides(tables)``
    (tables whose predicates differ from the root's). Table and subset
    answers are kept apart; exceptions are not cached. ``table_product``
    answers subset misses from this memo's table answers."""

    def __init__(self, estimator, query, table_product=None):
        self.estimator = estimator
        self._query = query
        self._product = table_product
        self._tables, self._subsets = {}, {}

    def _key(self, query, tables, key):
        if query is self._query:
            return key
        diff = query.memo_overrides(tables)
        return (key, diff) if diff else key

    def estimate_table(self, query, table):
        key = self._key(query, (table,), table)
        if key not in self._tables:
            self._tables[key] = self.estimator.estimate_table(query, table)
        return self._tables[key]

    def estimate_subset(self, query, tables):
        key = self._key(query, tables, frozenset(tables))
        if key not in self._subsets:
            self._subsets[key] = (
                self.estimator.estimate_subset(query, tables)
                if self._product is None
                else self._product(query, tables, self.estimate_table))
        return self._subsets[key]


class TraditionalEstimator(CardinalityEstimator):
    """Histogram + independence estimator (the System-R rules).

    In a planning call the per-table factors of :meth:`_product` come
    from the call's memo, so each table is estimated once.

    Args:
        catalog: catalog providing per-table statistics.
    """

    def __init__(self, catalog):
        self.catalog = catalog

    def planning_scope(self, query):
        return EstimateMemo(self, query, table_product=self._product)

    def _predicate_selectivity(self, pred):
        stats = self.catalog.stats(pred.table)
        if not stats.has_column(pred.column):
            return 1.0 / 3.0
        return stats.column(pred.column).selectivity(pred.op, pred.value)

    def estimate_table(self, query, table):
        stats = self.catalog.stats(table)
        rows = float(stats.n_rows)
        for pred in query.predicates_on(table):
            rows *= max(0.0, min(1.0, self._predicate_selectivity(pred)))
        return max(rows, 0.0)

    def _join_selectivity(self, edge):
        left_stats = self.catalog.stats(edge.left_table)
        right_stats = self.catalog.stats(edge.right_table)
        ndv_left = (
            left_stats.column(edge.left_column).n_distinct
            if left_stats.has_column(edge.left_column)
            else 100
        )
        ndv_right = (
            right_stats.column(edge.right_column).n_distinct
            if right_stats.has_column(edge.right_column)
            else 100
        )
        return 1.0 / max(ndv_left, ndv_right, 1)

    def estimate_subset(self, query, tables):
        return self._product(query, tables, self.estimate_table)

    def _product(self, query, tables, table_rows):
        """``table_rows(query, t)`` over ``tables`` in ``query.tables``
        order, times each inner edge's selectivity in edge order."""
        subset = set(tables)
        tables = [t for t in query.tables if t in subset]
        if not tables:
            return 0.0
        rows = 1.0
        for t in tables:
            rows *= table_rows(query, t)
        for edge in query.join_edges:
            if edge.left_table in subset and edge.right_table in subset:
                rows *= self._join_selectivity(edge)
        return max(rows, 0.0)
