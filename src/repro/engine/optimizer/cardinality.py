"""Cardinality estimation: the traditional estimators and the interfaces
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
so planners can swap estimators freely.
"""

import numpy as np

from repro.common import ensure_rng
from repro.engine.operators.base import OPS


class CardinalityEstimator:
    """Abstract estimator interface used by the planner and enumerators.

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
    lower-cased table set; a query view adds its ``memo_overrides(tables)``
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
        key = self._key(query, (table,), table.lower())
        if key not in self._tables:
            self._tables[key] = self.estimator.estimate_table(query, table)
        return self._tables[key]

    def estimate_subset(self, query, tables):
        key = self._key(query, tables, frozenset(t.lower() for t in tables))
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
        tables = [t for t in query.tables if t.lower() in {x.lower() for x in tables}]
        if not tables:
            return 0.0
        rows = 1.0
        for t in tables:
            rows *= table_rows(query, t)
        subset = {t.lower() for t in tables}
        for edge in query.join_edges:
            if edge.left_table.lower() in subset and edge.right_table.lower() in subset:
                rows *= self._join_selectivity(edge)
        return max(rows, 0.0)


class SamplingEstimator(CardinalityEstimator):
    """Estimate by executing predicates/joins on a uniform row sample.

    Join estimates are computed by actually joining the per-table samples
    and scaling by the sampling rates — more robust to correlation than
    independence, but noisy at small sample sizes and expensive for large
    join graphs (which is why real systems don't default to it).

    Args:
        catalog: the catalog with the base tables.
        sample_size: rows sampled per table.
        seed: sampling seed.
    """

    def __init__(self, catalog, sample_size=500, seed=0):
        self.catalog = catalog
        self.sample_size = sample_size
        self._rng = ensure_rng(seed)
        self._samples = {}

    def _sample(self, table):
        key = table.lower()
        if key not in self._samples:
            tbl = self.catalog.table(table)
            n = tbl.n_rows
            if n <= self.sample_size:
                idx = np.arange(n)
            else:
                idx = self._rng.choice(n, size=self.sample_size, replace=False)
            cols = {
                c.name.lower(): tbl.column_array(c.name)[idx]
                for c in tbl.schema.columns
            }
            self._samples[key] = (cols, n, len(idx))
        return self._samples[key]

    @staticmethod
    def _mask(query, table, cols, n_sample):
        """Which sampled rows of ``table`` pass the query's predicates."""
        mask = np.ones(n_sample, dtype=bool)
        for pred in query.predicates_on(table):
            mask = mask & OPS[pred.op](cols[pred.column.lower()], pred.value)
        return mask

    def estimate_table(self, query, table):
        cols, n_total, n_sample = self._sample(table)
        if n_sample == 0:
            return 0.0
        mask = self._mask(query, table, cols, n_sample)
        return float(mask.sum()) / n_sample * n_total

    def estimate_subset(self, query, tables):
        names = [t for t in query.tables if t.lower() in {x.lower() for x in tables}]
        if not names:
            return 0.0
        if len(names) == 1:
            return self.estimate_table(query, names[0])
        # Join the filtered samples table by table (left-deep, in given order).
        scale = 1.0
        first = names[0]
        cols, n_total, n_sample = self._sample(first)
        mask = self._mask(query, first, cols, n_sample)
        current = {
            (first.lower(), cname): arr[mask] for cname, arr in cols.items()
        }
        current_rows = int(mask.sum())
        scale *= n_total / max(1, n_sample)
        joined = {first.lower()}
        remaining = names[1:]
        while remaining:
            progressed = False
            for t in list(remaining):
                edges = query.edges_between(joined, t)
                if not edges:
                    continue
                cols_t, n_total_t, n_sample_t = self._sample(t)
                mask_t = self._mask(query, t, cols_t, n_sample_t)
                right = {c: a[mask_t] for c, a in cols_t.items()}
                edge = edges[0]
                if edge.left_table.lower() in joined:
                    lkey = (edge.left_table.lower(), edge.left_column.lower())
                    rcol = edge.right_column.lower()
                else:
                    lkey = (edge.right_table.lower(), edge.right_column.lower())
                    rcol = edge.left_column.lower()
                left_keys = current[lkey] if current_rows else np.array([])
                right_keys = right[rcol]
                # Hash join on sample keys.
                buckets = {}
                for i, k in enumerate(right_keys.tolist()):
                    buckets.setdefault(k, []).append(i)
                left_idx, right_idx = [], []
                for i, k in enumerate(left_keys.tolist()):
                    for j in buckets.get(k, ()):
                        left_idx.append(i)
                        right_idx.append(j)
                # Apply any extra edges between the joined set and t.
                new_current = {}
                for key, arr in current.items():
                    new_current[key] = arr[left_idx] if len(left_idx) else arr[:0]
                for cname, arr in right.items():
                    sel = arr[right_idx] if len(right_idx) else arr[:0]
                    new_current[(t.lower(), cname)] = sel
                keep = np.ones(len(left_idx), dtype=bool)
                for extra in edges[1:]:
                    if extra.left_table.lower() == t.lower():
                        a = new_current[(t.lower(), extra.left_column.lower())]
                        b = new_current[
                            (extra.right_table.lower(), extra.right_column.lower())
                        ]
                    else:
                        a = new_current[(t.lower(), extra.right_column.lower())]
                        b = new_current[
                            (extra.left_table.lower(), extra.left_column.lower())
                        ]
                    keep &= a == b
                current = {k: v[keep] for k, v in new_current.items()}
                current_rows = int(keep.sum())
                scale *= n_total_t / max(1, n_sample_t)
                joined.add(t.lower())
                remaining.remove(t)
                progressed = True
                break
            if not progressed:
                # Disconnected: treat the rest with independence.
                rest = 1.0
                for t in remaining:
                    rest *= self.estimate_table(query, t)
                return current_rows * scale * rest
        return current_rows * scale


class TrueCardinalityEstimator(CardinalityEstimator):
    """Oracle estimator: executes the sub-query and counts (for evaluation).

    Wraps an executor callable ``count_fn(query, tables) -> int`` supplied by
    :mod:`repro.engine.executor` to avoid a circular import.

    Args:
        count_fn: ``(query, tables) -> int`` exact-count callable.
        cache: memoize counts per (signature, table subset).
        catalog: when given, each memo entry is stamped with the
            catalog's version vector restricted to the entry's table
            subset and re-counted the moment any of *those* tables moves
            — a write to an unrelated table leaves the entry warm.
            Without a catalog, counts memoized before an INSERT/DDL
            would be served stale forever.
    """

    def __init__(self, count_fn, cache=True, catalog=None):
        self._count_fn = count_fn
        self._cache = {} if cache else None
        self._catalog = catalog

    def _token(self, tables):
        if self._catalog is None:
            return None
        return self._catalog.version_vector(tables)

    def estimate_table(self, query, table):
        return self.estimate_subset(query, [table])

    def estimate_subset(self, query, tables):
        key = token = None
        if self._cache is not None:
            key = (query.signature(), tuple(sorted(t.lower() for t in tables)))
            token = self._token(tables)
            entry = self._cache.get(key)
            if entry is not None and entry[1] == token:
                return entry[0]
        value = float(self._count_fn(query, list(tables)))
        if self._cache is not None:
            self._cache[key] = (value, token)
        return value
