"""The non-learned estimators the experiments score learned ones against.

:class:`SamplingEstimator` runs predicates and joins on per-table row
samples (E6's sampling arm); :class:`TrueCardinalityEstimator` is the
exact-count oracle (E8's true-cardinality optimum), counting with
:func:`count_join_rows`;
:class:`UpperBoundEstimator` answers with UES's pessimistic bounds
(:mod:`repro.ai4db.optimization.ues`).
All three implement the engine's
:class:`~repro.engine.optimizer.cardinality.CardinalityEstimator`
contract, so each installs from outside as ``db.planner.estimator``
(call ``db.pipeline.invalidate()`` after swapping it).
"""

import numpy as np

from repro.ai4db.optimization.feedback import induced_subquery
from repro.ai4db.optimization.ues import ues_order
from repro.common import ensure_rng
from repro.engine.operators import ColumnarRelation
from repro.engine.operators.base import OPS
from repro.engine.operators.join import join_keys
from repro.engine.operators.kernels import (
    cross_indices,
    join_indices,
    predicate_mask,
)
from repro.engine.optimizer.cardinality import CardinalityEstimator


def count_join_rows(catalog, query, tables):
    """True cardinality of the filtered join over ``tables`` (the oracle).

    Joins columnar batches with the engine's vectorized kernels in a
    connectivity-respecting order and charges no work accounting.
    """
    wanted = set(tables)
    names = [t for t in query.tables if t in wanted]
    if not names:
        return 0

    def filtered(table_name):
        tbl = catalog.table(table_name)
        columns = [(tbl.name, c.name) for c in tbl.schema.columns]
        arrays = [tbl.column_array(c.name) for c in tbl.schema.columns]
        rel = ColumnarRelation(columns, arrays, n_rows=tbl.n_rows)
        preds = query.predicates_on(table_name)
        if preds:
            rel = rel.take(predicate_mask(rel, preds))
        return rel

    current = filtered(names[0])
    joined = [names[0]]
    remaining = names[1:]
    while remaining:
        nxt = None
        for t in remaining:
            if query.edges_between(joined, t):
                nxt = t
                break
        if nxt is None:
            nxt = remaining[0]
        rel_t = filtered(nxt)
        edges = query.edges_between(joined, nxt)
        if edges:
            left_pos, right_pos = join_keys(edges, current, rel_t)
            il, ir = join_indices(
                [current.arrays[p] for p in left_pos],
                [rel_t.arrays[p] for p in right_pos],
            )
        else:
            il, ir = cross_indices(len(current), len(rel_t))
        current = ColumnarRelation(
            current.columns + rel_t.columns,
            [a[il] for a in current.arrays] + [a[ir] for a in rel_t.arrays],
            n_rows=len(il),
        )
        joined.append(nxt)
        remaining.remove(nxt)
    return len(current)


class SamplingEstimator(CardinalityEstimator):
    """Estimate by executing predicates/joins on a uniform row sample.

    Join estimates are computed by actually joining the per-table samples
    and scaling by the sampling rates — more robust to correlation than
    independence, but noisy at small sample sizes and expensive for large
    join graphs (which is why real systems don't default to it).

    Each table's sample is stamped with the table's plan version
    (:meth:`~repro.engine.catalog.Catalog.plan_version_vector`) and
    redrawn once that version moves, so a sample refreshes exactly when
    a plan built from it would be re-planned: at ANALYZE, DDL, or a
    write that takes the row count into a new power-of-two band.

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
        """``(columns, n_rows, n_sampled)`` of ``table``'s current sample."""
        version = self.catalog.plan_version_vector((table,))
        entry = self._samples.get(table)
        if entry is None or entry[0] != version:
            tbl = self.catalog.table(table)
            n = tbl.n_rows
            if n <= self.sample_size:
                idx = np.arange(n)
            else:
                idx = self._rng.choice(n, size=self.sample_size, replace=False)
            cols = {
                c.name: tbl.column_array(c.name)[idx]
                for c in tbl.schema.columns
            }
            entry = self._samples[table] = (version, cols, n, len(idx))
        return entry[1:]

    @staticmethod
    def _mask(query, table, cols, n_sample):
        """Which sampled rows of ``table`` pass the query's predicates."""
        mask = np.ones(n_sample, dtype=bool)
        for pred in query.predicates_on(table):
            mask = mask & OPS[pred.op](cols[pred.column], pred.value)
        return mask

    def estimate_table(self, query, table):
        cols, n_total, n_sample = self._sample(table)
        if n_sample == 0:
            return 0.0
        mask = self._mask(query, table, cols, n_sample)
        return float(mask.sum()) / n_sample * n_total

    def estimate_subset(self, query, tables):
        names = [t for t in query.tables if t in tables]
        if not names:
            return 0.0
        if len(names) == 1:
            return self.estimate_table(query, names[0])
        # Join the filtered samples table by table (left-deep, in given order).
        scale = 1.0
        first = names[0]
        cols, n_total, n_sample = self._sample(first)
        mask = self._mask(query, first, cols, n_sample)
        current = {(first, cname): arr[mask] for cname, arr in cols.items()}
        current_rows = int(mask.sum())
        scale *= n_total / max(1, n_sample)
        joined = {first}
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
                if edge.left_table in joined:
                    lkey = (edge.left_table, edge.left_column)
                    rcol = edge.right_column
                else:
                    lkey = (edge.right_table, edge.right_column)
                    rcol = edge.left_column
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
                    new_current[(t, cname)] = sel
                keep = np.ones(len(left_idx), dtype=bool)
                for extra in edges[1:]:
                    if extra.left_table == t:
                        a = new_current[(t, extra.left_column)]
                        b = new_current[(extra.right_table, extra.right_column)]
                    else:
                        a = new_current[(t, extra.right_column)]
                        b = new_current[(extra.left_table, extra.left_column)]
                    keep &= a == b
                current = {k: v[keep] for k, v in new_current.items()}
                current_rows = int(keep.sum())
                scale *= n_total_t / max(1, n_sample_t)
                joined.add(t)
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

    Wraps an exact-count callable ``count_fn(query, tables) -> int``,
    typically ``lambda q, ts: count_join_rows(catalog, q, ts)``.

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
            key = (query.signature(), tuple(sorted(tables)))
            token = self._token(tables)
            entry = self._cache.get(key)
            if entry is not None and entry[1] == token:
                return entry[0]
        value = float(self._count_fn(query, list(tables)))
        if self._cache is not None:
            self._cache[key] = (value, token)
        return value


class UpperBoundEstimator(CardinalityEstimator):
    """A :class:`~repro.engine.optimizer.cardinality.CardinalityEstimator`
    view of the UES bounds — answers every subset query with its bound.

    Useful for pricing arbitrary plans pessimistically with the existing
    cost machinery; ignores filter predicates entirely (filters only
    shrink results, so the unfiltered bound stays sound).
    """

    def __init__(self, catalog):
        self.catalog = catalog

    def estimate_table(self, query, table):
        return max(1.0, float(self.catalog.table(table).n_rows))

    def estimate_subset(self, query, tables):
        if len(tables) == 1:
            return self.estimate_table(query, tables[0])
        __, bounds = ues_order(self.catalog, induced_subquery(query, tables))
        return bounds[-1]

    def __repr__(self):
        return "UpperBoundEstimator(tables=%d)" % (
            len(self.catalog.table_names()),
        )
