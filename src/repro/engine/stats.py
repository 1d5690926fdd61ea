"""Table/column statistics: equi-depth histograms and selectivity math.

This is the *traditional* estimation machinery that the learned estimators
in :mod:`repro.ai4db.optimization` are benchmarked against. It deliberately
makes the classic assumptions — uniformity within buckets, attribute-value
independence across predicates — because those assumptions are exactly what
the learned approaches the tutorial surveys were built to fix.
"""

from bisect import bisect_left, bisect_right
from collections import Counter
from itertools import accumulate

import numpy as np

from repro.common import CatalogError
from repro.engine.types import DataType


class EquiDepthHistogram:
    """Most-common values + equi-depth histogram over a numeric column.

    Mirrors the PostgreSQL statistics design: values frequent enough to
    distort an equi-depth bucketing are pulled out into an exact MCV list,
    and the histogram covers only the residual distribution. Without the
    MCV list, heavy hitters collapse quantile edges and wreck both point
    and range estimates.

    Lookups bisect the ``edges`` list (non-decreasing) and the sorted MCV
    values, reading sequential prefix sums of their counts — a bucket
    walk's additions in its order, so results are bit-identical to one.
    """

    def __init__(self, edges, counts, n_distinct, mcv=None, total=None):
        self.edges = [float(e) for e in edges]
        self.counts = np.asarray(counts, dtype=float)
        if len(self.edges) != len(self.counts) + 1:
            raise CatalogError("histogram needs len(edges) == len(counts)+1")
        self.n_distinct = max(1, int(n_distinct))
        #: exact counts of the most common values (value -> count)
        self.mcv = dict(mcv or {})
        self._mcv_keys = sorted(self.mcv)
        self._mcv_below = list(accumulate(
            (self.mcv[v] for v in self._mcv_keys), initial=0))
        # 0.0, then the numpy scalars a bucket walk's accumulator holds.
        self._below = list(accumulate(self.counts, initial=0.0))
        self._mcv_total = float(sum(self.mcv.values()))
        self._resid_total = float(self.counts.sum())
        self.total = float(total) if total is not None else (
            self._mcv_total + self._resid_total
        )
        resid_ndv = self.n_distinct - len(self.mcv)
        self._resid_ndv = max(1, resid_ndv)

    @classmethod
    def build(cls, values, n_buckets=32):
        """Build from raw values: count them (integers as integers, the
        rest as floats with NaN dropped), then :meth:`from_counts`."""
        values = np.asarray(values)
        if values.dtype.kind not in "iu":
            values = values.astype(float)
            values = values[~np.isnan(values)]
        uniq, counts = np.unique(values, return_counts=True)
        return cls.from_counts(uniq, counts, n_buckets=n_buckets)

    @classmethod
    def from_counts(cls, values, counts, n_buckets=32):
        """Build from distinct ``values`` (ascending, NaN-free) and their
        ``counts``: values at least ``max(2, total / n_buckets)`` times
        frequent are the MCVs (picked by a mask); the rest, repeated in
        the given — sorted — order, is cut at its quantiles. Distinct
        values and MCVs are counted on ``values`` as given (int64 for INT
        columns, so integers past 2**53 stay apart); edges and MCV keys
        are floats."""
        total = int(counts.sum())
        if total == 0:
            return cls([0.0, 0.0], [0.0], 1)
        heavy = counts >= max(2.0, total / max(1, n_buckets))
        mcv = {}
        for v, c in zip(values[heavy].tolist(), counts[heavy].tolist()):
            mcv[float(v)] = mcv.get(float(v), 0) + c
        light = ~heavy
        residual = np.repeat(values[light].astype(float), counts[light])
        if residual.size == 0:
            lo = float(values[0])
            return cls([lo, lo], [0.0], len(values), mcv=mcv)
        buckets = max(1, min(n_buckets, residual.size))
        qs = np.linspace(0.0, 1.0, buckets + 1)
        edges = np.unique(np.quantile(residual, qs))
        if len(edges) == 1:
            edges = np.array([edges[0], edges[0]])
        hist, __ = np.histogram(residual, bins=edges)
        return cls(edges, hist.astype(float), len(values), mcv=mcv)

    @property
    def min(self):
        """Column minimum (MCVs included)."""
        lo = float(self.edges[0])
        if self.mcv:
            lo = min(lo, min(self.mcv)) if self._resid_total else min(self.mcv)
        return lo

    @property
    def max(self):
        """Column maximum (MCVs included)."""
        hi = float(self.edges[-1])
        if self.mcv:
            hi = max(hi, max(self.mcv)) if self._resid_total else max(self.mcv)
        return hi

    def _resid_fraction_below(self, x, inclusive):
        """Fraction of *residual* values < x (or <= x when inclusive)."""
        if self._resid_total == 0:
            return 0.0
        edges = self.edges
        if x < edges[0]:
            return 0.0
        if x > edges[-1] or (inclusive and x == edges[-1]):
            return 1.0
        # Buckets [0, k) lie wholly at or below x, and bucket k may hold
        # it (a NaN probe interpolates into bucket 0, as a walk would).
        k = bisect_right(edges, x) - 1 if x == x else 0
        acc = self._below[k]
        if k < len(self.counts) and not x <= edges[k]:
            lo, hi = edges[k], edges[k + 1]
            span = hi - lo
            acc += self.counts[k] * ((x - lo) / span if span > 0 else 0.5)
        return min(1.0, acc / self._resid_total)

    def _fraction_below(self, x, inclusive):
        """Estimated fraction of all values < x (or <= x when inclusive)."""
        if self.total == 0:
            return 0.0
        # MCV values < x (<= x when inclusive); none compare with NaN.
        bisect = bisect_right if inclusive else bisect_left
        mcv_below = self._mcv_below[bisect(self._mcv_keys, x) if x == x else 0]
        resid = self._resid_fraction_below(x, inclusive) * self._resid_total
        return min(1.0, (mcv_below + resid) / self.total)

    def selectivity(self, op, value):
        """Estimated selectivity of ``column <op> value``.

        Supported ops: ``=``, ``!=``, ``<``, ``<=``, ``>``, ``>=``.
        Equality on an MCV is exact; otherwise it uses the uniform-
        frequency assumption over the residual distinct values. A literal
        that is not a number (``'x'`` against an INT column) equals no
        value: ``=`` is 0, ``!=`` is 1 and a range is the fixed 1/3.
        """
        try:
            value = float(value)
        except (TypeError, ValueError):
            if op not in ("=", "!=", "<", "<=", ">", ">="):
                raise CatalogError("unsupported operator %r" % (op,))
            return {"=": 0.0, "!=": 1.0}.get(op, 1.0 / 3.0)
        if op == "=":
            if self.total == 0:
                return 0.0
            if value in self.mcv:
                return self.mcv[value] / self.total
            if self._resid_total == 0:
                return 0.0
            if value < self.edges[0] or value > self.edges[-1]:
                return 0.0
            return (self._resid_total / self.total) / self._resid_ndv
        if op == "!=":
            return 1.0 - self.selectivity("=", value)
        if op == "<":
            return self._fraction_below(value, inclusive=False)
        if op == "<=":
            return self._fraction_below(value, inclusive=True)
        if op == ">":
            return 1.0 - self._fraction_below(value, inclusive=True)
        if op == ">=":
            return 1.0 - self._fraction_below(value, inclusive=False)
        raise CatalogError("unsupported operator %r" % (op,))

    def range_selectivity(self, low, high):
        """Estimated selectivity of ``low <= column <= high``."""
        if high < low:
            return 0.0
        return max(
            0.0,
            self._fraction_below(high, inclusive=True)
            - self._fraction_below(low, inclusive=False),
        )


class ColumnStats:
    """Statistics for one column: bounds, distinct count, histogram."""

    def __init__(self, name, dtype, n_rows, n_distinct, histogram=None,
                 top_values=None):
        self.name = name
        self.dtype = dtype
        self.n_rows = int(n_rows)
        self.n_distinct = max(1, int(n_distinct))
        self.histogram = histogram
        # (value -> frequency) for the most common values; used for TEXT.
        self.top_values = dict(top_values or {})

    @classmethod
    def build(cls, name, dtype, values, counts=None, n_buckets=32, n_top=10):
        """Collect stats from a column array or, given ``counts``, from
        its distinct ``values`` and their counts (the incremental ANALYZE
        path, :meth:`~repro.engine.storage.Table.column_value_counts`).
        Both give the same statistics: TEXT most-common-value ties
        resolve in first-appearance order either way, and a histogram
        depends only on the multiset."""
        if dtype is not DataType.TEXT:
            if counts is None:
                n_rows = len(values)
                hist = EquiDepthHistogram.build(values, n_buckets=n_buckets)
            else:
                n_rows = int(counts.sum())
                hist = EquiDepthHistogram.from_counts(values, counts,
                                                      n_buckets=n_buckets)
            return cls(name, dtype, n_rows, hist.n_distinct, histogram=hist)
        # Hash-based counting: nullable TEXT columns hold None, which
        # sort-based np.unique cannot order. NULLs are excluded from the
        # NDV and the MCV list, as in PostgreSQL's stats.
        freq = (Counter(values) if counts is None
                else dict(zip(values.tolist(), counts.tolist())))
        n_rows = sum(freq.values())
        freq.pop(None, None)
        top = {
            str(v): int(c)
            for v, c in sorted(freq.items(), key=lambda kv: -kv[1])[:n_top]
        }
        return cls(name, dtype, n_rows, len(freq), histogram=None,
                   top_values=top)

    def selectivity(self, op, value):
        """Selectivity of ``column <op> value`` using histogram or NDV."""
        if self.n_rows == 0:
            return 0.0
        if self.dtype is DataType.TEXT:
            if op == "=":
                key = str(value)
                if key in self.top_values:
                    return self.top_values[key] / self.n_rows
                return 1.0 / self.n_distinct
            if op == "!=":
                return 1.0 - self.selectivity("=", value)
            # Range predicates on text: fall back to a fixed guess, as real
            # systems do without collation histograms.
            return 1.0 / 3.0
        if self.histogram is None:
            return 1.0 / self.n_distinct if op == "=" else 1.0 / 3.0
        return self.histogram.selectivity(op, value)

    @property
    def min(self):
        """Column minimum (numeric columns only; None for TEXT)."""
        return self.histogram.min if self.histogram is not None else None

    @property
    def max(self):
        """Column maximum (numeric columns only; None for TEXT)."""
        return self.histogram.max if self.histogram is not None else None


class TableStats:
    """Statistics for one table: row count plus per-column stats."""

    def __init__(self, table_name, n_rows, column_stats):
        self.table_name = table_name
        self.n_rows = int(n_rows)
        self.columns = {c.name.lower(): c for c in column_stats}

    @classmethod
    def build(cls, table, n_buckets=32):
        """Collect statistics from a :class:`repro.engine.storage.Table`.

        Prefers the incremental per-segment path: each column's cached
        segment value counts merge into one ``(values, counts)`` pair
        (:meth:`~repro.engine.storage.Table.column_value_counts`), so
        ANALYZE never decodes a dictionary or RLE segment. Columns a
        segment cannot count exactly (NaN-bearing FLOAT) fall back to
        the decoded array; both paths produce identical statistics.
        """
        value_counts = getattr(table, "column_value_counts", None)
        col_stats = []
        for col in table.schema.columns:
            counted = None if value_counts is None else value_counts(col.name)
            if counted is None:
                counted = (table.column_array(col.name),)
            col_stats.append(ColumnStats.build(
                col.name, col.dtype, *counted, n_buckets=n_buckets))
        return cls(table.name, table.n_rows, col_stats)

    def column(self, name):
        """Per-column stats for ``name``."""
        try:
            return self.columns[name.lower()]
        except KeyError:
            raise CatalogError(
                "no statistics for column %r of table %r"
                % (name, self.table_name)
            )

    def has_column(self, name):
        """Whether stats exist for the column."""
        return name.lower() in self.columns
