"""ANALYZE counts by code: the array merge against the dict merge it replaced.

``merge_value_counts`` returns ``(values, counts)`` arrays (numeric values
ascending, merged with one concatenate + stable sort + ``reduceat``; TEXT
in first-appearance order) and ``EquiDepthHistogram.from_counts`` builds
from them directly. The oracle below is the previous statistics path,
copied verbatim but for the order of each segment's counts (now
``_factorize``'s: ascending numbers, first-appearance TEXT), a Python
``{value: count}`` merge, ``build_from_counts``'s ``repeat`` back to the
raw multiset and ``EquiDepthHistogram.build``'s ``np.unique``/``np.isin``.
Every statistic a planner reads must come out with the same ``repr``.

Two bugs the old path had are pinned separately: INT values were counted
as float64 (distinct integers past 2**53 merged), and a text literal
against an INT column crashed planning.
"""

import math
import sqlite3
from collections import Counter

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.ai4db.optimization.ues import max_frequency
from repro.common import CatalogError
from repro.engine import Database
from repro.engine.segments import _factorize
from repro.engine.stats import ColumnStats, EquiDepthHistogram, TableStats
from repro.engine.types import DataType


# ----------------------------------------------------------------------
# The oracle: the dict-merge statistics path, as it was
# ----------------------------------------------------------------------
def _old_segment_counts(seg):
    """``(values, counts)`` in ``_factorize`` order, or ``None`` (NaN)."""
    if seg.n_rows == 0:
        return np.empty(0, dtype=seg.dtype.numpy_dtype), np.empty(0, np.int64)
    if seg.encoding == "dict":
        return seg.dictionary, np.bincount(seg.codes,
                                           minlength=len(seg.dictionary))
    arr = seg.values
    if seg.dtype is DataType.FLOAT and bool(np.isnan(arr).any()):
        return None
    codes, dictionary = _factorize(arr)
    return dictionary, np.bincount(codes, minlength=len(dictionary))


def _old_merge(segments):
    merged = {}
    for seg in segments:
        vc = _old_segment_counts(seg)
        if vc is None:
            return None
        values, counts = vc
        for v, c in zip(values.tolist(), counts.tolist()):
            merged[v] = merged.get(v, 0) + c
    return merged


def _old_histogram(values, n_buckets=32):
    values = np.asarray(values, dtype=float)
    values = values[~np.isnan(values)]
    if values.size == 0:
        return EquiDepthHistogram(np.array([0.0, 0.0]), np.array([0.0]), 1)
    uniq, freq = np.unique(values, return_counts=True)
    ndv = len(uniq)
    threshold = max(2.0, values.size / max(1, n_buckets))
    heavy = freq >= threshold
    mcv = {float(v): int(c) for v, c in zip(uniq[heavy], freq[heavy])}
    residual = values[~np.isin(values, uniq[heavy])]
    if residual.size == 0:
        lo = float(uniq[0])
        return EquiDepthHistogram(np.array([lo, lo]), np.array([0.0]), ndv,
                                  mcv=mcv)
    buckets = max(1, min(n_buckets, residual.size))
    qs = np.linspace(0.0, 1.0, buckets + 1)
    edges = np.unique(np.quantile(residual, qs))
    if len(edges) == 1:
        edges = np.array([edges[0], edges[0]])
    counts, __ = np.histogram(residual, bins=edges)
    return EquiDepthHistogram(edges, counts.astype(float), ndv, mcv=mcv)


def _old_text_stats(name, n_rows, freq, n_top=10):
    top = {str(v): int(c)
           for v, c in sorted(freq.items(), key=lambda kv: -kv[1])[:n_top]}
    return ColumnStats(name, DataType.TEXT, n_rows, len(freq), top_values=top)


def _old_column_stats(table, col):
    """``(ColumnStats, merged counts or None)`` the old ANALYZE built."""
    merged = _old_merge(g.segments[col.name] for g in table.row_groups())
    if merged is None:  # the NaN fallback: the decoded column
        values = table.column_array(col.name)
        hist = _old_histogram(values)
        return ColumnStats(col.name, col.dtype, len(values), hist.n_distinct,
                           histogram=hist), None
    n_rows = sum(merged.values())
    if col.dtype is DataType.TEXT:
        freq = {v: c for v, c in merged.items() if v is not None}
        return _old_text_stats(col.name, n_rows, freq), merged
    values = np.repeat(np.asarray(list(merged), dtype=float),
                       np.asarray(list(merged.values()), dtype=np.int64))
    hist = _old_histogram(values)
    return ColumnStats(col.name, col.dtype, n_rows, hist.n_distinct,
                       histogram=hist), merged


def _old_max_frequency(n_rows, stats, merged):
    if n_rows <= 1:
        return 1.0
    if merged:
        return float(max(1, max(merged.values())))
    heaviest = max(stats.top_values.values()) if stats.top_values else 0
    if stats.histogram is not None and stats.histogram.mcv:
        heaviest = max(heaviest, max(stats.histogram.mcv.values()))
    average = math.ceil(n_rows / max(1, stats.n_distinct))
    return float(min(n_rows, max(1, heaviest, average)))


def _summary(stats):
    """Everything a planner reads off one column's statistics."""
    hist = stats.histogram
    return repr((
        stats.n_rows, stats.n_distinct, stats.top_values,
        None if hist is None else (hist.edges, hist.counts.tolist(),
                                   hist.mcv, hist.total),
    ))


def _outcome(fn):
    try:
        return fn()
    except (ValueError, FloatingPointError) as exc:
        return ("raises", type(exc).__name__)


# ----------------------------------------------------------------------
# Generated tables
# ----------------------------------------------------------------------
_POOLS = {
    DataType.INT: st.one_of(
        st.sampled_from([0, 1, -1, 7, 2 ** 53, -2 ** 53, 12345]),
        st.integers(-50, 50), st.integers(-2 ** 53, 2 ** 53)),
    DataType.FLOAT: st.one_of(
        st.sampled_from([0.0, -0.0, 1.5, -2.25, 1e300, math.inf,
                         -math.inf, 0.1]),
        st.floats(-100.0, 100.0, allow_nan=False)),
    DataType.TEXT: st.one_of(st.none(), st.sampled_from(["a", "b", "c", ""]),
                             st.text(max_size=3)),
}


@st.composite
def tables(draw):
    """``(dtype, rows, batch sizes, segment_rows, encodings)``."""
    dtype = draw(st.sampled_from(list(_POOLS)))
    value = _POOLS[dtype]
    if dtype is DataType.FLOAT and draw(st.booleans()):
        value = st.one_of(value, st.just(math.nan))
    rows = draw(st.lists(value, max_size=160))
    if draw(st.booleans()):  # long runs: sorted and constant segments
        rows = sorted(rows, key=lambda v: (v is None, repr(v)))
    segment_rows = draw(st.one_of(st.integers(4, 40), st.integers(41, 1000)))
    cuts = sorted(draw(st.lists(st.integers(0, len(rows)), max_size=3)))
    encodings = draw(st.sampled_from([None, ("plain",)]))
    return dtype, rows, cuts, segment_rows, encodings


def _load(dtype, rows, cuts, segment_rows, encodings):
    db = Database(segment_rows=segment_rows,
                  **({} if encodings is None
                     else {"segment_encodings": encodings}))
    db.execute("CREATE TABLE t (x %s)" % dtype.value.upper())
    table = db.catalog.table("t")
    for lo, hi in zip([0] + cuts, cuts + [len(rows)]):
        if hi > lo:
            table.insert_rows([(v,) for v in rows[lo:hi]])
    return db, table


def _assert_matches_oracle(spec):
    db, table = _load(*spec)
    col = table.schema.column("x")
    old = _outcome(lambda: _old_column_stats(table, col))
    new = _outcome(lambda: TableStats.build(table).column("x"))
    if isinstance(old, tuple) and old[0] == "raises":
        assert new == old
        return table
    old_stats, merged = old
    assert _summary(new) == _summary(old_stats), spec
    # The merge itself: one entry per distinct value, the same counts,
    # and the same representative (``0.0`` or ``-0.0``, int or float).
    counted = table.column_value_counts("x")
    assert (counted is None) == (merged is None)
    if counted is not None:
        values, counts = counted
        assert counts.dtype == np.int64
        assert len(values) == len(merged)
        assert Counter(dict(zip(values.tolist(), counts.tolist()))) == \
            Counter(merged)
        assert repr(sorted(values.tolist(), key=repr)) == \
            repr(sorted(merged, key=repr))
    assert repr(max_frequency(db.catalog, "t", "x")) == repr(
        _old_max_frequency(table.n_rows, old_stats, merged))
    return table


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")  # inf - inf
@settings(max_examples=400, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(tables())
def test_array_merge_equals_the_dict_merge(spec):
    _assert_matches_oracle(spec)


#: Sealed segments of both encodings (a constant one among them), then
#: a tail.
_KINDS_INT = [i % 3 for i in range(64)] + [7] * 64 + list(range(100, 164)) \
    + [5, 7, 100]
_KINDS_FLOAT = ([(-0.0, 0.0, 2.5, 2.5)[i % 4] for i in range(64)]
                + [0.0] * 64 + [-0.0] * 64 + [float(i) for i in range(64)])


@pytest.mark.parametrize("dtype, rows, cuts, segment_rows, encodings", [
    (DataType.INT, _KINDS_INT, [10, 70], 64, None),
    (DataType.INT, _KINDS_INT, [], 64, ("plain",)),
    (DataType.FLOAT, _KINDS_FLOAT, [100], 64, None),
    (DataType.FLOAT, _KINDS_FLOAT[::-1], [], 64, None),
    (DataType.FLOAT, _KINDS_FLOAT + [math.nan], [], 64, None),
    (DataType.TEXT, [None, "b", "a"] * 30 + ["z"] * 64, [7], 32, None),
    (DataType.TEXT, [], [], 4, None),
    (DataType.FLOAT, [], [], 4, None),
], ids=["int-kinds", "int-plain", "float-zeros", "float-zeros-reversed",
        "float-nan", "text", "text-empty", "float-empty"])
def test_every_segment_kind_matches_the_dict_merge(dtype, rows, cuts,
                                                   segment_rows, encodings):
    table = _assert_matches_oracle(
        (dtype, rows, cuts, segment_rows, encodings))
    if rows and encodings is None and dtype is DataType.INT:
        kinds = [g.segments["x"].encoding for g in table.row_groups()]
        assert kinds == ["dict", "dict", "plain", "plain"]
    if rows and dtype is DataType.FLOAT and rows[0] == -0.0:
        kinds = [g.segments["x"].encoding for g in table.row_groups()]
        assert kinds[:3] == ["plain", "dict", "dict"]
        counted = table.column_value_counts("x")
        # The first zero in row order is -0.0; a dict merge keeps it.
        assert counted is None or math.copysign(1.0, counted[0][0]) == -1.0


# ----------------------------------------------------------------------
# Bug: INT values were counted as float64
# ----------------------------------------------------------------------
def test_int_values_past_2_to_the_53_stay_distinct():
    db = Database()
    db.execute("CREATE TABLE big (x INT)")
    db.catalog.table("big").insert_rows([(2 ** 62 + i,) for i in range(100)])
    db.execute("ANALYZE big")
    stats = db.catalog.stats("big").column("x")
    assert stats.n_distinct == 100
    assert stats.histogram.mcv == {}
    # One value in a hundred, not every row.
    assert stats.selectivity("=", 2 ** 62 + 5) == pytest.approx(0.01)
    raw = ColumnStats.build("x", DataType.INT,
                            db.catalog.table("big").column_array("x"))
    assert _summary(raw) == _summary(stats)


def test_heavy_big_ints_sharing_a_float_key_add_up():
    values = np.array([2 ** 62, 2 ** 62 + 1], dtype=np.int64)
    hist = EquiDepthHistogram.from_counts(values, np.array([10, 10]))
    assert hist.n_distinct == 2
    assert hist.mcv == {float(2 ** 62): 20}


# ----------------------------------------------------------------------
# Bucket counts by bisection of the sorted residual == np.histogram's
# ----------------------------------------------------------------------
def _histogram_counts(values, counts, n_buckets, edges):
    """``np.histogram`` over ``from_counts``' residual (the non-MCV rows,
    repeated in order) cut at ``edges`` — the counts it used to keep."""
    heavy = counts >= max(2.0, int(counts.sum()) / max(1, n_buckets))
    residual = np.repeat(values[~heavy].astype(float), counts[~heavy])
    if residual.size == 0:
        return [0.0]
    return np.histogram(residual, bins=np.array(edges))[0].astype(
        float).tolist()


def _assert_counts_like_np_histogram(values, counts, n_buckets=32):
    hist = EquiDepthHistogram.from_counts(values, counts,
                                          n_buckets=n_buckets)
    assert hist.counts.tolist() == _histogram_counts(values, counts,
                                                     n_buckets, hist.edges)
    return hist


@settings(max_examples=300, deadline=None)
@given(st.one_of(
    st.lists(st.integers(-50, 50), unique=True, min_size=1, max_size=60),
    st.lists(st.integers(-2 ** 63, 2 ** 63 - 1), unique=True, min_size=1,
             max_size=20),
    st.lists(st.floats(-1e6, 1e6), unique=True, min_size=1, max_size=60)),
    st.data(), st.sampled_from([1, 2, 4, 32]))
def test_bucket_counts_equal_np_histogram(values, data, n_buckets):
    values = np.array(sorted(values))
    counts = np.array(data.draw(st.lists(
        st.sampled_from([1, 1, 1, 2, 3, 50]),
        min_size=len(values), max_size=len(values))), dtype=np.int64)
    _assert_counts_like_np_histogram(values, counts, n_buckets)


@pytest.mark.parametrize("values, counts, edges", [
    # Heavy hitters split from a residual cut into several buckets.
    (list(range(40)), [1] * 19 + [400] + [1] * 19 + [300], None),
    # The residual is one value: its edges collapse to [v, v].
    ([1, 2, 3], [1, 500, 400], [1.0, 1.0]),
    # Every value is an MCV: the residual is empty.
    ([1, 2], [50, 50], [1.0, 1.0]),
])
def test_bucket_counts_at_the_edge_cases(values, counts, edges):
    hist = _assert_counts_like_np_histogram(
        np.array(values, dtype=np.int64), np.array(counts, dtype=np.int64))
    if edges is not None:
        assert hist.edges == edges
    else:
        assert hist.mcv and len(hist.edges) > 2


# ----------------------------------------------------------------------
# Bug: a text literal against an INT column crashed planning
# ----------------------------------------------------------------------
@pytest.mark.parametrize("op, expected", [
    ("=", 0.0), ("!=", 1.0), ("<", 1 / 3), ("<=", 1 / 3), (">", 1 / 3),
    (">=", 1 / 3),
])
def test_non_numeric_literal_estimates(op, expected):
    hist = EquiDepthHistogram.build(np.arange(10))
    assert hist.selectivity(op, "x") == expected
    with pytest.raises(CatalogError):
        hist.selectivity("~", "x")


@pytest.mark.parametrize("where, expected", [
    ("t.a = 'x'", 0), ("t.a != 'x'", 6), ("t.a = 'x' AND t.b = 'u'", 0),
])
def test_text_literal_against_int_column_answers_like_sqlite(where,
                                                             expected):
    rows = [(i, "u" if i % 2 else "v") for i in range(6)]
    db = Database()
    db.execute("CREATE TABLE t (a INT, b TEXT)")
    db.catalog.table("t").insert_rows(rows)
    db.execute("ANALYZE")
    lite = sqlite3.connect(":memory:")
    lite.execute("CREATE TABLE t (a INTEGER, b TEXT)")
    lite.executemany("INSERT INTO t VALUES (?, ?)", rows)
    sql = "SELECT COUNT(*) FROM t WHERE %s" % where
    assert lite.execute(sql).fetchall() == [(expected,)]
    assert db.session().execute(sql).raw.rows == [(expected,)]
    assert db.execute(sql).rows == [(expected,)]
