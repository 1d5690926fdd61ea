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
from repro.engine.segments import ColumnSegment, _factorize, merge_value_counts
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


# ----------------------------------------------------------------------
# Edges off cumulative counts == np.quantile over the repeated residual
# ----------------------------------------------------------------------
def _repeat_quantile_histogram(values, counts, n_buckets):
    """``from_counts`` as it was: the residual materialized with
    ``np.repeat``, cut by ``np.quantile`` and counted by bisecting it.
    Returns what ``_hist_bits`` reads."""
    total = int(counts.sum())
    if total == 0:
        return _hist_bits(EquiDepthHistogram([0.0, 0.0], [0.0], 1))
    heavy = counts >= max(2.0, total / max(1, n_buckets))
    mcv = {}
    for v, c in zip(values[heavy].tolist(), counts[heavy].tolist()):
        mcv[float(v)] = mcv.get(float(v), 0) + c
    residual = np.repeat(values[~heavy].astype(float), counts[~heavy])
    if residual.size == 0:
        lo = float(values[0])
        return _hist_bits(EquiDepthHistogram([lo, lo], [0.0], len(values),
                                             mcv=mcv))
    buckets = max(1, min(n_buckets, residual.size))
    edges = np.unique(np.quantile(residual,
                                  np.linspace(0.0, 1.0, buckets + 1)))
    if len(edges) == 1:
        edges = np.array([edges[0], edges[0]])
    cut = np.append(residual.searchsorted(edges[:-1], side="left"),
                    residual.searchsorted(edges[-1], side="right"))
    return _hist_bits(EquiDepthHistogram(
        edges, np.diff(cut).astype(float), len(values), mcv=mcv))


def _hist_bits(hist):
    """Edges by ``float.hex``, bucket counts, MCVs and NDV."""
    return ([float.hex(e) for e in hist.edges], hist.counts.tolist(),
            sorted((float.hex(k), c) for k, c in hist.mcv.items()),
            hist.n_distinct, float.hex(hist.total))


def _assert_edges_bit_identical(values, counts, n_buckets):
    with np.errstate(invalid="ignore"):  # inf - inf, on both paths
        new = _hist_bits(EquiDepthHistogram.from_counts(
            values, counts, n_buckets=n_buckets))
        old = _repeat_quantile_histogram(values, counts, n_buckets)
    assert new == old, (values, counts, n_buckets)


_I64 = np.iinfo(np.int64)
_INT_EDGE_VALUES = st.one_of(
    st.sampled_from([int(_I64.min), int(_I64.min) + 1, int(_I64.max) - 1,
                     int(_I64.max), 2 ** 53, 2 ** 53 + 1, -2 ** 53 - 1, 0]),
    st.integers(2 ** 53, 2 ** 53 + 64), st.integers(-50, 50),
    st.integers(int(_I64.min), int(_I64.max)))
_FLOAT_EDGE_VALUES = st.one_of(
    st.sampled_from([math.inf, -math.inf, -0.0, 0.0, 5e-324, -5e-324,
                     2.2250738585072014e-308 / 3, 1e308, -1e308, 0.1]),
    st.floats(allow_nan=False), st.floats(-10.0, 10.0))


@st.composite
def _count_cases(draw):
    """``(values, counts, n_buckets)``: ascending distinct values with
    counts drawn for heavy hitters, all-ones or an all-MCV column."""
    if draw(st.booleans()):
        values = np.unique(np.array(
            draw(st.lists(_INT_EDGE_VALUES, min_size=1, max_size=80)),
            dtype=np.int64))
    else:
        values = np.unique(np.array(
            draw(st.lists(_FLOAT_EDGE_VALUES, min_size=1, max_size=80)),
            dtype=float))
    shape = draw(st.sampled_from(["mixed", "ones", "all_mcv", "one_light"]))
    n = len(values)
    if shape == "ones":
        counts = [1] * n
    elif shape == "all_mcv":
        counts = [draw(st.integers(2, 9)) * 1000 for __ in range(n)]
    elif shape == "one_light":  # heavy hitters around one residual value
        counts = [5000] * n
        counts[draw(st.integers(0, n - 1))] = draw(st.integers(1, 3))
    else:
        counts = draw(st.lists(st.sampled_from([1, 1, 1, 2, 3, 50, 1000]),
                               min_size=n, max_size=n))
    n_buckets = draw(st.sampled_from([1, 2, 32, 10 ** 6]))
    return values, np.array(counts, dtype=np.int64), n_buckets


@settings(max_examples=600, deadline=None)
@given(_count_cases())
def test_count_based_edges_equal_np_quantile_bit_for_bit(case):
    _assert_edges_bit_identical(*case)


@pytest.mark.parametrize("values, counts, n_buckets", [
    # int64 extremes and neighbours past 2**53 (they round together).
    ([int(_I64.min), -2 ** 53 - 1, 2 ** 53, 2 ** 53 + 1, int(_I64.max)],
     [1, 2, 3, 1, 1], 2),
    ([2 ** 62 + i for i in range(200)], [1] * 200, 32),
    # +-inf around ordinary floats: an inf edge interpolates to nan.
    ([-math.inf, -0.0, 5e-324, 1.5, math.inf], [1, 1, 1, 1, 1], 32),
    ([-math.inf, 1.0, math.inf], [3, 1, 3], 2),
    # One residual value under heavy hitters; every value an MCV.
    ([1.0, 2.0, 3.0], [1, 500, 400], 32),
    ([1, 2], [50, 50], 32),
    # Every count 1, with more buckets than rows and with one bucket.
    (list(range(10)), [1] * 10, 1000),
    (list(range(10)), [1] * 10, 1),
], ids=["int64-extremes", "past-2**53", "float-infs", "inf-heavy",
        "one-value-residual", "all-mcv", "ones-more-buckets-than-rows",
        "ones-one-bucket"])
def test_count_based_edges_at_the_edge_cases(values, counts, n_buckets):
    dtype = np.int64 if isinstance(values[0], int) else float
    _assert_edges_bit_identical(np.array(values, dtype=dtype),
                                np.array(counts, dtype=np.int64), n_buckets)


# ----------------------------------------------------------------------
# The merge's fast paths: each segment's run already ascends
# ----------------------------------------------------------------------
def _segment(values, dtype=DataType.INT, encoding="plain"):
    seg = ColumnSegment.encode(np.array(values, dtype=dtype.numpy_dtype),
                               dtype, ("dict", "plain"))
    assert seg.encoding == encoding
    return seg


def _dict_merge(segments):
    merged = {}
    for seg in segments:
        for v, c in zip(*(a.tolist() for a in seg.value_counts())):
            merged[v] = merged.get(v, 0) + c
    return merged


def _assert_merge_matches_dict(segments, dtype=DataType.INT):
    values, counts = merge_value_counts(segments, dtype)
    expected = _dict_merge(segments)
    assert counts.dtype == np.int64
    assert repr(values.tolist()) == repr(sorted(expected))
    assert counts.tolist() == [expected[v] for v in values.tolist()]
    return values, counts


def test_a_single_run_is_returned_as_it_is():
    seg = _segment([5, 3, 3, 3, 3, 5, 5, 5], encoding="dict")
    assert merge_value_counts([seg], DataType.INT) is seg.value_counts()
    text = _segment(["b", "a", "b"], DataType.TEXT)
    assert merge_value_counts([text], DataType.TEXT) is text.value_counts()


def test_disjoint_ascending_runs_are_concatenated_without_a_sort(
        monkeypatch):
    segments = [_segment([0, 1, 2]), _segment([3] * 7 + [4], encoding="dict"),
                _segment([10, 20])]
    for seg in segments:
        seg.value_counts()

    def no_sort(*args, **kwargs):
        raise AssertionError("disjoint runs were sorted")
    monkeypatch.setattr(np, "argsort", no_sort)
    values, counts = _assert_merge_matches_dict(segments)
    assert values.tolist() == [0, 1, 2, 3, 4, 10, 20]
    assert counts.tolist() == [1, 1, 1, 7, 1, 1, 1]


def test_overlapping_runs_add_the_counts_of_a_repeated_value():
    segments = [_segment([1, 5, 9]),
                _segment([5, 6] + [5] * 6, encoding="dict"), _segment([0, 9])]
    values, counts = _assert_merge_matches_dict(segments)
    assert values.tolist() == [0, 1, 5, 6, 9]
    assert counts.tolist() == [1, 1, 8, 1, 2]
    # Runs that touch at one value overlap; runs that interleave without
    # a value in common need no reduceat.
    values, counts = _assert_merge_matches_dict(
        [_segment([1, 2, 3]), _segment([3, 4])])
    assert (values.tolist(), counts.tolist()) == ([1, 2, 3, 4], [1, 1, 2, 1])
    _assert_merge_matches_dict([_segment([1, 3]), _segment([2, 4])])


@pytest.mark.parametrize("first, second", [(0.0, -0.0), (-0.0, 0.0)])
def test_the_first_zero_in_segment_order_is_kept(first, second):
    segments = [_segment([-1.0, first, 2.0], DataType.FLOAT),
                _segment([second, 1.0], DataType.FLOAT)]
    values, counts = merge_value_counts(segments, DataType.FLOAT)
    assert values.tobytes() == np.array([-1.0, first, 1.0, 2.0]).tobytes()
    assert counts.tolist() == [1, 2, 1, 1]


def test_a_nan_segment_falls_back_to_the_full_column():
    db = Database(segment_rows=4)
    db.execute("CREATE TABLE t (x FLOAT)")
    table = db.catalog.table("t")
    table.insert_rows([(float(i),) for i in range(8)]
                      + [(math.nan,), (1.0,), (2.0,)])
    assert table.row_groups()[-1].segments["x"].value_counts() is None
    assert table.column_value_counts("x") is None
    stats = TableStats.build(table).column("x")
    flat = ColumnStats.build("x", DataType.FLOAT, table.column_array("x"))
    assert _summary(stats) == _summary(flat)
    assert stats.n_rows == 11


def test_plain_segment_values_are_their_own_counts_only_when_ascending():
    ascending = _segment([-3, 0, 7, 8])
    values, counts = ascending.value_counts()
    assert values is ascending.values and counts.tolist() == [1, 1, 1, 1]
    ties = _segment([1, 2, 2, 3])
    values, counts = ties.value_counts()
    assert values is not ties.values
    assert (values.tolist(), counts.tolist()) == ([1, 2, 3], [1, 2, 1])
    floats = _segment([2.0, -0.0, 0.0, 1.0], DataType.FLOAT)
    values, counts = floats.value_counts()  # np.unique; -0.0 came first
    assert values.tobytes() == np.array([-0.0, 1.0, 2.0]).tobytes()
    assert counts.tolist() == [2, 1, 1]


def test_analyze_twice_gives_the_same_stats_and_mutates_no_cached_run():
    db = Database(segment_rows=64)
    db.execute("CREATE TABLE t (i INT, f FLOAT, s TEXT)")
    table = db.catalog.table("t")
    table.insert_rows([(i, float(i % 13) - 6.0, "s%d" % (i % 5))
                       for i in range(200)])
    table.insert_rows([(i, -0.0, None) for i in range(300, 340)])
    db.execute("ANALYZE t")
    first = {c: _summary(db.catalog.stats("t").column(c))
             for c in ("i", "f", "s")}
    cached = [(seg, seg.value_counts(), [a.copy() for a in seg.value_counts()])
              for g in table.row_groups() for seg in g.segments.values()]
    db.execute("ANALYZE t")
    assert {c: _summary(db.catalog.stats("t").column(c))
            for c in ("i", "f", "s")} == first
    for seg, pair, copies in cached:
        assert seg.value_counts() is pair
        for arr, copy in zip(pair, copies):
            assert arr.dtype == copy.dtype
            assert repr(arr.tolist()) == repr(copy.tolist())
            if arr.dtype != object:
                assert arr.tobytes() == copy.tobytes()
