"""Property tests for the key-coding kernels, a guard that GROUP BY on a
TEXT column codes its keys from the segment dictionaries, and a check
that a dict INT key's group codes partition rows as ``column_codes``
does on the decoded column.

``column_codes`` must equal ``np.unique``'s inverse, ``stable_code_order``
must equal a stable ``argsort``, and ``join_indices`` must equal a
left-major nested loop — whatever shortcut each takes.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from reference_executor import ReferenceExecutor, assert_matches_reference
from repro.engine import Database
from repro.engine.operators import fused, kernels
from repro.engine.operators.kernels import (
    column_codes,
    join_indices,
    stable_code_order,
)
from repro.engine.operators.scan import filter_groups, gather
from repro.engine.query import Predicate
from repro.engine.segments import ColumnSegment

INT_DTYPES = ("int8", "int16", "int32", "int64",
              "uint8", "uint16", "uint32", "uint64")


def _unique_inverse(arr):
    return np.unique(arr, return_inverse=True)[1].astype(np.int64).ravel()


# ----------------------------------------------------------------------
# column_codes == np.unique's inverse
# ----------------------------------------------------------------------
@st.composite
def int_columns(draw):
    """An integer array of any width and sign, its values packed into a
    window narrow enough for the counting path or wide enough to miss it."""
    dtype = np.dtype(draw(st.sampled_from(INT_DTYPES)))
    info = np.iinfo(dtype)
    n = draw(st.integers(min_value=0, max_value=60))
    width = draw(st.sampled_from([0, 1, 2 * n - 1, 2 * n, 2 * n + 1, 2 ** 70]))
    lo = draw(st.integers(min_value=int(info.min), max_value=int(info.max)))
    hi = min(int(info.max), lo + max(width, 0))
    values = draw(st.lists(st.integers(min_value=lo, max_value=hi),
                           min_size=n, max_size=n))
    return np.array(values, dtype=dtype)


@settings(max_examples=300, deadline=None)
@given(int_columns())
def test_column_codes_equal_unique_inverse(arr):
    codes = column_codes(arr)
    assert codes.dtype == np.int64
    assert np.array_equal(codes, _unique_inverse(arr))


@pytest.mark.parametrize("dtype", INT_DTYPES)
@pytest.mark.parametrize("values", [
    [], [7], [3, 3, 3], [5, 0, 5, 2, 0],
    [-5, -1, -5, -3], [-2 ** 63, 2 ** 63 - 1, -2 ** 63],
    [2 ** 63 - 1, 2 ** 63, 2 ** 64 - 1, 2 ** 63],
    list(range(127, -129, -1)),
], ids=["empty", "one", "constant", "small", "negative", "int64-ends",
        "uint64-high", "span-past-int8"])
def test_column_codes_edge_arrays(dtype, values):
    info = np.iinfo(dtype)
    kept = [v for v in values if info.min <= v <= info.max]
    arr = np.array(kept, dtype=dtype)
    assert np.array_equal(column_codes(arr), _unique_inverse(arr))


@pytest.mark.parametrize("span, sorts", [
    (1, False), (2 * 40 - 1, False), (2 * 40, True), (2 * 40 + 1, True),
])
def test_column_codes_sort_only_past_the_span_threshold(monkeypatch, span,
                                                        sorts):
    """n values whose max - min is ``span``: below 2n they are ranked by
    counting, from 2n on ``np.unique`` sorts them — same codes either way."""
    rng = np.random.default_rng(span)
    arr = rng.integers(0, span + 1, 40) - 1_000
    arr[:2] = (-1_000, -1_000 + span)
    calls = []
    real_unique = np.unique
    monkeypatch.setattr(np, "unique",
                        lambda *a, **k: calls.append(1) or real_unique(*a, **k))
    codes = column_codes(arr)
    assert bool(calls) is sorts
    monkeypatch.undo()
    assert np.array_equal(codes, _unique_inverse(arr))


def test_column_codes_on_objects_group_none_with_none():
    arr = np.array(["b", None, "a", "b", None, 1, 1.0], dtype=object)
    assert column_codes(arr).tolist() == [0, 1, 2, 0, 1, 3, 3]


# ----------------------------------------------------------------------
# stable_code_order == stable argsort
# ----------------------------------------------------------------------
@settings(max_examples=40, deadline=None)
@given(st.sampled_from([1, 256, 257, 65_536, 65_537]),
       st.lists(st.integers(min_value=0, max_value=2 ** 32 - 1),
                max_size=400))
def test_stable_code_order_equals_stable_argsort(k, draws):
    codes = np.array([d % k for d in draws] + [k - 1], dtype=np.int64)
    assert np.array_equal(stable_code_order(codes),
                          np.argsort(codes, kind="stable"))


def test_stable_code_order_of_nothing():
    assert len(stable_code_order(np.empty(0, dtype=np.int64))) == 0


# ----------------------------------------------------------------------
# join_indices == a left-major nested loop
# ----------------------------------------------------------------------
def _nested_loop(left_cols, right_cols):
    nl = len(left_cols[0])
    nr = len(right_cols[0])
    pairs = [(i, j) for i in range(nl) for j in range(nr)
             if all(l[i] == r[j] for l, r in zip(left_cols, right_cols))]
    return [i for i, __ in pairs], [j for __, j in pairs]


_KEY_VALUES = {
    "int": st.integers(min_value=-3, max_value=3),
    "text": st.one_of(st.none(), st.sampled_from(["a", "b", "c"])),
}


@st.composite
def join_sides(draw):
    kinds = draw(st.lists(st.sampled_from(sorted(_KEY_VALUES)),
                          min_size=1, max_size=2))
    sides = []
    for __ in range(2):
        n = draw(st.integers(min_value=0, max_value=25))
        cols = []
        for kind in kinds:
            values = draw(st.lists(_KEY_VALUES[kind], min_size=n, max_size=n))
            cols.append(np.array(values, dtype=np.int64 if kind == "int"
                                 else object))
        sides.append(cols)
    return sides


@settings(max_examples=200, deadline=None)
@given(join_sides())
def test_join_indices_equal_nested_loop(sides):
    left_cols, right_cols = sides
    il, ir = join_indices(left_cols, right_cols)
    assert il.dtype == ir.dtype == np.int64
    assert (il.tolist(), ir.tolist()) == _nested_loop(left_cols, right_cols)


@pytest.mark.parametrize("left, right", [
    ([1, 2, 2, 3], [2, 9, 2, 1]),          # duplicates on both sides
    ([1, 2], [3, 4]),                      # no matches
    ([], [1, 2]),                          # empty left
    ([1, 2], []),                          # empty right
    ([None, "a", None], ["a", None, None]),  # NULL keys match NULL keys
])
def test_join_indices_examples(left, right):
    dtype = object if None in left + right else np.int64
    lc = [np.array(left, dtype=dtype)]
    rc = [np.array(right, dtype=dtype)]
    il, ir = join_indices(lc, rc)
    assert (il.tolist(), ir.tolist()) == _nested_loop(lc, rc)


# ----------------------------------------------------------------------
# join_indices == the factorizing join, on every key the direct path
# could take
# ----------------------------------------------------------------------
def _factorizing_join(left_cols, right_cols):
    """``join_indices`` before it mapped unique integer build keys
    directly: one shared factorization and a counting probe."""
    nl, nr = len(left_cols[0]), len(right_cols[0])
    empty = np.empty(0, dtype=np.int64)
    if nl == 0 or nr == 0:
        return empty, empty.copy()
    codes = kernels.factorize(
        [np.concatenate([l, r]) for l, r in zip(left_cols, right_cols)]
    )
    lc, rc = codes[:nl], codes[nl:]
    per_code = np.bincount(rc, minlength=int(codes.max()) + 1)
    counts = per_code[lc]
    il = np.repeat(np.arange(nl, dtype=np.int64), counts)
    if len(il) == 0:
        return il, empty
    starts = (np.cumsum(per_code) - per_code)[lc]
    offsets = np.cumsum(counts) - counts
    pos = np.arange(len(il)) + np.repeat(starts - offsets, counts)
    return il, stable_code_order(rc)[pos]


SIGNED = ("int8", "int16", "int32", "int64")


@st.composite
def integer_join_sides(draw):
    """One or two signed-integer key columns per side, each side its own
    width: build keys unique or not, spans inside or far past
    ``2 * (nl + nr)``, negative keys, empty sides."""
    n_keys = draw(st.sampled_from([1, 1, 1, 2]))
    nl = draw(st.integers(min_value=0, max_value=30))
    nr = draw(st.integers(min_value=0, max_value=30))
    sides = []
    for n, build in ((nl, False), (nr, True)):
        cols = []
        for __ in range(n_keys):
            dtype = np.dtype(draw(st.sampled_from(SIGNED)))
            info = np.iinfo(dtype)
            span = draw(st.sampled_from([2 * (nl + nr), 4 * (nl + nr) + 9,
                                         int(info.max)]))
            lo = draw(st.integers(min_value=max(int(info.min), -200),
                                  max_value=50))
            hi = min(int(info.max), lo + span)
            keys = st.integers(min_value=lo, max_value=hi)
            unique = build and draw(st.booleans())
            values = draw(st.lists(keys, min_size=n, max_size=n,
                                   unique=unique))
            cols.append(np.array(values, dtype=dtype))
        sides.append(cols)
    return sides


@settings(max_examples=400, deadline=None)
@given(integer_join_sides())
def test_join_indices_equal_the_factorizing_join(sides):
    left_cols, right_cols = sides
    il, ir = join_indices(left_cols, right_cols)
    ol, orr = _factorizing_join(left_cols, right_cols)
    assert il.dtype == ol.dtype and ir.dtype == orr.dtype
    assert il.tolist() == ol.tolist() and ir.tolist() == orr.tolist()


def _spy_direct(monkeypatch):
    """The list of ``_direct_join`` outcomes (``True``: it answered)."""
    took = []
    real = kernels._direct_join

    def spy(*args):
        out = real(*args)
        took.append(out is not None)
        return out

    monkeypatch.setattr(kernels, "_direct_join", spy)
    return took


@pytest.mark.parametrize("right, direct", [
    ([5, -3, 0, 7, 2], True),               # unique, narrow span
    ([5, -3, 0, 5, 2], True),               # duplicate build key
    ([0, 10_000], False),                   # span wider than 2 * (nl + nr)
])
def test_direct_join_only_for_narrow_build_keys(monkeypatch, right, direct):
    took = _spy_direct(monkeypatch)
    left = [np.array([7, 5, 1, -3, 5, 10_000, 2], dtype=np.int16)]
    rc = [np.array(right, dtype=np.int64)]
    il, ir = join_indices(left, rc)
    assert (il.tolist(), ir.tolist()) == _nested_loop(left, rc)
    assert any(took) == direct


@pytest.mark.parametrize("left, right", [
    ([-5, -3, -5, 0, 9], [-3, -5, -3, -5, -4]),     # negative keys
    ([-128, 127, -128, 0], [-128, -127, -128, -128]),  # int8 extremes
    ([3, 3, 4], [-2, -2, -1, -2]),                  # no left key inside
    ([-1, 2, -1], [2, -1, 2, -1, 2]),               # every left row hits
])
def test_direct_join_over_repeated_keys_equals_nested_loop(
        monkeypatch, left, right):
    """Repeated build keys counting-sort over their span: left rows in
    order, each one's matches in right order, for ``int8`` probe keys
    against ``int64`` build keys whose offsets start below zero."""
    took = _spy_direct(monkeypatch)
    lc = [np.array(left, dtype=np.int8)]
    rc = [np.array(right, dtype=np.int64)]
    il, ir = join_indices(lc, rc)
    assert il.dtype == ir.dtype == np.int64
    assert (il.tolist(), ir.tolist()) == _nested_loop(lc, rc)
    assert took == [True]


# ----------------------------------------------------------------------
# GROUP BY a TEXT column codes its keys from the segments
# ----------------------------------------------------------------------
SEG = 64


def _mixed_text_rows():
    """Rows sealing three dict-encoded TEXT segments and two plain
    (high-cardinality: one sorted in runs of two, one scattered)
    segments, plus a tail holding NULLs."""
    texts = []
    for s in range(3):
        texts += [None if s == 2 and i % 7 == 0 else "abcde"[i % 5]
                  for i in range(SEG)]
    texts += ["f%02d" % (i // 2) for i in range(SEG)]
    texts += ["a" if i % 9 == 0 else "u%d" % i for i in range(SEG)]
    texts += [None if i % 2 else "b" for i in range(20)]
    return [(i % 7, i * 0.25, t) for i, t in enumerate(texts)]


@pytest.fixture
def mixed_text_db():
    db = Database(segment_rows=SEG)
    db.execute("CREATE TABLE s (k INT, v FLOAT, t TEXT)")
    db.catalog.table("s").insert_rows(_mixed_text_rows())
    db.execute("ANALYZE")
    groups = db.catalog.table("s").row_groups()
    assert [g.segments["t"].encoding for g in groups] == [
        "dict", "dict", "dict", "plain", "plain", "plain"]
    return db


@pytest.mark.parametrize("sql, key_pos, keep", [
    ("SELECT s.t, COUNT(*), SUM(s.v) FROM s GROUP BY s.t",
     0, lambda k, v: True),
    ("SELECT s.t, MIN(s.v), COUNT(*) FROM s WHERE s.k < 4 GROUP BY s.t",
     0, lambda k, v: k < 4),
    ("SELECT s.t, s.k, COUNT(*), AVG(s.v) FROM s GROUP BY s.t, s.k",
     0, lambda k, v: True),
    ("SELECT s.k, s.t, MAX(s.v) FROM s WHERE s.v > 20.0 GROUP BY s.k, s.t",
     1, lambda k, v: v > 20.0),
])
def test_text_group_keys_come_from_segment_dictionaries(
        mixed_text_db, monkeypatch, sql, key_pos, keep):
    db = mixed_text_db
    plan = db.pipeline.prepare_sql(sql).plan
    seen = []
    real = kernels.object_codes

    def counted(arr, *args):
        seen.append(len(arr))
        return real(arr, *args)

    # Every caller of the object factorizer on the query path, and every
    # way a segment hands out its values.
    monkeypatch.setattr(kernels, "object_codes", counted)
    monkeypatch.setattr(fused, "object_codes", counted)
    read = []
    for method in ("decode", "take"):
        real_method = getattr(ColumnSegment, method)

        def spy(seg, *args, _real=real_method):
            read.append(seg)
            return _real(seg, *args)

        monkeypatch.setattr(ColumnSegment, method, spy)
    result = db.executor.execute(plan)
    monkeypatch.undo()

    assert result.telemetry.fused_ops
    reference = ReferenceExecutor(db.catalog, db.cost_model).execute(plan)
    assert_matches_reference(result, reference, sql)
    assert any(row[key_pos] is None for row in result.rows)
    # Only the plain segments and the tail are coded value by value:
    # exactly their rows that pass the WHERE clause.
    rest = _mixed_text_rows()[3 * SEG:]
    assert sum(seen) == sum(1 for k, v, __ in rest if keep(k, v))
    # The key's dictionary segments are never decoded or taken from.
    text_dicts = [g.segments["t"] for g in db.catalog.table("s").row_groups()
                  if g.segments["t"].encoding == "dict"]
    assert len(text_dicts) == 3
    assert not [s for s in read if any(s is d for d in text_dicts)]


@pytest.mark.parametrize("where", [
    "",  # the NULL group's MIN compares None with None: both raise
    " WHERE s.k != 2 AND s.v < 80.0",  # no NULL row survives
])
def test_text_key_also_an_aggregate_input_is_gathered(mixed_text_db, where):
    db = mixed_text_db
    sql = "SELECT s.t, MIN(s.t), COUNT(*) FROM s%s GROUP BY s.t" % where
    plan = db.pipeline.prepare_sql(sql).plan
    reference = ReferenceExecutor(db.catalog, db.cost_model)
    try:
        expected = reference.execute(plan)
    except TypeError:
        with pytest.raises(TypeError, match="NoneType"):
            db.executor.execute(plan)
        return
    result = db.executor.execute(plan)
    assert result.telemetry.fused_ops
    assert_matches_reference(result, expected, sql)
    assert [r[0] for r in result.rows] == [r[1] for r in result.rows]
    assert len(result.rows) > 10


@pytest.mark.parametrize("first, second", [(-0.0, 0.0), (0.0, -0.0)])
def test_float_key_returns_its_first_rows_value_bit_for_bit(
        mixed_text_db, first, second):
    """0.0 and -0.0 are one group; its key is the first row's value."""
    db = mixed_text_db
    db.execute("CREATE TABLE z (x FLOAT, t TEXT)")
    db.catalog.table("z").insert_rows(
        [(first, "p")] * SEG + [(second, "q")] * SEG + [(second, "r")] * 3)
    sql = "SELECT z.x, z.t, COUNT(*) FROM z GROUP BY z.x, z.t"
    plan = db.pipeline.prepare_sql(sql).plan
    result = db.executor.execute(plan)
    reference = ReferenceExecutor(db.catalog, db.cost_model).execute(plan)
    assert_matches_reference(result, reference, sql)
    signs = [math.copysign(1.0, r[0]) for r in result.rows]
    assert signs == [math.copysign(1.0, v) for v in (first, second, second)]
    assert [r[1:] for r in result.rows] == [("p", SEG), ("q", SEG), ("r", 3)]
    z = db.execute("SELECT z.x, COUNT(*) FROM z GROUP BY z.x").rows
    assert len(z) == 1 and math.copysign(1.0, z[0][0]) == math.copysign(
        1.0, first)


# ----------------------------------------------------------------------
# GROUP BY a dict INT column: codes pass through or map through ranks
# ----------------------------------------------------------------------
@pytest.fixture(params=["identical", "one_lacks_a_value"])
def dict_int_db(request):
    """Four sealed 64-row segments whose INT key is dict-encoded, no
    tail. ``identical``: every segment holds the key values 0..6, so
    each dictionary is the merged one and its codes are the group codes.
    ``one_lacks_a_value``: the second segment never holds 3, so its
    codes map through ranks."""
    def key(s, i):
        k = (i * 5 + s) % 7
        return 4 if request.param != "identical" and s == 1 and k == 3 else k

    rows = [(key(s, i), (s * SEG + i) * 0.5)
            for s in range(4) for i in range(SEG)]
    db = Database(segment_rows=SEG)
    db.execute("CREATE TABLE d (k INT, v FLOAT)")
    db.catalog.table("d").insert_rows(rows)
    db.execute("ANALYZE")
    groups = db.catalog.table("d").row_groups()
    assert [g.segments["k"].encoding for g in groups] == ["dict"] * 4
    merged = np.arange(7)
    same = [np.array_equal(g.segments["k"].dictionary, merged)
            for g in groups]
    assert same == ([True] * 4 if request.param == "identical"
                    else [True, False, True, True])
    return db


@pytest.mark.parametrize("where, preds", [
    ("", []),
    (" WHERE d.v >= 20.0 AND d.v < 100.0",
     [("v", ">=", 20.0), ("v", "<", 100.0)]),
])
def test_dict_int_group_codes_partition_rows_like_column_codes(
        dict_int_db, where, preds):
    db = dict_int_db
    sql = ("SELECT d.k, COUNT(*), SUM(d.v) FROM d%s GROUP BY d.k" % where)
    plan = db.pipeline.prepare_sql(sql).plan
    result = db.executor.execute(plan)
    assert result.telemetry.fused_ops
    reference = ReferenceExecutor(db.catalog, db.cost_model).execute(plan)
    assert_matches_reference(result, reference, sql)

    table = db.catalog.table("d")
    predicates = [Predicate("d", c, op, v) for c, op, v in preds]
    __, survivors, n1, ___ = filter_groups(table, predicates)
    codes, dictionary = fused._dict_segment_codes(survivors, "k")
    (decoded,), __ = gather(table, survivors, ["k"])
    assert len(codes) == n1 == len(decoded)
    assert dictionary.take(codes).tolist() == decoded.tolist()
    np.testing.assert_array_equal(column_codes(codes),
                                  column_codes(decoded))
