"""Unit tests for segmented columnar storage (encodings, zone maps,
late materialization plumbing, and the modeled byte/page accounting).

The differential fuzzer asserts end-to-end parity; these tests pin the
individual contracts: every encoding round-trips exactly (including
NULLs), ``take``/``mask`` agree with the decoded flat evaluation, sealed
segments are never re-copied by later inserts, the plain-encoding byte
model reproduces the original flat numbers, ANALYZE's incremental path
matches the full-column path, and EXPLAIN ANALYZE surfaces the pruning
counters.
"""

import operator

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.common import ExecutionError
from repro.engine import Database
from repro.engine.operators.kernels import first_rows, group_reduce
from repro.engine.segments import (
    FULL,
    PARTIAL,
    PRUNED,
    ColumnSegment,
    choose_encoding,
)
from repro.engine.stats import ColumnStats, TableStats
from repro.engine.storage import Table
from repro.engine.types import ColumnSchema, DataType, TableSchema

OPS = {
    "=": operator.eq, "!=": operator.ne,
    "<": operator.lt, "<=": operator.le,
    ">": operator.gt, ">=": operator.ge,
}


def _flat_mask(arr, op, value):
    """The unsegmented engine's predicate evaluation (scalar-collapse)."""
    m = np.asarray(OPS[op](arr, value))
    if m.ndim == 0:
        m = np.full(len(arr), bool(m))
    return m.astype(bool, copy=False)


def _cases():
    """(label, array, dtype, expected_encoding) fixtures."""
    rng = np.random.RandomState(7)
    low_card_int = rng.randint(0, 4, size=64).astype(np.int64)
    shuffled = np.arange(100, dtype=np.int64)
    rng.shuffle(shuffled)
    text = np.empty(60, dtype=object)
    text[:] = [
        None if i % 5 == 0 else "tag%d" % (i % 3) for i in range(60)
    ]
    sorted_text = np.empty(30, dtype=object)
    sorted_text[:] = ["x"] * 10 + [None] * 10 + ["y"] * 10
    nan_float = np.array([1.5, np.nan, 2.5, np.nan] * 8)
    return [
        ("dict-int", low_card_int, DataType.INT, "dict"),
        ("rle-int", np.repeat(np.arange(8, dtype=np.int64), 8),
         DataType.INT, "rle"),
        ("plain-int", shuffled, DataType.INT, "plain"),
        ("dict-text-nulls", text, DataType.TEXT, "dict"),
        ("rle-text-nulls", sorted_text, DataType.TEXT, "rle"),
        ("plain-float-nan", nan_float, DataType.FLOAT, "plain"),
    ]


RANGE_OPS = ("<", "<=", ">", ">=")

#: Per type: the values a generated column draws from (NULL and NaN
#: included) and a literal of another type, which ``=``/``!=`` compare
#: as unequal and a range comparison refuses.
_POOLS = {
    DataType.INT: ([-3, -1, 0, 2, 5], "zz"),
    DataType.FLOAT: ([-1.5, -0.0, 0.0, 0.5, 2.0, float("inf"),
                      float("nan")], "zz"),
    DataType.TEXT: (["a", "b", "bb", "c", None], 5),
}


@st.composite
def _encoded_columns(draw):
    """``(values, dtype, segment)``: 4–10 runs of 4–9 equal values from
    at most four distinct ones, sealed as a plain, dict or RLE segment
    (a FLOAT column holding NaN, or both zeros, stays plain)."""
    dtype = draw(st.sampled_from(list(_POOLS)))
    pool = draw(st.lists(st.sampled_from(_POOLS[dtype][0]), min_size=1,
                         max_size=4, unique_by=repr))
    runs = draw(st.lists(st.tuples(st.sampled_from(pool),
                                   st.integers(4, 9)),
                         min_size=4, max_size=10))
    arr = np.empty(sum(n for __, n in runs), dtype=dtype.numpy_dtype)
    arr[:] = [v for v, n in runs for __ in range(n)]
    encoding = draw(st.sampled_from(("plain", "dict", "rle")))
    seg = ColumnSegment.encode(arr, dtype, allowed=(encoding,))
    plain = dtype is DataType.FLOAT and (
        bool(np.isnan(arr).any())
        or len({repr(v) for v in arr.tolist() if v == 0}) == 2)
    assert seg.encoding == ("plain" if plain else encoding)
    return arr, dtype, seg


def _predicates(dtype):
    """One ``(op, literal)``: the literal is a pool value, a value between
    pool values, or of another type."""
    values, other = _POOLS[dtype]
    if dtype is DataType.TEXT:
        literals = [v for v in values if v is not None] + ["ab", other]
    else:
        literals = values + [1.25, -2, other]
    return st.tuples(st.sampled_from(list(OPS)), st.sampled_from(literals))


class TestEncodings:
    @pytest.mark.parametrize(
        "label,arr,dtype,expected", _cases(),
        ids=[c[0] for c in _cases()],
    )
    def test_round_trip(self, label, arr, dtype, expected):
        seg = ColumnSegment.encode(arr, dtype)
        assert seg.encoding == expected
        decoded = seg.decode()
        assert decoded.dtype == arr.dtype
        if dtype is DataType.FLOAT:
            np.testing.assert_array_equal(decoded, arr)  # NaN-safe
        else:
            assert decoded.tolist() == arr.tolist()
        ids = np.array([0, len(arr) - 1, len(arr) // 2, 1], dtype=np.int64)
        np.testing.assert_array_equal(seg.take(ids), arr[ids])

    def test_mixed_signed_zeros_keep_their_sign(self):
        arr = np.array([0.0, -0.0] * 40000 + [1.0] * 100)
        seg = ColumnSegment.encode(arr, DataType.FLOAT)
        assert seg.encoding == "plain"
        assert np.signbit(seg.decode()).sum() == 40000
        # One sign of zero alone still compresses.
        assert ColumnSegment.encode(
            np.array([-0.0] * 64), DataType.FLOAT).encoding == "rle"

    @settings(max_examples=200, deadline=None)
    @given(runs=st.lists(
               st.tuples(st.sampled_from([0.0, -0.0, float("nan"),
                                          float("inf"), float("-inf"), 1.5]),
                         st.integers(1, 9)),
               min_size=1, max_size=12),
           allowed=st.sampled_from([("dict", "rle", "plain"), ("dict",),
                                    ("rle",)]))
    def test_float_round_trip_is_bit_exact(self, runs, allowed):
        arr = np.array([v for v, n in runs for __ in range(n)])
        seg = ColumnSegment.encode(arr, DataType.FLOAT, allowed=allowed)
        decoded = seg.decode()
        assert decoded.dtype == arr.dtype
        assert decoded.view(np.int64).tolist() == arr.view(np.int64).tolist()
        ids = np.arange(len(arr))[::-1].copy()
        assert (seg.take(ids).view(np.int64).tolist()
                == arr[ids].view(np.int64).tolist())

    def test_forced_plain(self):
        arr = np.zeros(50, dtype=np.int64)  # would pick rle by default
        assert choose_encoding(arr, DataType.INT) == "rle"
        seg = ColumnSegment.encode(arr, DataType.INT, allowed=("plain",))
        assert seg.encoding == "plain"
        assert seg.decode().tolist() == arr.tolist()

    def test_null_counts_are_row_accurate(self):
        text = np.empty(60, dtype=object)
        text[:] = [None if i % 5 == 0 else "t%d" % (i % 3) for i in range(60)]
        dict_seg = ColumnSegment.encode(text, DataType.TEXT)
        assert dict_seg.encoding == "dict"
        assert dict_seg.zone_map.null_count == 12
        runs = np.empty(30, dtype=object)
        runs[:] = ["x"] * 10 + [None] * 10 + ["y"] * 10
        rle_seg = ColumnSegment.encode(runs, DataType.TEXT)
        assert rle_seg.encoding == "rle"
        assert rle_seg.zone_map.null_count == 10

    def test_value_counts_match_flat(self):
        for label, arr, dtype, __ in _cases():
            seg = ColumnSegment.encode(arr, dtype)
            vc = seg.value_counts()
            if label == "plain-float-nan":
                assert vc is None  # NaN makes exact counting unsound
                continue
            values, counts = vc
            assert int(counts.sum()) == len(arr), label
            flat = {}
            for v in arr.tolist():
                flat[v] = flat.get(v, 0) + 1
            assert dict(zip(values.tolist(), counts.tolist())) == flat, label


class TestZoneMaps:
    def test_int_classify(self):
        seg = ColumnSegment.encode(np.arange(10, 20, dtype=np.int64),
                                   DataType.INT)
        zone = seg.zone_map
        assert (zone.min, zone.max) == (10, 19)
        assert zone.classify("=", 30) == PRUNED
        assert zone.classify("=", 15) == PARTIAL
        assert zone.classify("!=", 30) == FULL
        assert zone.classify("<", 10) == PRUNED
        assert zone.classify("<", 25) == FULL
        assert zone.classify(">=", 10) == FULL
        assert zone.classify(">", 19) == PRUNED
        assert zone.classify(">", 15) == PARTIAL
        assert not zone.range_hazard("<", 15)

    def test_null_text_never_range_pruned(self):
        text = np.empty(20, dtype=object)
        text[:] = ["a"] * 10 + [None] * 10
        zone = ColumnSegment.encode(text, DataType.TEXT).zone_map
        assert zone.classify("=", "zzz") == PRUNED
        # A range op over NULLs raises in flat evaluation — the zone must
        # flag it hazardous and refuse to prune.
        assert zone.classify("<", "a") == PARTIAL
        assert zone.range_hazard("<", "a")

    def test_nan_bounds_disable_zone(self):
        arr = np.array([1.0, np.nan, 3.0])
        zone = ColumnSegment.encode(arr, DataType.FLOAT).zone_map
        assert zone.min is None
        assert zone.classify("=", 2.0) == PARTIAL


class TestMaskParity:
    @pytest.mark.parametrize(
        "label,arr,dtype,expected", _cases(),
        ids=[c[0] for c in _cases()],
    )
    def test_mask_equals_flat(self, label, arr, dtype, expected):
        seg = ColumnSegment.encode(arr, dtype)
        if dtype is DataType.TEXT:
            probes = [("=", "tag1"), ("!=", "tag1"), ("=", "x"),
                      ("=", "missing"), ("!=", "missing")]
        else:
            mid = float(np.nanmean(arr.astype(float)))
            probes = [(op, v) for op in OPS
                      for v in (mid, float(arr[0]), -1e9)]
        for op, value in probes:
            np.testing.assert_array_equal(
                seg.mask([(op, value)]), _flat_mask(arr, op, value),
                err_msg="%s %s %r" % (label, op, value),
            )

    def test_range_on_nulls_raises_like_flat(self):
        text = np.empty(12, dtype=object)
        text[:] = ["a", None, "b"] * 4
        seg = ColumnSegment.encode(text, DataType.TEXT)
        with pytest.raises(TypeError):
            _flat_mask(text, "<", "b")
        with pytest.raises(TypeError):
            seg.mask([("<", "b")])

    @settings(max_examples=400, deadline=None)
    @given(_encoded_columns(), st.data())
    def test_conjunction_mask_equals_and_of_flat(self, column, data):
        """One column's conjunction, evaluated once in dictionary/run
        space, is the AND of the flat evaluations — or raises
        ``TypeError`` exactly where one of them does."""
        arr, dtype, seg = column
        preds = data.draw(st.lists(_predicates(dtype), min_size=1,
                                   max_size=3))
        try:
            expected = np.logical_and.reduce(
                [_flat_mask(arr, op, value) for op, value in preds])
        except TypeError:
            with pytest.raises(TypeError):
                seg.mask(preds)
            return
        null_range = (dtype is DataType.TEXT and None in arr.tolist()
                      and any(op in RANGE_OPS for op, __ in preds))
        assert not null_range  # a NULL-bearing TEXT range always raises
        np.testing.assert_array_equal(seg.mask(preds), expected)


def _table(segment_rows=16, segment_encodings=None):
    schema = TableSchema("t", [
        ColumnSchema("a", DataType.INT),
        ColumnSchema("b", DataType.FLOAT),
        ColumnSchema("c", DataType.TEXT),
    ])
    return Table(schema, segment_rows=segment_rows,
                 segment_encodings=segment_encodings)


class TestTailSegment:
    def test_batched_inserts_do_not_recopy_sealed_segments(self):
        table = _table(segment_rows=16)
        sealed = {}
        for batch in range(10):
            rows = [(batch * 10 + i, float(i), "c%d" % (i % 3))
                    for i in range(10)]
            table.insert_rows(rows)
            groups = table.row_groups()
            tail = 1 if table.n_rows % 16 else 0
            for gi, g in enumerate(groups[: len(groups) - tail]):
                for key, seg in g.segments.items():
                    if (gi, key) in sealed:
                        # Sealing is final: later batches must reuse the
                        # very same segment objects, not re-encode them.
                        assert sealed[(gi, key)] is seg
                    else:
                        sealed[(gi, key)] = seg
        assert table.n_rows == 100
        assert table.n_segments == 7  # six sealed 16-row groups + the tail
        assert sealed  # the identity assertion actually ran
        assert table.column_array("a").tolist() == list(range(0, 100)) != []

    def test_pin_after_a_write_does_no_per_row_work(self, monkeypatch):
        """The tail is typed when written, so the snapshot after a write
        wraps read-only views of the table's buffers: nothing encoded,
        nothing copied, however many rows the tail holds."""
        db = Database()
        db.execute("CREATE TABLE t (a INT, b FLOAT, c TEXT)")
        table = db.catalog.table("t")
        table.insert_rows(
            [(i, i / 2.0, "c%d" % (i % 3)) for i in range(50_000)])
        db.catalog.snapshot()
        encodes = []
        encode = ColumnSegment.encode.__func__
        monkeypatch.setattr(ColumnSegment, "encode", classmethod(
            lambda cls, *args: encodes.append(args) or encode(cls, *args)))
        table.insert_rows([(50_000, None, None)])
        group = db.catalog.snapshot().table("t").row_groups()[-1]
        assert encodes == []
        assert group.n_rows == 50_001
        for key, seg in group.segments.items():
            assert seg.encoding == "plain"
            assert np.shares_memory(seg.values, table._tail[key])
            assert isinstance(table._tail[key], np.ndarray)
            with pytest.raises(ValueError, match="read-only"):
                seg.values[0] = seg.values[1]
        assert group.segments["a"].zone_map.max == 50_000
        assert group.segments["c"].zone_map.null_count == 1

    def test_rows_survive_sealing_boundaries(self):
        table = _table(segment_rows=16)
        expected = []
        for i in range(40):
            table.insert_rows([(i, i / 2.0, None if i % 7 == 0 else "x")])
            expected.append((i, i / 2.0, None if i % 7 == 0 else "x"))
        assert table.rows() == expected


class TestByteModel:
    """Pin the plain-encoding numbers to the original flat-layout model."""

    def test_plain_row_bytes_and_pages_pinned(self):
        table = _table(segment_rows=64, segment_encodings=("plain",))
        table.insert_rows([(i, float(i), "s%d" % i) for i in range(1000)])
        # INT(8) + FLOAT(8) + TEXT(24) per row, exactly as before
        # segmentation existed.
        assert table.row_bytes() == 40
        assert table.n_pages() == 5          # ceil(1000 / (8192 // 40))
        assert table.column_pages("a") == 1  # 8192 // 8 = 1024 rows/page
        assert table.column_pages("b") == 1
        assert table.column_pages("c") == 3  # ceil(1000 / 341)
        assert table.encoded_bytes() == 1000 * 40

    def test_empty_table_model(self):
        table = _table()
        assert table.row_bytes() == 40
        assert table.n_pages() == 0
        assert table.column_pages("a") == 0

    def test_encoding_shrinks_reported_bytes(self):
        plain = _table(segment_rows=64, segment_encodings=("plain",))
        enc = _table(segment_rows=64)
        rows = [(i % 3, float(i % 2), "const") for i in range(640)]
        plain.insert_rows(rows)
        enc.insert_rows(rows)
        assert enc.encoded_bytes() < plain.encoded_bytes()
        assert enc.column_pages("c") < plain.column_pages("c")
        assert enc.row_bytes() < plain.row_bytes()


class TestIncrementalAnalyze:
    def test_stats_match_full_column_build(self):
        table = _table(segment_rows=16)
        table.insert_rows([
            (i % 5, float(i % 7), None if i % 4 == 0 else "t%d" % (i % 3))
            for i in range(100)
        ])
        stats = TableStats.build(table)
        for col in table.schema.columns:
            via_counts = stats.column(col.name)
            flat = ColumnStats.build(
                col.name, col.dtype, table.column_array(col.name)
            )
            assert via_counts.n_rows == flat.n_rows
            assert via_counts.n_distinct == flat.n_distinct
            assert via_counts.top_values == flat.top_values
            if flat.histogram is not None:
                assert via_counts.histogram.mcv == flat.histogram.mcv
                np.testing.assert_array_equal(
                    via_counts.histogram.edges, flat.histogram.edges
                )
                np.testing.assert_array_equal(
                    via_counts.histogram.counts, flat.histogram.counts
                )

    def test_nan_float_falls_back(self):
        table = _table(segment_rows=16)
        table.insert_rows([
            (i, float("nan") if i % 9 == 0 else float(i), "x")
            for i in range(50)
        ])
        assert table.column_value_counts("b") is None
        stats = TableStats.build(table)  # must not crash
        assert stats.column("b").n_rows == 50


class TestSegmentReduce:
    """The per-group-code fold (``group_reduce``): numeric arrays fold
    per code with ``bincount``/``ufunc.at`` — rows of a group need not be
    contiguous — and object values fold in Python."""

    @staticmethod
    def _obj(values):
        arr = np.empty(len(values), dtype=object)
        arr[:] = values
        return arr

    @staticmethod
    def _reduce(func, vals, codes):
        codes = np.asarray(codes, dtype=np.uint8)
        counts = np.bincount(codes)
        return group_reduce(func, vals, codes, counts,
                            first_rows(codes, counts))

    def test_int_values_fold_per_code(self):
        vals = np.array([1, 20, 2, 10, 3])
        codes = [0, 1, 0, 1, 0]  # interleaved groups: no sort needed
        out = self._reduce("sum", vals, codes)
        assert out.dtype == np.int64
        assert out.tolist() == [6, 30]
        assert self._reduce("avg", vals, codes).tolist() == [2.0, 15.0]
        assert self._reduce("min", vals, codes).tolist() == [1, 10]
        assert self._reduce("max", vals, codes).tolist() == [3, 20]
        assert self._reduce("count", vals, codes).tolist() == [3, 2]

    def test_float_values_fold_per_code(self):
        vals = np.array([1.5, -1.0, 2.5, 4.0, 1e16, 1.0, -1e16])
        out = self._reduce("sum", vals, [0, 1, 0, 1, 2, 2, 2])
        assert out.dtype == np.float64
        # Left to right from 0.0: (1e16 + 1.0) rounds the 1.0 away.
        assert out.tolist() == [4.0, 3.0, 0.0]

    def test_mixed_objects_keep_fallback(self):
        vals = self._obj([1, 2.5, 3])
        out = self._reduce("sum", vals, [0, 0, 0])
        assert out.dtype == object
        assert out.tolist() == [6.5]

    def test_big_ints_keep_exact_python_arithmetic(self):
        big = 2 ** 70
        vals = self._obj([big, big])
        assert self._reduce("sum", vals, [0, 0]).tolist() == [2 ** 71]
        near = 2 ** 62
        vals = self._obj([near, near, near])
        out = self._reduce("sum", vals, [0, 0, 0])
        assert out.tolist() == [3 * 2 ** 62]  # > int64 max: exact Python sum

    def test_unknown_func_raises(self):
        with pytest.raises(ExecutionError):
            self._reduce("median", self._obj([1]), [0])


class TestExplainAnalyzeCounters:
    def _db(self):
        db = Database(segment_rows=16)
        db.execute("CREATE TABLE t (id INT, v FLOAT, tag TEXT)")
        db.catalog.table("t").insert_rows([
            (i, float(i) / 2.0, "g%d" % (i // 50)) for i in range(200)
        ])
        db.execute("ANALYZE")
        return db

    def test_pruning_surfaces_in_explain_analyze(self):
        db = self._db()
        res = db.explain_analyze("SELECT id FROM t WHERE id < 40")
        run = res.trace.execute
        assert run.segments_total > 0
        assert run.segments_pruned > 0
        assert run.segments_pruned < run.segments_total
        assert "pruned" in str(res)
        assert sorted(r[0] for r in res.result.rows) == list(range(40))

    def test_bytes_decoded_drops_with_late_materialization(self):
        db = self._db()
        narrow = db.explain_analyze("SELECT id FROM t WHERE id < 40")
        wide = db.explain_analyze("SELECT id, v, tag FROM t")
        assert (0 < narrow.trace.execute.bytes_decoded
                < wide.trace.execute.bytes_decoded)

    def test_scans_under_a_join_decode_only_the_columns_read(self):
        """``f ⋈ d1`` grouped on ``d1.b``: the scans decode ``f.k``,
        ``f.v``, ``d1.id`` and ``d1.b`` — not the full width."""
        db = Database(segment_rows=16)
        db.execute("CREATE TABLE f (id INT, k INT, g INT, v FLOAT, c TEXT)")
        db.execute("CREATE TABLE d1 (id INT, a INT, b INT)")
        db.catalog.table("f").insert_rows(
            (i, i % 10, i % 5, i / 4.0, "c%d" % (i % 3)) for i in range(96))
        db.catalog.table("d1").insert_rows(
            (i, i % 4, i % 3) for i in range(10))
        db.execute("ANALYZE")
        res = db.explain_analyze(
            "SELECT d1.b, COUNT(*), SUM(f.v) FROM f, d1 WHERE f.k = d1.id"
            " AND f.g >= 1 AND f.g < 3 GROUP BY d1.b")
        read = {"f": ("k", "v"), "d1": ("id", "b")}
        expected = full = 0
        for name, columns in read.items():
            for g in db.catalog.table(name).row_groups():
                expected += sum(g.segments[c].encoded_bytes()
                                for c in columns)
                full += sum(s.encoded_bytes() for s in g.segments.values())
        assert res.trace.execute.segments_pruned == 0
        assert res.trace.execute.bytes_decoded == expected < full
        assert "(%d bytes decoded)" % expected in str(res)
