"""The table tail as append-only typed buffers (PR 18).

A snapshot *views* the tail instead of copying it, so three things have
to hold that the list-based tail gave for free: a held snapshot never
changes whatever the writer does next (growth, seal crossings,
``replace_column``, ``restore``-then-append), the tail's lazily built
zone maps are the ones ``ZoneMap.build`` gives for the same values, and
a batch the columns cannot hold is refused at write time — whole, with
the table untouched — instead of poisoning every later pin.
"""

import math
import random

import numpy as np
import pytest

from reference_executor import ReferenceExecutor
from repro.common import CatalogError
from repro.engine import Database, QueryServer, Table
from repro.engine.segments import ZoneMap
from repro.engine.types import ColumnSchema, DataType, TableSchema

SEGMENT_ROWS = 8
OPS = ("=", "!=", "<", "<=", ">", ">=")
LITERALS = (-1, 0, 3, 7, 40, 10**6, 0.5, 3.5, float("nan"), "", "c1", "zz",
            None)


def _table():
    schema = TableSchema("t", [
        ColumnSchema("a", DataType.INT),
        ColumnSchema("b", DataType.FLOAT),
        ColumnSchema("c", DataType.TEXT),
    ])
    return Table(schema, segment_rows=SEGMENT_ROWS)


def _draw_rows(rng, k, serial):
    """``(rows to insert, the rows the table should then hold)``: a FLOAT
    NULL is stored as NaN, a TEXT NULL stays ``None``."""
    given, stored = [], []
    for i in range(k):
        a = rng.randrange(-5, 50)
        b = rng.choice([None, float("nan"), (serial + i) / 4.0])
        c = rng.choice([None, "c%d" % rng.randrange(4)])
        given.append((a, b, c))
        stored.append((a, float("nan") if b is None else b, c))
    return given, stored


def _norm(rows):
    """Rows with NaN made comparable (``nan != nan``)."""
    return [tuple("nan" if isinstance(v, float) and math.isnan(v) else v
                  for v in row) for row in rows]


def _assert_zone_maps_match_build(snapshot, rows):
    """Every segment's zone map equals ``ZoneMap.build`` of the values
    it holds: the fields, and every verdict over a literal grid."""
    for group in snapshot.row_groups():
        held = rows[group.start:group.start + group.n_rows]
        for j, col in enumerate(snapshot.schema.columns):
            values = np.empty(len(held), dtype=col.dtype.numpy_dtype)
            values[:] = [r[j] for r in held]
            zone = group.segments[col.name.lower()].zone_map
            ref = ZoneMap.build(values, col.dtype)
            assert ((zone.min, zone.max, zone.null_count)
                    == (ref.min, ref.max, ref.null_count)), (group, col)
            for op in OPS:
                for lit in LITERALS:
                    assert zone.classify(op, lit) == ref.classify(op, lit)
                    assert (zone.range_hazard(op, lit)
                            == ref.range_hazard(op, lit))


@pytest.mark.parametrize("seed", range(12))
def test_held_snapshots_never_change(seed):
    """A seeded schedule of single and bulk appends, column replaces and
    restores against a list-based model: every snapshot held along the
    way keeps returning the rows (and zone maps) it had when taken."""
    rng = random.Random(seed)
    table = _table()
    model = []
    held = []  # (snapshot, the model's rows when it was taken)
    seen = set()

    def hold():
        snap = table.snapshot()
        held.append((snap, list(model)))
        _assert_zone_maps_match_build(snap, model)

    def append(k, serial):
        given, stored = _draw_rows(rng, k, serial)
        buffers = dict(table._tail)
        sealed = len(table._groups)
        table.insert_rows(given)
        model.extend(stored)
        crossed = len(table._groups) - sealed
        if crossed:
            seen.add("seal" if crossed == 1 else "seals")
        elif any(table._tail[key] is not buf
                 for key, buf in buffers.items()):
            seen.add("growth")

    for serial in range(0, 400, 4):
        op = rng.choice(["one", "one", "one", "bulk", "replace", "restore",
                         "hold", "hold"])
        if op == "one":
            append(1, serial)
        elif op == "bulk":
            append(rng.randint(2, 3 * SEGMENT_ROWS + 2), serial)
        elif op == "replace":
            j = rng.randrange(3)
            __, stored = _draw_rows(rng, len(model), serial)
            model[:] = [r[:j] + (s[j],) + r[j + 1:]
                        for r, s in zip(model, stored)]
            table.replace_column(
                table.schema.columns[j].name, [r[j] for r in model])
            seen.add("replace")
        elif op == "restore" and held:
            # A later snapshot B stays held while the table goes back
            # to A and then takes *different* rows where B's were.
            hold()
            snap, rows = rng.choice(held)
            table.restore(snap)
            model[:] = rows
            append(rng.randint(1, 5), serial + 1000)
            seen.add("restore")
        else:
            hold()
        assert _norm(table.rows()) == _norm(model)
        for snap, rows in held:
            assert _norm(snap.rows()) == _norm(rows)
    for snap, rows in held:
        _assert_zone_maps_match_build(snap, rows)
    assert seen == {"growth", "seal", "seals", "replace", "restore"}
    assert all(isinstance(buf, np.ndarray) for buf in table._tail.values())


def test_a_sealed_plain_segment_owns_exactly_its_rows():
    """Sealing hands the encoder a buffer of ``segment_rows`` rows — an
    over-allocated one would stay pinned for the life of the segment —
    and a bulk insert spanning several seals fills them all."""
    schema = TableSchema("t", [ColumnSchema("a", DataType.INT)])
    table = Table(schema, segment_rows=SEGMENT_ROWS,
                  segment_encodings=("plain",))
    table.insert_rows([(i,) for i in range(3)])
    rng = np.random.RandomState(0)
    table.insert_rows([(int(v),) for v in rng.permutation(1000)[:45]])
    assert [g.n_rows for g in table.row_groups()] == [8] * 6
    for group in table.row_groups():
        values = group.segments["a"].values
        assert values.base is None and len(values) == SEGMENT_ROWS


# ----------------------------------------------------------------------
# Reads after writes do the same work as before the tail was typed
# ----------------------------------------------------------------------
READS = (
    "SELECT t.a, t.c FROM t WHERE t.a >= 40",
    "SELECT COUNT(*) FROM t WHERE t.b < 3.5",
    "SELECT t.a FROM t WHERE t.c = 'c1' AND t.a < 30",
)
BATCHES = (5, 1, 12, 1, 40, 1)  # tail only, one seal, several seals
#: Per read, as the list-tail engine (commit 25ea7f0) reported them:
#: (rows, work, segments_total, segments_pruned, bytes_decoded).
PARENT_READINGS = (
    (0, 5.0, 1, 1, 0), (1, 9.0, 1, 0, 0), (2, 7.0, 1, 0, 40),
    (0, 6.0, 1, 1, 0), (1, 10.0, 1, 0, 0), (2, 8.0, 1, 0, 48),
    (0, 18.0, 2, 2, 0), (1, 28.0, 2, 0, 0), (6, 24.0, 2, 0, 144),
    (0, 19.0, 2, 2, 0), (1, 29.0, 2, 0, 0), (6, 25.0, 2, 0, 152),
    (19, 78.0, 4, 2, 568), (1, 87.0, 4, 0, 0), (10, 69.0, 4, 2, 256),
    (20, 80.0, 4, 2, 600), (1, 88.0, 4, 0, 0), (10, 70.0, 4, 2, 256),
)


def test_reads_after_writes_count_what_the_list_tail_counted():
    db = Database(segment_rows=16)
    reference = ReferenceExecutor(db.catalog, db.cost_model)
    db.execute("CREATE TABLE t (a INT, b FLOAT, c TEXT)")
    readings = []
    serial = 0
    for batch in BATCHES:
        db.catalog.table("t").insert_rows(
            [(i, i % 7 + 0.5, "c%d" % (i % 3))
             for i in range(serial, serial + batch)])
        serial += batch
        for sql in READS:
            result = db.execute(sql)
            t = result.telemetry
            readings.append((len(result.rows), result.work, t.segments_total,
                             t.segments_pruned, t.bytes_decoded))
            # The reference reads the same tail through ``rows()``.
            spec = reference.execute(db.pipeline.prepare_sql(sql).plan)
            assert (spec.rows, spec.work) == (result.rows, result.work)
    assert readings == list(PARENT_READINGS)


# ----------------------------------------------------------------------
# A batch the columns cannot hold is refused whole, at write time
# ----------------------------------------------------------------------
#: case -> (row, the column that cannot hold it, the same row in SQL —
#: which has no NULL literal, so the NULL arrives as a left-out column).
BAD_ROWS = {
    "text in INT": ((5, "abc"), "b", "INSERT INTO t VALUES (5, 'abc')"),
    "NULL in INT": ((None, 1), "a", "INSERT INTO t (b) VALUES (1)"),
    "beyond int64": ((2 ** 63, 1), "a",
                     "INSERT INTO t VALUES (9223372036854775808, 1)"),
    # All-int columns type in one conversion: the first column is
    # accepted whole before the second overflows.
    "beyond int64 later": ((1, 2 ** 63), "b",
                           "INSERT INTO t VALUES (1, 9223372036854775808)"),
    "fraction in INT": ((1.7, 1), "a", "INSERT INTO t VALUES (1.7, 1)"),
}


def _via_table(db, server, row, sql):
    db.catalog.table("t").insert_rows([(7, 7), row])


def _via_database(db, server, row, sql):
    db.execute(sql)


def _via_session_sql(db, server, row, sql):
    with server.session(tenant="writer") as session:
        try:
            session.execute(sql)
        finally:
            assert session.last_admission.settled


def _via_session_rows(db, server, row, sql):
    with server.session(tenant="writer") as session:
        try:
            session.insert_rows("t", [(7, 7), row])
        finally:
            assert session.last_admission.settled


SURFACES = (_via_table, _via_database, _via_session_sql, _via_session_rows)


@pytest.mark.parametrize("surface", SURFACES, ids=lambda f: f.__name__[5:])
@pytest.mark.parametrize("case", sorted(BAD_ROWS))
def test_a_refused_batch_leaves_everything_as_it_was(surface, case):
    """Two bugs of the list tail. A batch failing on a later column had
    already extended the earlier ones, so the next insert paired values
    with the wrong rows; and a NULL or out-of-range INT was accepted
    (``INSERT 1``, commit logged), after which every pin — any tenant,
    any table — raised a raw ``TypeError`` for good."""
    row, column, sql = BAD_ROWS[case]
    db = Database()
    db.execute("CREATE TABLE t (a INT, b INT)")
    db.execute("CREATE TABLE other (x INT)")
    db.execute("INSERT INTO t VALUES (1, 2)")
    db.execute("INSERT INTO other VALUES (9)")
    server = QueryServer(db)
    table = db.catalog.table("t")
    hook_calls = []
    table.add_write_hook(lambda *call: hook_calls.append(call))
    current = table.snapshot()

    def state():
        return (table.n_rows, table._tail_rows, table.version,
                db.catalog.version_vector(), server.commit_history(),
                server.stats()["commits"])

    before = state()
    with pytest.raises(CatalogError, match="column %r" % column):
        surface(db, server, row, sql)
    assert hook_calls == []
    assert table.snapshot() is current
    assert state() == before
    tenants = server.admission.stats()
    if "writer" in tenants:  # the refused write was refunded in full
        assert tenants["writer"]["charged"] == tenants["writer"]["refunded"]
    # Every table keeps serving, to any tenant, and the next insert
    # pairs its values with the right rows.
    with server.session(tenant="reader") as reader:
        assert reader.execute("SELECT other.x FROM other").rows == [(9,)]
        assert reader.execute("SELECT t.a, t.b FROM t").rows == [(1, 2)]
    table.insert_rows([(3, 4)])
    assert table.rows() == [(1, 2), (3, 4)]


def _typed_value_by_value(dtype, values):
    """What a column stores for ``values`` when each goes through
    ``DataType.coerce`` — the definition the one-call conversion of
    native values must match — or the error the table raises."""
    try:
        return np.array([dtype.coerce(v) for v in values],
                        dtype=dtype.numpy_dtype)
    except (TypeError, ValueError, OverflowError) as exc:
        return CatalogError(
            "%s column %r of table %r cannot hold an inserted value: %s"
            % (dtype.name, "x", "t", exc))


def _stored(arr):
    if arr.dtype == object:
        return [(type(v), repr(v)) for v in arr.tolist()]
    return (arr.dtype, arr.tobytes())


TYPING_CASES = {
    "INT ints": (DataType.INT, [3, -2 ** 63, 2 ** 63 - 1, 0]),
    "INT bools": (DataType.INT, [True, False, 5]),
    "INT np.int64": (DataType.INT, [np.int64(5), 2]),
    "INT np.float64": (DataType.INT, [np.float64(2.0), 1]),
    "INT integral float": (DataType.INT, [2.0, 1]),
    "INT None": (DataType.INT, [1, None]),
    "INT past int64": (DataType.INT, [1, 2 ** 63]),
    "INT below int64": (DataType.INT, [-2 ** 63 - 1, 1]),
    "INT fraction": (DataType.INT, [1.7, 2]),
    "INT integer text": (DataType.INT, ["12", 3]),
    "INT fraction text": (DataType.INT, ["1.5", 3]),
    "FLOAT floats": (DataType.FLOAT, [1.5, -0.0, float("nan"),
                                      float("inf")]),
    "FLOAT ints and floats": (DataType.FLOAT, [1, 2.5, 2 ** 53 + 1,
                                               -(2 ** 70) - 1, 0]),
    "FLOAT past int64": (DataType.FLOAT, [2 ** 63, 2 ** 64 + 3, 0.5]),
    "FLOAT past float": (DataType.FLOAT, [1.0, 10 ** 400]),
    "FLOAT np.float64": (DataType.FLOAT, [np.float64(1.5), 2.0]),
    "FLOAT np.int64": (DataType.FLOAT, [np.int64(3), 1.0]),
    "FLOAT bools": (DataType.FLOAT, [True, 1.5]),
    "FLOAT None": (DataType.FLOAT, [None, 1.0]),
    "FLOAT text": (DataType.FLOAT, ["1.5", 2.0]),
    "FLOAT bad text": (DataType.FLOAT, ["x", 2.0]),
    "TEXT strs": (DataType.TEXT, ["a", "", "b"]),
    "TEXT None": (DataType.TEXT, [None, "a"]),
    "TEXT ints": (DataType.TEXT, [1, "a"]),
    "TEXT floats": (DataType.TEXT, [1.5, float("nan")]),
    "TEXT np.str_": (DataType.TEXT, [np.str_("s"), "t"]),
    "TEXT bytes": (DataType.TEXT, [b"x", "y"]),
}


@pytest.mark.parametrize("case", sorted(TYPING_CASES))
def test_each_column_types_as_value_by_value(case):
    """A column of native values (``int``; ``int`` and ``float``;
    ``str``) is typed in one ``np.array`` call, every other batch value
    by value: either way the table stores the same array, or raises the
    same error and keeps what it had."""
    dtype, values = TYPING_CASES[case]
    table = Table(TableSchema("t", [ColumnSchema("n", DataType.INT),
                                    ColumnSchema("x", dtype)]),
                  segment_rows=SEGMENT_ROWS)
    table.insert_rows([(0, {DataType.INT: 7, DataType.FLOAT: 0.5,
                            DataType.TEXT: "s"}[dtype])])
    before = (table.version, table.column_array("x").copy())
    rows = list(enumerate(values))
    expected = _typed_value_by_value(dtype, values)
    if isinstance(expected, CatalogError):
        with pytest.raises(CatalogError) as raised:
            table.insert_rows(rows)
        assert str(raised.value) == str(expected)
        assert table.version == before[0]
        assert _stored(table.column_array("x")) == _stored(before[1])
        assert table.column_array("n").tolist() == [0]
        return
    assert table.insert_rows(rows) == len(values)
    stored = table.column_array("x")
    assert _stored(stored[1:]) == _stored(expected)
    assert table.column_array("n").tolist() == [0] + list(
        range(len(values)))


def test_float_and_text_columns_still_take_null():
    table = _table()
    table.insert_rows([(1, None, None), (2, 2.5, "x")])
    (a1, b1, c1), second = table.rows()
    assert (a1, c1) == (1, None) and math.isnan(b1)
    assert second == (2, 2.5, "x")


def test_the_table_owns_the_arrays_it_is_built_from():
    """``Table(columns=...)`` and ``replace_column`` keep the caller's
    arrays uncopied, read-only: zeroing them raises, and the table still
    reads what it was built from."""
    schema = TableSchema("t", [ColumnSchema("id", DataType.INT),
                               ColumnSchema("v", DataType.INT)])
    ids = np.arange(10, dtype=np.int64)
    v = np.arange(0, 100, 10, dtype=np.int64)
    db = Database()
    db.catalog.register_table(
        Table(schema, columns={"id": ids, "v": v}, segment_rows=4))
    sql = "SELECT COUNT(*) FROM t WHERE v >= 50"
    assert db.query(sql) == [(5,)]
    with pytest.raises(ValueError):
        v[:] = 0
    assert db.query(sql) == [(5,)]
    assert db.query("SELECT SUM(v) FROM t") == [(450,)]

    table = db.catalog.table("t")
    w = np.full(10, 60, dtype=np.int64)
    table.replace_column("v", w)
    with pytest.raises(ValueError):
        w[:] = 0
    assert db.query(sql) == [(10,)]
