"""The benchmark's one seeded catalog: arrays first, engine second.

:func:`generate` draws every table's columns from ``--seed`` as plain
NumPy arrays — the ground truth :mod:`oracle` answers from, never
touching the engine. :func:`build` loads those arrays into a default
``Database()`` (bulk table constructor for ``f`` as the repo's data
generators do, ``CREATE TABLE`` + ``insert_rows`` for the small tables),
creates the ``f.id`` index and runs ``ANALYZE``. The same build serves
all four workloads, so ``setup_s`` is comparable across them.

Table shapes (sizes are fixed; only the values move with the seed):

* ``f(id, k, g, v, c)`` — ``f_segments`` sealed 65,536-row segments and
  no tail; ``id`` sorted and unique, ``k`` in 0..999, ``g`` in 0..49,
  ``v`` a float in [0, 100), ``c`` one of 20 short strings.
* ``d1..d4(id, a, b)`` — 1,000 rows each, tail-only; ``id`` a
  permutation of 0..999 (unique, so every join in the workloads is an
  N:1 lookup), ``a`` in 0..99, ``b`` in 0..9.
* ``w0/w1/w2(id, k, v)`` — the write targets, starting at three tail
  fill levels; ``w2`` starts 1,536 rows short of the seal boundary so
  ``mixed_rw`` crosses it once.
"""

import numpy as np

SEGMENT_ROWS = 65_536
F_SEGMENTS = 4
D_TABLES = ("d1", "d2", "d3", "d4")
D_ROWS = 1_000
W_FILL = {"w0": 8_000, "w1": 30_000, "w2": 64_000}
W_TABLES = tuple(W_FILL)
C_VALUES = tuple("c%02d" % i for i in range(20))

F_COLUMNS = (("id", "INT"), ("k", "INT"), ("g", "INT"), ("v", "FLOAT"),
             ("c", "TEXT"))
D_COLUMNS = (("id", "INT"), ("a", "INT"), ("b", "INT"))
W_COLUMNS = (("id", "INT"), ("k", "INT"), ("v", "FLOAT"))


class Dataset:
    """Generated column arrays: ``tables[name][column] -> ndarray``."""

    def __init__(self, seed, tables):
        self.seed = seed
        self.tables = tables

    def n_rows(self, table):
        return len(self.tables[table]["id"])


def generate(seed, f_segments=F_SEGMENTS):
    """Draw every table from ``seed`` (same seed, same arrays)."""
    rng = np.random.default_rng([int(seed), 0xE2E])
    n = SEGMENT_ROWS * int(f_segments)
    tables = {
        "f": {
            "id": np.arange(n, dtype=np.int64),
            "k": rng.integers(0, 1000, n),
            "g": rng.integers(0, 50, n),
            "v": rng.random(n) * 100.0,
            "c": np.array(C_VALUES, dtype=object)[rng.integers(0, 20, n)],
        }
    }
    for name in D_TABLES:
        tables[name] = {
            "id": rng.permutation(D_ROWS).astype(np.int64),
            "a": rng.integers(0, 100, D_ROWS),
            "b": rng.integers(0, 10, D_ROWS),
        }
    for name, fill in W_FILL.items():
        tables[name] = {
            "id": np.arange(fill, dtype=np.int64),
            "k": rng.integers(0, 100, fill),
            "v": rng.random(fill),
        }
    return Dataset(seed, tables)


def _rows(columns, names):
    return list(zip(*(columns[n].tolist() for n in names)))


def build(data):
    """Load ``data`` into a fresh default ``Database()``; returns it.

    Import of the engine is local so that importing this module (for the
    generator and oracle alone) needs nothing but NumPy.
    """
    from repro.engine import (
        ColumnSchema, DataType, Database, Table, TableSchema,
    )

    db = Database()
    schema = TableSchema("f", [
        ColumnSchema(name, DataType.parse(kind)) for name, kind in F_COLUMNS
    ])
    db.catalog.register_table(Table(
        schema, columns=data.tables["f"],
        segment_rows=db.config.segment_rows,
        segment_encodings=db.config.segment_encodings,
    ))
    db.execute("CREATE INDEX f_id ON f (id)")
    for names, columns in ((D_TABLES, D_COLUMNS), (W_TABLES, W_COLUMNS)):
        ddl = ", ".join("%s %s" % c for c in columns)
        for name in names:
            db.execute("CREATE TABLE %s (%s)" % (name, ddl))
            db.catalog.table(name).insert_rows(
                _rows(data.tables[name], [c[0] for c in columns])
            )
    db.execute("ANALYZE")
    return db
