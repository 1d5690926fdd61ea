"""The aggregation fold-order contract, compared exactly.

Every aggregate folds per group code in row order, without sorting rows,
and groups come out in first-appearance order. FLOAT ``SUM``/``AVG`` add
left to right in row order from 0.0 through ``np.bincount`` weights (a
global aggregate is the same fold over one group), which is exactly the
reference executor's explicit left fold. So the engine must equal the
reference *exactly* on float aggregates (rows compared by ``repr``, not
``approx_equal_rows``), grouped and global, over every fuzz catalog.
"""

import functools
import operator
import random

import numpy as np
import pytest

from reference_executor import ReferenceExecutor
from repro.engine import Database
from repro.engine.query import Aggregate, ConjunctiveQuery, JoinEdge, Predicate
from test_engine_fuzz_differential import (
    CATALOG_SEEDS,
    _build_db,
    _random_query,
)

#: Random queries per catalog seed (only the aggregating ones are kept).
CASES = 60

FLOAT_AGGREGATES = [
    Aggregate("sum", None, "v"), Aggregate("avg", None, "v"),
    Aggregate("avg", None, "k"), Aggregate("min", None, "v"),
    Aggregate("max", None, "v"), Aggregate("count"),
]


def _on(table, aggregates):
    return [a if a.column is None else Aggregate(a.func, table, a.column)
            for a in aggregates]


def _float_queries(tables, rng):
    """Float aggregates over each table and one join, grouped on every
    key shape the fuzzer uses and global, with and without a filter."""
    a, b = tables[0], tables[1]
    shapes = [
        ([a], [], a),
        ([a, b], [JoinEdge(a, "k", b, "k")], b),
    ]
    for chosen, edges, t in shapes:
        for keys in ([], ["k"], ["tag"], ["ntag"], ["tag", "k"]):
            for predicates in ([], [Predicate(t, "v", "<",
                                              rng.uniform(-5.0, 5.0))]):
                yield ConjunctiveQuery(
                    tables=chosen, join_edges=edges, predicates=predicates,
                    group_by=[(t, k) for k in keys],
                    aggregates=_on(t, FLOAT_AGGREGATES))


def _assert_exact(db, query, label):
    result = db.run_query_object(query)
    plan = db.pipeline.prepare_query(query).plan
    reference = ReferenceExecutor(db.catalog, db.cost_model).execute(plan)
    assert result.columns == reference.columns, label
    assert repr(result.rows) == repr(reference.rows), (
        "%s\nengine=%r\nreference=%r"
        % (label, result.rows[:5], reference.rows[:5]))
    assert result.work == reference.work, label


@pytest.mark.parametrize("catalog_seed", CATALOG_SEEDS)
def test_float_aggregates_equal_the_reference_exactly(catalog_seed):
    db, tables = _build_db(catalog_seed)
    rng = random.Random(catalog_seed)
    for i, query in enumerate(_float_queries(tables, rng)):
        _assert_exact(db, query, "seed=%d shape=%d" % (catalog_seed, i))
    rng = random.Random(20_000 + catalog_seed)
    for case in range(CASES):
        query = _random_query(rng, tables)
        if query.aggregates:
            _assert_exact(db, query, "seed=%d case=%d query=%r"
                          % (catalog_seed, case, query))


def _left_fold(values):
    return functools.reduce(operator.add, values, 0)


def test_long_groups_fold_left_to_right_not_pairwise():
    """Groups long enough for a pairwise sum to differ from a left fold
    (NumPy's ``add.reduce``/``reduceat`` sum pairwise): the grouped and
    global results are the left fold of each group's rows in row order,
    bit for bit, whatever the segment layout."""
    rng = np.random.default_rng(7)
    n = 5_000
    keys = rng.integers(0, 4, n).tolist()
    values = (rng.random(n) * 1e3 - 3e2).tolist()
    by_key = {}
    for k, v in zip(keys, values):
        by_key.setdefault(k, []).append(v)
    pairwise = [np.add.reduce(np.array(vs)) for vs in by_key.values()]
    assert [float(p) for p in pairwise] != [_left_fold(vs)
                                            for vs in by_key.values()]
    for segment_rows in (64, 1_000, 65_536):
        db = Database(segment_rows=segment_rows)
        db.execute("CREATE TABLE t (k INT, v FLOAT)")
        db.catalog.table("t").insert_rows(list(zip(keys, values)))
        db.execute("ANALYZE")
        grouped = db.execute(
            "SELECT t.k, SUM(t.v), AVG(t.v) FROM t GROUP BY t.k").rows
        assert grouped == [
            (k, _left_fold(vs), _left_fold(vs) / len(vs))
            for k, vs in by_key.items()]
        (total, mean), = db.execute(
            "SELECT SUM(t.v), AVG(t.v) FROM t").rows
        assert repr((total, mean)) == repr(
            (_left_fold(values), _left_fold(values) / n))


def test_all_negative_zero_sums_fold_from_positive_zero():
    """``0 + -0.0`` is ``0.0``: a fold from zero, grouped or global, never
    returns ``-0.0`` — the reference's answer for a sum of ``-0.0``s."""
    db = Database(segment_rows=16)
    db.execute("CREATE TABLE z (k INT, v FLOAT)")
    db.catalog.table("z").insert_rows([(i % 2, -0.0) for i in range(40)])
    db.execute("ANALYZE")
    assert repr(db.execute("SELECT SUM(z.v) FROM z").rows) == "[(0.0,)]"
    assert repr(db.execute(
        "SELECT z.k, SUM(z.v), MIN(z.v) FROM z GROUP BY z.k").rows) == \
        "[(0, 0.0, -0.0), (1, 0.0, -0.0)]"


def _int_key_layouts():
    """``(name, keys, encodings)``: INT key columns over 64-row segments
    whose sealed segments and tail take each encoding mix."""
    rng = np.random.default_rng(3)
    small = rng.integers(0, 7, 256).tolist()
    wide = rng.permutation(256).tolist()
    return [
        ("all dict", small, {"dict"}),
        ("dict + tail", small + [9, 2, 11], {"dict", "plain"}),
        ("all plain", wide, {"plain"}),
        ("dict + plain", small[:128] + wide[:128], {"dict", "plain"}),
        ("rle", sorted(small), {"rle"}),
    ]


@pytest.mark.parametrize("name,keys,encodings", _int_key_layouts(),
                         ids=[c[0] for c in _int_key_layouts()])
def test_int_keys_group_alike_over_every_segment_layout(name, keys,
                                                        encodings):
    """An INT key coded from its segment dictionaries (every surviving
    segment dict-encoded) and one gathered and factorized (any other
    layout) give the reference's groups, in first-appearance order, alone
    and beside a second key, with and without pruned segments."""
    db = Database(segment_rows=64)
    db.execute("CREATE TABLE t (k INT, j INT, v FLOAT)")
    rows = [(k, i % 3, i * 0.25) for i, k in enumerate(keys)]
    db.catalog.table("t").insert_rows(rows)
    db.execute("ANALYZE")
    groups = db.catalog.table("t").row_groups()
    assert {g.segments["k"].encoding for g in groups} == encodings
    # ``v < 32`` prunes all but the first two segments; ``j != 1`` leaves
    # scattered rows of those.
    for predicates in ([], [Predicate("t", "v", "<", 32.0),
                            Predicate("t", "j", "!=", 1)]):
        for keys_by in (["k"], ["k", "j"]):
            query = ConjunctiveQuery(
                tables=["t"], join_edges=[], predicates=predicates,
                group_by=[("t", k) for k in keys_by],
                aggregates=[Aggregate("count"), Aggregate("sum", "t", "v")])
            _assert_exact(db, query, "%s %r %r" % (name, keys_by, predicates))
    survivors = [k for k, j, v in rows if v < 32.0 and j != 1]
    assert [r[0] for r in db.execute(
        "SELECT t.k, COUNT(*) FROM t WHERE t.v < 32.0 AND t.j != 1 "
        "GROUP BY t.k").rows] == list(dict.fromkeys(survivors))


def test_groups_come_out_in_first_appearance_order():
    """Late first appearances (past the first-rows prefix) still order
    the groups by their first row."""
    n = 20_000
    keys = [0] * n + [5, 3, 5, 9]
    db = Database()
    db.execute("CREATE TABLE g (k INT, v FLOAT)")
    db.catalog.table("g").insert_rows([(k, 1.0) for k in keys])
    rows = db.execute("SELECT g.k, COUNT(*) FROM g GROUP BY g.k").rows
    assert rows == [(0, n), (5, 2), (3, 1), (9, 1)]
