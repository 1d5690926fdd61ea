"""A SeqScan under a join emits only the columns the plan reads.

Every plan below is a join — hash, nested-loop and cross — whose scans
feed operators that read a few columns: ``SELECT *``, an IndexScan
residual on a column nothing else reads, DISTINCT, LIMIT, and ORDER BY on
a column outside the select list. Each must match the reference executor
(rows, order, ``work``, per-node counts) and SQLite (rows as a multiset),
so a read set that drops a needed column fails here.
"""

import sqlite3
from collections import Counter

import pytest

from reference_executor import ReferenceExecutor, assert_matches_reference
from repro.engine import Database, plans as P
from repro.engine.executor import Executor
from repro.engine.fusion import fuse_plan, plan_reads
from repro.engine.query import JoinEdge, Predicate


@pytest.fixture(scope="module")
def db():
    db = Database(segment_rows=16)
    db.execute("CREATE TABLE a (id INT, k INT, v FLOAT, tag TEXT)")
    db.execute("CREATE TABLE b (id INT, k INT, w FLOAT, note TEXT)")
    db.catalog.table("a").insert_rows(
        (i, i % 7, (i * 37 % 50) / 10.0 - 2.0, "tag%d" % (i % 4))
        for i in range(60))
    db.catalog.table("b").insert_rows(
        (i, i % 5, i * 0.5, "n%d" % (i % 3)) for i in range(24))
    db.execute("CREATE INDEX a_id ON a (id)")
    db.execute("ANALYZE")
    return db


def _scan_a():
    return P.SeqScan("a", [Predicate("a", "v", "<", 2.0)])


def _scan_b():
    return P.SeqScan("b", [Predicate("b", "k", "<", 4)])


def _probe_a():
    return P.IndexScan("a", "a_id", Predicate("a", "id", "<", 40),
                       [Predicate("a", "v", ">", -1.0)])


_EDGE = [JoinEdge("a", "k", "b", "k")]

#: join kind -> (join node factory, the SQL condition it evaluates)
JOINS = {
    "hash": (lambda l, r: P.HashJoin(l, r, _EDGE), " AND a.k = b.k"),
    "nested_loop": (lambda l, r: P.NestedLoopJoin(l, r, _EDGE),
                    " AND a.k = b.k"),
    "cross": (P.CrossJoin, ""),
}

_WHERE = " WHERE a.v < 2.0 AND b.k < 4"

#: shape -> (plan over a join factory, SQL with ``{on}`` for the edge)
SHAPES = {
    "select_star": (
        lambda j: j(_scan_a(), _scan_b()),
        "SELECT * FROM a, b" + _WHERE + "{on}"),
    "index_residual": (
        lambda j: P.Project(j(_probe_a(), _scan_b()),
                            [("a", "tag"), ("b", "w")]),
        "SELECT a.tag, b.w FROM a, b WHERE a.id < 40 AND a.v > -1.0"
        " AND b.k < 4{on}"),
    "distinct": (
        lambda j: P.Project(j(_scan_a(), _scan_b()),
                            [("a", "tag"), ("b", "note")], distinct=True),
        "SELECT DISTINCT a.tag, b.note FROM a, b" + _WHERE + "{on}"),
    "limit": (
        lambda j: P.Limit(P.Project(j(_scan_a(), _scan_b()),
                                    [("a", "id"), ("b", "note")]), 7),
        "SELECT a.id, b.note FROM a, b" + _WHERE + "{on} LIMIT 7"),
    "order_by_unselected": (
        lambda j: P.Project(P.Sort(j(_scan_a(), _scan_b()), ("b", "w"),
                                   descending=True),
                            [("a", "tag"), ("a", "id")]),
        "SELECT a.tag, a.id FROM a, b" + _WHERE + "{on} ORDER BY b.w DESC"),
}


def _sqlite(db):
    lite = sqlite3.connect(":memory:")
    lite.execute("CREATE TABLE a (id INTEGER, k INTEGER, v REAL, tag TEXT)")
    lite.execute("CREATE TABLE b (id INTEGER, k INTEGER, w REAL, note TEXT)")
    for name in ("a", "b"):
        lite.executemany("INSERT INTO %s VALUES (?, ?, ?, ?)" % name,
                         db.catalog.table(name).rows())
    return lite


@pytest.mark.parametrize("shape", list(SHAPES))
@pytest.mark.parametrize("join", list(JOINS))
def test_join_reads_match_reference_and_sqlite(db, join, shape):
    make_join, on = JOINS[join]
    build, sql = SHAPES[shape]
    plan = build(make_join)
    sql = sql.format(on=on)
    engine = Executor(db.catalog, db.cost_model).execute(plan)
    reference = ReferenceExecutor(db.catalog, db.cost_model).execute(plan)
    assert_matches_reference(engine, reference, sql)
    assert engine.rows

    lite = _sqlite(db)
    theirs = lite.execute(sql).fetchall()
    everything = lite.execute(sql.replace(" LIMIT 7", "")).fetchall()
    lite.close()
    if shape == "limit":
        assert len(engine.rows) == len(theirs)
        assert not Counter(engine.rows) - Counter(everything), sql
    else:
        assert sorted(engine.rows) == sorted(theirs), sql

    # Narrowing happened: a plan that reads some columns decodes fewer
    # bytes than the same scans under SELECT *.
    reads = plan_reads(fuse_plan(plan)[0])
    if shape == "select_star":
        assert reads is None
        return
    if shape == "index_residual":
        assert ("a", "v") in reads  # read by the residual alone
    star = Executor(db.catalog, db.cost_model).execute(
        SHAPES["select_star"][0](make_join))
    assert (engine.trace.execute.bytes_decoded
            < star.trace.execute.bytes_decoded)
