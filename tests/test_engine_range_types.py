"""A range predicate between a number and text is a plan error.

PostgreSQL's rule: ``< <= > >=`` between an INT/FLOAT column and a text
literal, or a TEXT column and a number, is refused before anything runs
— so the answer no longer depends on whether an index exists (a SeqScan
used to raise NumPy's raw ``UFuncTypeError``, an IndexScan answered
from the sort). ``=`` and ``!=`` keep their answers, index or not:
nothing equals a value of the other kind. SQLite answers these instead,
because it sorts every number before every text value.
"""

import pytest

from repro.common import PlanError
from repro.engine import Database, QueryServer
from repro.engine.query import Aggregate, ConjunctiveQuery, Predicate

N = 200


def _db(indexed):
    db = Database()
    db.execute("CREATE TABLE t (a INT, f FLOAT, c TEXT)")
    db.catalog.table("t").insert_rows(
        [(i, i / 4.0, "s%03d" % i) for i in range(N)])
    if indexed:
        for col in ("a", "f", "c"):
            db.execute("CREATE INDEX t_%s ON t (%s)" % (col, col))
    db.execute("ANALYZE")
    return db


#: predicates that must refuse: (column, op, literal)
MISMATCHED = [
    ("a", "<", "x"),
    ("a", ">=", "10"),
    ("f", "<=", "x"),
    ("c", "<", 5),
    ("c", ">", 2.5),
]


def _sql(col, op, value):
    literal = "'%s'" % value if isinstance(value, str) else repr(value)
    return "SELECT COUNT(*) FROM t WHERE t.%s %s %s" % (col, op, literal)


def _query(col, op, value):
    return ConjunctiveQuery(["t"], predicates=[Predicate("t", col, op, value)],
                            aggregates=[Aggregate("count")])


@pytest.mark.parametrize("indexed", [False, True])
@pytest.mark.parametrize("col, op, value", MISMATCHED)
def test_number_vs_text_range_raises_on_every_route(indexed, col, op, value):
    db = _db(indexed)
    sql = _sql(col, op, value)
    with pytest.raises(PlanError, match="cannot compare"):
        db.session().execute(sql)
    with pytest.raises(PlanError, match="cannot compare"):
        db.run_query_object(_query(col, op, value))
    session = QueryServer(db).session()
    with pytest.raises(PlanError, match="cannot compare"):
        session.execute(sql)
    with pytest.raises(PlanError, match="cannot compare"):
        session.run_query_object(_query(col, op, value))


@pytest.mark.parametrize("indexed", [False, True])
@pytest.mark.parametrize("col, op, value, count", [
    ("a", "=", "x", 0),
    ("a", "!=", "x", N),
    ("c", "=", 5, 0),
    ("c", "!=", 5, N),
    ("a", "<", 2.5, 3),
    ("f", ">=", 10, N - 40),
    ("c", "<", "s010", 10),
])
def test_equality_and_same_kind_ranges_keep_their_answers(indexed, col, op,
                                                          value, count):
    db = _db(indexed)
    assert db.session().execute(_sql(col, op, value)).rows == [(count,)]
    assert db.run_query_object(_query(col, op, value)).rows == [(count,)]
