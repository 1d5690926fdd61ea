"""Identifiers are case-insensitive on every surface, and stored folded.

A table, column or index name resolves in any case: in SQL text (DDL,
INSERT, ANALYZE, aliases, joins, GROUP BY), through the catalog and
table API, in a structured :class:`ConjunctiveQuery` and in an explicit
join ``order=``. Result labels read folded, and string literals are
never folded. A session policy denies a table or column whatever case
the policy or the statement spells it in. A table, column or index
created with mixed case is stored, shown and compared folded.
"""

import pytest

from repro.common import CatalogError
from repro.engine import (
    Aggregate,
    ConjunctiveQuery,
    Database,
    JoinEdge,
    Policy,
    PolicyError,
    Predicate,
)


def _db():
    db = Database()
    db.execute("CREATE TABLE Foo (Id INT, Bar INT, S TEXT)")
    db.execute("INSERT INTO FOO VALUES (1, 10, 'a1'), (2, 20, 'A1'), "
               "(3, 10, 'b')")
    db.execute("CREATE TABLE baz (ID INT, W INT)")
    db.execute("INSERT INTO Baz (Id, w) VALUES (1, 100), (3, 300)")
    db.execute("CREATE INDEX ix ON fOO (BAR)")
    db.execute("ANALYZE FOO")
    db.execute("ANALYZE baz")
    return db


class TestSqlNames:
    def test_mixed_case_text_resolves(self):
        db = _db()
        assert db.query("SELECT f.ID, F.bar FROM Foo f WHERE F.id = 2") \
            == [(2, 20)]
        assert sorted(db.query(
            "SELECT foo.S, BAZ.w FROM FOO JOIN baz ON Foo.ID = Baz.id")) \
            == [("a1", 100), ("b", 300)]
        assert sorted(db.query(
            "SELECT F.s, b.W FROM foo F, BAZ b WHERE f.Id = B.ID "
            "AND F.BAR = 10")) == [("a1", 100), ("b", 300)]
        assert sorted(db.query(
            "SELECT Bar, COUNT(*) FROM FOO GROUP BY BAR")) \
            == [(10, 2), (20, 1)]

    def test_result_labels_read_folded(self):
        db = _db()
        assert db.execute("SELECT FOO.Bar FROM foo").columns \
            == [("foo", "bar")]
        assert db.execute("SELECT F.S, B.w FROM Foo F JOIN Baz B "
                          "ON F.ID = B.Id").columns \
            == [("foo", "s"), ("baz", "w")]

    def test_string_literals_are_never_folded(self):
        db = _db()
        assert db.query("SELECT id FROM foo WHERE s = 'a1'") == [(1,)]
        assert db.query("SELECT id FROM foo WHERE s = 'A1'") == [(2,)]
        db.execute("INSERT INTO foo VALUES (4, 40, 'MiXeD')")
        assert db.query("SELECT S FROM FOO WHERE ID = 4") == [("MiXeD",)]

    def test_case_variants_share_one_plan(self):
        db = _db()
        lower = db.execute("SELECT foo.s FROM foo WHERE foo.bar = 10")
        upper = db.execute("SELECT FOO.S FROM FOO WHERE FOO.BAR = 10")
        assert upper.rows == lower.rows
        assert upper.work == lower.work
        assert str(db.explain("SELECT FOO.S FROM FOO WHERE FOO.BAR = 10")) \
            == str(db.explain("SELECT foo.s FROM foo WHERE foo.bar = 10"))


class TestStoredNames:
    """One name per object, folded where it enters."""

    def test_mixed_case_ddl_is_stored_folded(self):
        db = _db()
        table = db.catalog.table("FOO")
        assert table.name == "foo"
        assert table.schema.column_names == ["id", "bar", "s"]
        assert db.catalog.table_names() == ["baz", "foo"]
        assert [i.name for i in db.catalog.indexes()] == ["ix"]
        assert "foo" in str(db.explain("SELECT FOO.S FROM FOO"))
        assert "Foo" not in db.catalog.describe()

    def test_query_constructors_fold(self):
        pred = Predicate("FOO", "Bar", "=", "MiXeD")
        assert (pred.table, pred.column, pred.value) == ("foo", "bar", "MiXeD")
        edge = JoinEdge("Foo", "ID", "BAZ", "Id")
        assert edge.key() == (("baz", "id"), ("foo", "id"))
        agg = Aggregate("Sum", "FOO", "Id")
        assert (agg.func, agg.table, agg.column) == ("sum", "foo", "id")
        query = ConjunctiveQuery(
            tables=["FOO", "foo", "Baz"], join_edges=[edge], predicates=[pred],
            projections=[("Foo", "S")], group_by=[("FOO", "S")],
            order_by=(("FOO", "S"), True))
        assert query.tables == ["foo", "baz"]
        assert query.projections == query.group_by == [("foo", "s")]
        assert query.order_by == (("foo", "s"), True)


class TestApiNames:
    def test_catalog_lookups(self):
        db = _db()
        catalog = db.catalog
        assert catalog.table("FOO") is catalog.table("foo")
        assert catalog.has_table("fOo")
        idx = catalog.index_on("FOO", "bar")
        assert idx is not None and idx is catalog.index_on("foo", "BAR")
        assert catalog.indexes("Foo") == [idx]
        assert catalog.stats("FOO") is catalog.stats("foo")
        vector = catalog.plan_version_vector(["FOO", "Baz"])
        assert vector == catalog.plan_version_vector(["foo", "baz"])
        assert [name for name, __ in vector] == ["baz", "foo"]
        assert db.version_vector(["FOO"]) == db.version_vector(["foo"])
        assert [name for name, __ in db.version_vector(["FOO"])] == ["foo"]

    def test_table_column_access(self):
        table = _db().catalog.table("FOO")
        assert table.column_array("BAR").tolist() == [10, 20, 10]
        assert table.column_array("bar") is table.column_array("Bar")
        assert table.schema.column("ID").name == table.schema.column(
            "id").name
        assert list(table.column_arrays(columns=["BAR", "Id"])) \
            == ["bar", "id"]

    def test_index_names(self):
        catalog = _db().catalog
        with pytest.raises(CatalogError, match="already exists"):
            catalog.create_index("IX", "foo", "id")
        catalog.drop_index("Ix")
        assert catalog.indexes("foo") == []
        assert catalog.index_on("FOO", "BAR") is None

    def test_query_object_and_order(self):
        db = _db()
        query = ConjunctiveQuery(
            tables=["FOO", "Baz"],
            join_edges=[JoinEdge("Foo", "ID", "BAZ", "Id")],
            predicates=[Predicate("FOO", "BAR", "=", 10)],
            projections=[("foo", "S"), ("BAZ", "W")],
        )
        plain = db.run_query_object(query)
        assert sorted(plain.rows) == [("a1", 100), ("b", 300)]
        assert plain.columns == [("foo", "s"), ("baz", "w")]
        for order in (["BAZ", "Foo"], ["foo", "baz"]):
            ordered = db.run_query_object(query, order=order)
            assert sorted(ordered.rows) == sorted(plain.rows)
            assert ordered.columns == plain.columns
        lower = ConjunctiveQuery(
            tables=["foo", "baz"],
            join_edges=[JoinEdge("foo", "id", "baz", "id")],
            predicates=[Predicate("foo", "bar", "=", 10)],
            projections=[("foo", "s"), ("baz", "w")],
        )
        assert lower.signature() == query.signature()

    def test_query_object_aggregate(self):
        db = _db()
        query = ConjunctiveQuery(
            tables=["Foo"],
            aggregates=[Aggregate("SUM", "FOO", "Id")],
            group_by=[("FOO", "Bar")],
            projections=[("foo", "BAR")],
        )
        assert sorted(db.run_query_object(query).rows) == [(10, 4), (20, 2)]


TABLE_PROBES = (
    "SELECT FOO.bar FROM foo",
    "SELECT * FROM Foo",
    "INSERT INTO fOo (ID, bAr, s) VALUES (9, 9, 'x')",
    "INSERT INTO FOO VALUES (9, 9, 'x')",
)
COLUMN_PROBES = (
    "SELECT FOO.bar FROM foo",
    "SELECT f.ID FROM Foo f WHERE F.BAR = 10",
    "INSERT INTO fOo (ID, bAr) VALUES (9, 9)",
    "SELECT COUNT(*) FROM FOO GROUP BY Bar",
)


class TestPolicyAcrossCase:
    @pytest.mark.parametrize("sql", TABLE_PROBES)
    def test_denied_table_in_any_case(self, sql):
        session = _db().session(policy=Policy(deny_tables=["FOO"]))
        with pytest.raises(PolicyError) as exc:
            session.execute(sql)
        assert exc.value.decision.rule == "table-deny"

    @pytest.mark.parametrize("sql", COLUMN_PROBES)
    def test_denied_column_in_any_case(self, sql):
        session = _db().session(policy=Policy(deny_columns=["foo.BAR"]))
        with pytest.raises(PolicyError) as exc:
            session.execute(sql)
        assert exc.value.decision.rule == "column-deny"

    def test_other_names_pass(self):
        db = _db()
        session = db.session(policy=Policy(deny_tables=["FOO"],
                                           deny_columns=["Baz.ID"]))
        assert sorted(session.execute("SELECT BAZ.W FROM baz").rows) \
            == [(100,), (300,)]
