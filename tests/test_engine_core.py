"""Tests for engine core: types, storage, statistics, query model, catalog."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.common import CatalogError, ExecutionError, PlanError
from repro.engine import plans as P
from repro.engine.catalog import Catalog, ViewDef
from repro.engine.executor import Executor
from repro.engine.query import Aggregate, ConjunctiveQuery, JoinEdge, Predicate
from repro.engine.stats import ColumnStats, EquiDepthHistogram
from repro.engine.storage import Table
from repro.engine.types import ColumnSchema, DataType, TableSchema


class TestDataType:
    def test_parse_aliases(self):
        assert DataType.parse("INTEGER") is DataType.INT
        assert DataType.parse("varchar") is DataType.TEXT
        assert DataType.parse("Double") is DataType.FLOAT

    def test_parse_unknown(self):
        with pytest.raises(CatalogError):
            DataType.parse("BLOB")

    def test_coerce(self):
        assert DataType.INT.coerce("7") == 7
        assert DataType.FLOAT.coerce(3) == 3.0
        assert DataType.TEXT.coerce(5) == "5"
        assert DataType.INT.coerce(None) is None


class TestSchema:
    def test_column_lookup_case_insensitive(self):
        schema = TableSchema("t", [ColumnSchema("Foo", DataType.INT)])
        assert schema.column("foo").name == "foo"
        assert schema.column_index("FOO") == 0

    def test_duplicate_columns_rejected(self):
        with pytest.raises(CatalogError):
            TableSchema("t", [ColumnSchema("a", DataType.INT),
                              ColumnSchema("A", DataType.INT)])

    def test_missing_column(self):
        schema = TableSchema("t", [ColumnSchema("a", DataType.INT)])
        with pytest.raises(CatalogError):
            schema.column("b")

    def test_sensitive_flag(self):
        col = ColumnSchema("ssn", DataType.TEXT, sensitive=True)
        assert col.sensitive


class TestTable:
    def _table(self):
        schema = TableSchema("t", [ColumnSchema("a", DataType.INT),
                                   ColumnSchema("b", DataType.TEXT)])
        return Table(schema)

    def test_insert_and_read(self):
        t = self._table()
        t.insert_rows([(1, "x"), (2, "y")])
        assert t.n_rows == 2
        assert t.rows() == [(1, "x"), (2, "y")]
        assert t.row(1) == (2, "y")

    def test_insert_coerces_types(self):
        t = self._table()
        t.insert_rows([("3", 42)])
        assert t.rows() == [(3, "42")]

    def test_fraction_into_int_rejected_atomically(self):
        t = self._table()
        t.insert_rows([(1, "x")])
        with pytest.raises(CatalogError, match="INT column 'a'"):
            t.insert_rows([(2, "y"), (1.7, "z")])
        assert t.rows() == [(1, "x")]
        t.insert_rows([(2.0, "y"), ("12", "z"), (np.int64(3), "w")])
        assert t.rows() == [(1, "x"), (2, "y"), (12, "z"), (3, "w")]

    def test_wrong_width_rejected(self):
        t = self._table()
        with pytest.raises(CatalogError):
            t.insert_rows([(1,)])

    def test_column_array(self):
        t = self._table()
        t.insert_rows([(1, "x"), (5, "y")])
        assert np.array_equal(t.column_array("a"), [1, 5])

    def test_from_columns_mismatched_lengths(self):
        schema = TableSchema("t", [ColumnSchema("a", DataType.INT),
                                   ColumnSchema("b", DataType.INT)])
        with pytest.raises(CatalogError):
            Table(schema, columns={"a": [1, 2], "b": [1]})

    def test_rows_subset(self):
        t = self._table()
        t.insert_rows([(i, str(i)) for i in range(5)])
        assert t.rows([0, 4]) == [(0, "0"), (4, "4")]


class TestHistogram:
    def test_build_and_bounds(self, rng):
        values = rng.uniform(0, 100, 5000)
        hist = EquiDepthHistogram.build(values, n_buckets=16)
        assert hist.min == pytest.approx(values.min())
        assert hist.max == pytest.approx(values.max())

    def test_range_selectivity_accuracy(self, rng):
        values = rng.uniform(0, 100, 20000)
        hist = EquiDepthHistogram.build(values, n_buckets=32)
        true_sel = float(np.mean((values >= 20) & (values <= 50)))
        assert hist.range_selectivity(20, 50) == pytest.approx(true_sel,
                                                               abs=0.03)

    def test_lt_plus_ge_is_one(self, rng):
        values = rng.normal(50, 10, 1000)
        hist = EquiDepthHistogram.build(values)
        for x in (30.0, 50.0, 70.0):
            total = hist.selectivity("<", x) + hist.selectivity(">=", x)
            assert total == pytest.approx(1.0, abs=1e-9)

    def test_out_of_range_equality_zero(self, rng):
        hist = EquiDepthHistogram.build(rng.uniform(0, 10, 100))
        assert hist.selectivity("=", 99.0) == 0.0
        assert hist.selectivity("<", -5.0) == 0.0
        assert hist.selectivity(">", 100.0) == 0.0

    def test_skewed_distribution(self, rng):
        values = np.concatenate([np.zeros(900), rng.uniform(1, 100, 100)])
        hist = EquiDepthHistogram.build(values, n_buckets=16)
        # 90% of the mass sits at 0. Within-bucket linear interpolation
        # (no MCV list) underestimates point masses — the documented
        # limitation learned estimators fix — but the estimate must still
        # be far above uniform and bounded by the truth.
        sel = hist.selectivity("<=", 0.5)
        assert 0.3 < sel <= 0.9
        # And everything at/above 1 is seen as the remaining minority.
        assert hist.selectivity(">=", 1.0) < 0.7

    def test_empty_values(self):
        hist = EquiDepthHistogram.build(np.array([]))
        assert hist.selectivity("=", 1.0) == 0.0

    def test_bad_operator(self, rng):
        hist = EquiDepthHistogram.build(rng.uniform(0, 1, 10))
        with pytest.raises(CatalogError):
            hist.selectivity("~", 0.5)

    @settings(max_examples=25, deadline=None)
    @given(st.lists(st.floats(min_value=-1e4, max_value=1e4), min_size=5,
                    max_size=200),
           st.floats(min_value=-1e4, max_value=1e4))
    def test_selectivity_in_unit_interval_property(self, values, x):
        hist = EquiDepthHistogram.build(np.asarray(values))
        for op in ("=", "!=", "<", "<=", ">", ">="):
            sel = hist.selectivity(op, x)
            assert 0.0 <= sel <= 1.0


class TestColumnStats:
    def test_text_stats_equality(self):
        values = np.array(["a"] * 80 + ["b"] * 15 + ["c"] * 5, dtype=object)
        stats = ColumnStats.build("col", DataType.TEXT, values)
        assert stats.selectivity("=", "a") == pytest.approx(0.8)
        assert stats.selectivity("!=", "a") == pytest.approx(0.2)

    def test_text_unknown_value_uses_ndv(self):
        values = np.array(["a", "b", "c", "d"], dtype=object)
        stats = ColumnStats.build("col", DataType.TEXT, values)
        assert stats.selectivity("=", "zzz") == pytest.approx(0.25)

    def test_numeric_stats(self, rng):
        values = rng.integers(0, 10, 1000)
        stats = ColumnStats.build("col", DataType.INT, values)
        assert stats.n_distinct == 10
        assert stats.selectivity("=", 3) == pytest.approx(0.1, abs=0.02)


class TestQueryModel:
    def _query(self):
        return ConjunctiveQuery(
            tables=["a", "b", "c"],
            join_edges=[JoinEdge("a", "x", "b", "y"),
                        JoinEdge("b", "y", "c", "z")],
            predicates=[Predicate("a", "x", "<", 5)],
        )

    def test_tables_deduplicated(self):
        q = ConjunctiveQuery(tables=["t", "T", "t"])
        assert q.tables == ["t"]

    def test_empty_tables_rejected(self):
        with pytest.raises(PlanError):
            ConjunctiveQuery(tables=[])

    def test_edge_must_reference_from_tables(self):
        with pytest.raises(PlanError):
            ConjunctiveQuery(tables=["a"],
                             join_edges=[JoinEdge("a", "x", "zz", "y")])

    def test_predicate_must_reference_from_tables(self):
        with pytest.raises(PlanError):
            ConjunctiveQuery(tables=["a"],
                             predicates=[Predicate("zz", "x", "=", 1)])

    def test_predicates_on(self):
        q = self._query()
        assert len(q.predicates_on("a")) == 1
        assert q.predicates_on("b") == []

    def test_edges_between(self):
        q = self._query()
        assert len(q.edges_between(["a"], "b")) == 1
        assert q.edges_between(["a"], "c") == []
        assert len(q.edges_between(["a", "b"], "c")) == 1

    def test_connectivity(self):
        assert self._query().is_connected()
        disconnected = ConjunctiveQuery(
            tables=["a", "b"], join_edges=[]
        )
        assert not disconnected.is_connected()

    def test_signature_order_independent(self):
        q1 = ConjunctiveQuery(
            tables=["a", "b"],
            join_edges=[JoinEdge("a", "x", "b", "y")],
            predicates=[Predicate("a", "x", "=", 1),
                        Predicate("b", "y", ">", 2)],
        )
        q2 = ConjunctiveQuery(
            tables=["b", "a"],
            join_edges=[JoinEdge("b", "y", "a", "x")],
            predicates=[Predicate("b", "y", ">", 2),
                        Predicate("a", "x", "=", 1)],
        )
        assert q1.signature() == q2.signature()

    def test_bad_predicate_op(self):
        with pytest.raises(PlanError):
            Predicate("t", "c", "LIKE", "x")

    def test_aggregate_validation(self):
        with pytest.raises(PlanError):
            Aggregate("median", "t", "c")
        with pytest.raises(PlanError):
            Aggregate("sum")  # needs a column
        assert Aggregate("count").column is None

    def test_edge_other_side(self):
        e = JoinEdge("a", "x", "b", "y")
        assert e.other_side("a") == ("b", "y")
        assert e.other_side("b") == ("a", "x")
        with pytest.raises(PlanError):
            e.other_side("zzz")


class TestCatalog:
    def test_create_and_drop_table(self):
        cat = Catalog()
        cat.create_table("t", [("a", "INT")])
        assert cat.has_table("T")
        cat.drop_table("t")
        assert not cat.has_table("t")

    def test_duplicate_table_rejected(self):
        cat = Catalog()
        cat.create_table("t", [("a", "INT")])
        with pytest.raises(CatalogError):
            cat.create_table("T", [("a", "INT")])

    def test_analyze_and_stats(self):
        cat = Catalog()
        t = cat.create_table("t", [("a", "INT")])
        t.insert_rows([(i,) for i in range(100)])
        stats = cat.stats("t")  # lazy analyze
        assert stats.n_rows == 100
        assert stats.column("a").n_distinct == 100

    def test_index_lifecycle(self):
        cat = Catalog()
        t = cat.create_table("t", [("a", "INT")])
        t.insert_rows([(i % 10,) for i in range(50)])
        idx = cat.create_index("idx_a", "t", "a")
        assert not idx.hypothetical
        probe = P.IndexScan("t", "idx_a", Predicate("t", "a", "=", 3))
        assert len(Executor(cat).execute(probe).rows) == 5
        assert cat.index_on("t", "a") is idx
        cat.drop_index("idx_a")
        assert cat.index_on("t", "a") is None

    def test_hypothetical_index_has_no_structure(self):
        cat = Catalog()
        t = cat.create_table("t", [("a", "INT")])
        t.insert_rows([(1,)])
        idx = cat.create_index("h", "t", "a", hypothetical=True)
        assert idx.hypothetical
        assert idx.size_bytes(1000) > 0
        probe = P.IndexScan("t", "h", Predicate("t", "a", "=", 1))
        with pytest.raises(ExecutionError, match="hypothetical"):
            Executor(cat).execute(probe)

    def test_index_on_missing_column_rejected(self):
        cat = Catalog()
        cat.create_table("t", [("a", "INT")])
        with pytest.raises(CatalogError):
            cat.create_index("i", "t", "nope")

    def test_drop_table_drops_indexes(self):
        cat = Catalog()
        t = cat.create_table("t", [("a", "INT")])
        t.insert_rows([(1,)])
        cat.create_index("i", "t", "a")
        cat.drop_table("t")
        assert cat.indexes() == []

    def test_describe_lists_objects(self):
        cat = Catalog()
        t = cat.create_table("t", [("a", "INT")])
        t.insert_rows([(1,)])
        cat.create_index("i", "t", "a")
        text = cat.describe()
        assert "table t" in text
        assert "index i" in text


class TestViewMatching:
    def _view(self):
        from repro.engine.types import TableSchema, ColumnSchema

        query = ConjunctiveQuery(
            tables=["a", "b"],
            join_edges=[JoinEdge("a", "x", "b", "y")],
            predicates=[Predicate("a", "x", ">", 0)],
        )
        schema = TableSchema("v", [ColumnSchema("a__x", DataType.INT)])
        table = Table(schema)
        table.insert_rows([(1,), (2,)])
        return ViewDef("v", query, table)

    def test_exact_match_with_residual(self):
        view = self._view()
        query = ConjunctiveQuery(
            tables=["a", "b"],
            join_edges=[JoinEdge("a", "x", "b", "y")],
            predicates=[Predicate("a", "x", ">", 0),
                        Predicate("a", "x", "<", 10)],
        )
        residual = view.matches(query)
        assert residual is not None
        assert len(residual) == 1
        assert residual[0].op == "<"

    def test_missing_view_predicate_no_match(self):
        view = self._view()
        query = ConjunctiveQuery(
            tables=["a", "b"],
            join_edges=[JoinEdge("a", "x", "b", "y")],
        )
        assert view.matches(query) is None

    def test_different_tables_no_match(self):
        view = self._view()
        query = ConjunctiveQuery(tables=["a"],
                                 predicates=[Predicate("a", "x", ">", 0)])
        assert view.matches(query) is None

    def test_catalog_prefers_smaller_view(self):
        cat = Catalog()
        small = self._view()
        big_table = Table(
            TableSchema("v2", [ColumnSchema("a__x", DataType.INT)])
        )
        big_table.insert_rows([(i,) for i in range(100)])
        big = ViewDef("v2", small.query, big_table)
        cat.register_view(big)
        cat.register_view(small)
        query = ConjunctiveQuery(
            tables=["a", "b"],
            join_edges=[JoinEdge("a", "x", "b", "y")],
            predicates=[Predicate("a", "x", ">", 0)],
        )
        chosen, __ = cat.matching_view(query)
        assert chosen.name == "v"
