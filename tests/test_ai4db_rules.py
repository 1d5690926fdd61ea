"""Tests for the logical rewrite rules in ``repro.ai4db.config.rules``,
the library E4's fixed-order and learned rewriters draw on."""

from repro.ai4db.config.rules import (
    DetectContradictions,
    EliminateRedundantJoins,
    PropagateEqualityConstants,
    RemoveDuplicatePredicates,
    TightenRangePredicates,
    apply_rules_fixed_order,
    default_rules,
)
from repro.ai4db.optimization.estimators import count_join_rows
from repro.engine.query import Aggregate, ConjunctiveQuery, JoinEdge, Predicate


class TestRewriteRules:
    def _base_query(self, extra_predicates=(), tables=("t",), edges=()):
        return ConjunctiveQuery(
            tables=list(tables),
            join_edges=list(edges),
            predicates=list(extra_predicates),
            aggregates=[Aggregate("count")],
        )

    def test_dedup(self):
        q = self._base_query([Predicate("t", "a", ">", 1),
                              Predicate("t", "a", ">", 1)])
        out = RemoveDuplicatePredicates().apply(q)
        assert out is not None and len(out.predicates) == 1

    def test_dedup_noop_returns_none(self):
        q = self._base_query([Predicate("t", "a", ">", 1)])
        assert RemoveDuplicatePredicates().apply(q) is None

    def test_tighten_lower_bounds(self):
        q = self._base_query([Predicate("t", "a", ">", 1),
                              Predicate("t", "a", ">", 5)])
        out = TightenRangePredicates().apply(q)
        assert out is not None
        assert out.predicates[0].value == 5

    def test_tighten_upper_bounds(self):
        q = self._base_query([Predicate("t", "a", "<=", 9),
                              Predicate("t", "a", "<", 12)])
        out = TightenRangePredicates().apply(q)
        assert out is not None
        assert len(out.predicates) == 1
        assert out.predicates[0].op == "<="
        assert out.predicates[0].value == 9

    def test_contradiction_eq_conflict(self):
        q = self._base_query([Predicate("t", "a", "=", 1),
                              Predicate("t", "a", "=", 2)])
        out = DetectContradictions().apply(q)
        assert out is not None and out.limit == 0

    def test_contradiction_empty_range(self):
        q = self._base_query([Predicate("t", "a", ">", 10),
                              Predicate("t", "a", "<", 5)])
        out = DetectContradictions().apply(q)
        assert out is not None and out.limit == 0

    def test_contradiction_eq_outside_range(self):
        q = self._base_query([Predicate("t", "a", "=", 3),
                              Predicate("t", "a", ">", 10)])
        out = DetectContradictions().apply(q)
        assert out is not None and out.limit == 0

    def test_no_false_contradiction(self):
        q = self._base_query([Predicate("t", "a", ">", 1),
                              Predicate("t", "a", "<", 10)])
        assert DetectContradictions().apply(q) is None

    def test_equality_propagation(self):
        q = ConjunctiveQuery(
            tables=["a", "b"],
            join_edges=[JoinEdge("a", "x", "b", "y")],
            predicates=[Predicate("a", "x", "=", 7)],
            aggregates=[Aggregate("count")],
        )
        out = PropagateEqualityConstants().apply(q)
        assert out is not None
        keys = {p.key() for p in out.predicates}
        assert ("b", "y", "=", 7) in keys

    def test_join_elimination_on_unique_unused_dim(self, chain_catalog):
        catalog, names, edges = chain_catalog
        # Join t0 (unique id, unused) to t1, count only.
        q = ConjunctiveQuery(
            tables=[names[0], names[1]],
            join_edges=[edges[0]],
            predicates=[Predicate(names[1], "val", "<", 100)],
            aggregates=[Aggregate("count")],
        )
        out = EliminateRedundantJoins().apply(q, catalog=catalog)
        assert out is not None
        assert out.tables == [names[1]]
        # Semantics preserved under referential integrity:
        assert count_join_rows(catalog, q, q.tables) == count_join_rows(
            catalog, out, out.tables
        )

    def test_join_elimination_keeps_used_tables(self, chain_catalog):
        catalog, names, edges = chain_catalog
        q = ConjunctiveQuery(
            tables=[names[0], names[1]],
            join_edges=[edges[0]],
            predicates=[Predicate(names[0], "val", "<", 100)],
            aggregates=[Aggregate("count")],
        )
        assert EliminateRedundantJoins().apply(q, catalog=catalog) is None

    def test_fixed_order_reaches_fixpoint(self):
        q = self._base_query([
            Predicate("t", "a", ">", 1),
            Predicate("t", "a", ">", 1),
            Predicate("t", "a", ">", 5),
        ])
        out, applied = apply_rules_fixed_order(q, default_rules())
        assert len(out.predicates) == 1
        assert "dedup-predicates" in applied
        assert "tighten-ranges" in applied
