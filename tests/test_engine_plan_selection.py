"""Join orders: UES bounds, orders installed from outside, one plan.

* **UES bounds** — max-frequency exactness, per-level bound monotonicity,
  and the guarantee property (bounds dominate true cardinalities);
* **orders from outside** — the planner plans with DP alone; a UES order
  from :mod:`repro.ai4db.optimization` joins in :func:`ues_order`'s order
  when passed as ``order=``, any explicit order wins, the removed
  planner knobs are a ``TypeError``, and an estimator swapped in place
  (the UES bound estimator) takes effect at ``pipeline.invalidate()``;
* **one plan per statement** — the plan cache keys on ``(signature,
  order)`` and holds what :meth:`Planner.plan` built; the plan-selection
  knob is gone;

plus the dropped-table regression: DP and every installed orderer's
explicit order surface :class:`~repro.common.CatalogError` (never a raw
``KeyError``) when a table disappears between planning attempts.
"""

import pytest

from repro.ai4db.optimization import UpperBoundEstimator, count_join_rows
from repro.ai4db.optimization.ues import (
    max_frequency,
    ues_bounds,
    ues_order,
)
from repro.common import CatalogError, PlanError
from repro.engine import Database, EngineConfig
from repro.engine import plans as P
from repro.engine.optimizer.planner import Planner
from repro.engine.query import ConjunctiveQuery, JoinEdge
from test_engine_fuzz_differential import JOIN_ORDERERS


def _skewed_db():
    """Three joinable tables with a heavily skewed join key on ``mid``."""
    db = Database()
    db.execute("CREATE TABLE small (id INT, k INT)")
    db.execute("CREATE TABLE mid (id INT, k INT, v FLOAT)")
    db.execute("CREATE TABLE big (id INT, k INT, tag TEXT)")
    db.catalog.table("small").insert_rows([(i, i % 5) for i in range(20)])
    # mid.k is skewed: value 0 appears 60 times, the rest once each.
    db.catalog.table("mid").insert_rows(
        [(i, 0 if i < 60 else i, float(i)) for i in range(100)]
    )
    db.catalog.table("big").insert_rows(
        [(i, i % 17, "t%d" % (i % 3)) for i in range(300)]
    )
    db.execute("ANALYZE")
    return db


def _join_query():
    return ConjunctiveQuery(
        tables=["small", "mid", "big"],
        join_edges=[
            JoinEdge("small", "k", "mid", "k"),
            JoinEdge("mid", "id", "big", "k"),
        ],
    )


# ----------------------------------------------------------------------
# UES bounds
# ----------------------------------------------------------------------
class TestUESBounds:
    def test_max_frequency_exact_on_skew(self):
        db = _skewed_db()
        assert max_frequency(db.catalog, "mid", "k") == 60.0
        assert max_frequency(db.catalog, "small", "k") == 4.0

    def test_max_frequency_unknown_objects_raise_catalog_error(self):
        db = _skewed_db()
        with pytest.raises(CatalogError):
            max_frequency(db.catalog, "nope", "k")
        with pytest.raises(CatalogError):
            max_frequency(db.catalog, "mid", "nope")

    def test_bounds_monotone_nondecreasing(self):
        db = _skewed_db()
        query = _join_query()
        for order in (["small", "mid", "big"], ["big", "mid", "small"]):
            bounds = ues_bounds(db.catalog, query, order)
            assert len(bounds) == 3
            assert all(b2 >= b1 for b1, b2 in zip(bounds, bounds[1:]))

    def test_bounds_dominate_true_cardinality(self):
        """The guarantee: at every level the bound is >= the true join
        cardinality of the prefix — for every permutation start."""
        db = _skewed_db()
        query = _join_query()
        order, bounds = ues_order(db.catalog, query)
        assert sorted(t.lower() for t in order) == ["big", "mid", "small"]
        for level in range(len(order)):
            truth = count_join_rows(db.catalog, query, order[:level + 1])
            assert bounds[level] >= truth, (order, level, bounds, truth)

    def test_order_must_cover_tables(self):
        db = _skewed_db()
        with pytest.raises(PlanError):
            ues_bounds(db.catalog, _join_query(), ["small", "mid"])

    def test_single_table(self):
        db = _skewed_db()
        q = ConjunctiveQuery(tables=["mid"])
        order, bounds = ues_order(db.catalog, q)
        assert order == ["mid"]
        assert bounds == [100.0]


# ----------------------------------------------------------------------
# Orders installed from outside
# ----------------------------------------------------------------------
SQL = ("SELECT small.id, big.tag FROM small, mid, big "
       "WHERE small.k = mid.k AND mid.id = big.k")


def _join_order(plan):
    """A left-deep plan's join order: its scans, left to right."""
    return [node.table for node in plan.walk()
            if isinstance(node, (P.SeqScan, P.IndexScan))]


class TestUESEnumerator:
    def test_ues_enumerator_joins_in_the_ues_order(self):
        db = _skewed_db()
        query = _join_query()
        order = ues_order(db.catalog, query)[0]
        assert _join_order(db.planner.plan(query, order=order)) == order

    def test_an_explicit_order_beats_the_enumerator(self):
        db = _skewed_db()
        query = _join_query()
        order = ["big", "mid", "small"]
        assert _join_order(Planner(db.catalog).plan(query)) != order
        assert _join_order(Planner(db.catalog).plan(query, order=order)) \
            == order

    @pytest.mark.parametrize("knob", ["enumerator", "seed", "use_indexes"])
    def test_the_removed_planner_knobs_are_type_errors(self, knob):
        value = {"enumerator": "ues", "seed": 0, "use_indexes": True}[knob]
        with pytest.raises(TypeError):
            Planner(Database().catalog, **{knob: value})

    def test_swapping_the_estimator_takes_an_invalidate(self):
        db = _skewed_db()
        query = db.pipeline.lower_sql(SQL)
        dp_plan = db.pipeline.prepare_query(query).plan
        db.planner.estimator = UpperBoundEstimator(db.catalog)
        assert db.pipeline.prepare_query(query).plan is dp_plan
        db.pipeline.invalidate()
        bound_plan = db.pipeline.prepare_query(query).plan
        assert bound_plan is not dp_plan
        expected = Planner(db.catalog, estimator=UpperBoundEstimator(
            db.catalog), cost_model=db.cost_model).plan(query)
        assert bound_plan.pretty() == expected.pretty()
        assert [n.est_rows for n in bound_plan.walk()] == \
            [n.est_rows for n in expected.walk()]
        assert [n.est_rows for n in bound_plan.walk()] != \
            [n.est_rows for n in dp_plan.walk()]


# ----------------------------------------------------------------------
# One plan per statement
# ----------------------------------------------------------------------
class TestConfigKnobs:
    def test_defaults(self):
        cfg = EngineConfig()
        assert not hasattr(cfg, "plan_selector")
        assert not hasattr(cfg, "seed")
        assert not hasattr(Database().planner, "enumerator")

    def test_invalid_selector_rejected(self):
        """Plan selection is gone: naming a selector is an unknown knob
        on the config and on the Database keyword route alike."""
        with pytest.raises(TypeError):
            EngineConfig(plan_selector="cost")
        with pytest.raises(TypeError):
            Database(plan_selector="pessimistic")

    def test_invalid_regret_cap_rejected(self):
        """``regret_cap`` is no longer a knob: any value is refused, on
        the config and on the Database keyword route alike."""
        with pytest.raises(TypeError):
            EngineConfig(regret_cap=0.5)
        with pytest.raises(TypeError):
            Database(regret_cap=4.0)

    def test_env_wiring(self, monkeypatch):
        monkeypatch.setenv("REPRO_PLAN_SELECTOR", "pessimistic")
        monkeypatch.setenv("REPRO_TENANT_QUOTA", "11")
        cfg = EngineConfig.from_env()
        assert cfg.tenant_quota == 11.0
        assert not hasattr(Database().planner, "seed")


def test_the_plan_cache_keys_on_signature_and_order():
    db = _skewed_db()
    query = db.pipeline.lower_sql(SQL)
    db.execute(SQL)
    db.run_query_object(query, order=["big", "mid", "small"])
    assert list(db.pipeline.plan_cache._entries) == [
        (query.signature(), None),
        (query.signature(), ("big", "mid", "small")),
    ]


# ----------------------------------------------------------------------
# Dropped-table regression: CatalogError, never KeyError
# ----------------------------------------------------------------------
def _planned(orderer, plan):
    """A skewed database, the join query, and ``plan(db, query, order)``
    planned once under ``orderer``'s order (chosen before any drop)."""
    db = _skewed_db()
    query = _join_query()
    order = JOIN_ORDERERS[orderer](db, query)
    plan(db, query, order)
    return db, query, order


def _explain(db, query, order):
    """EXPLAIN's planning: the SQL route for DP, the query-object twin
    for an explicit order (EXPLAIN text takes no order)."""
    if order is None:
        return db.explain(SQL)
    return db.pipeline.prepare_query(db.pipeline.lower_sql(SQL), order=order)


def _run(db, query, order):
    return db.run_query_object(query, order=order)


def _plan(db, query, order):
    return db.planner.plan(query, order=order)


class TestDroppedTableRegression:
    @pytest.mark.parametrize("orderer", JOIN_ORDERERS)
    def test_explain_after_drop_raises_catalog_error(self, orderer):
        db, query, order = _planned(orderer, _explain)
        db.catalog.drop_table("mid")
        with pytest.raises(CatalogError):
            _explain(db, query, order)

    @pytest.mark.parametrize("orderer", JOIN_ORDERERS)
    def test_run_after_drop_raises_catalog_error(self, orderer):
        db, query, order = _planned(orderer, _run)
        db.catalog.drop_table("big")
        with pytest.raises(CatalogError):
            _run(db, query, order)

    @pytest.mark.parametrize("orderer", JOIN_ORDERERS)
    def test_plan_after_drop_raises_catalog_error(self, orderer):
        db, query, order = _planned(orderer, _plan)
        db.catalog.drop_table("small")
        with pytest.raises(CatalogError):
            _plan(db, query, order)
