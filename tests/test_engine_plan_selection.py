"""The plan-selection layer: hint-set arms, UES bounds, selectors.

Covers the three stages of the pluggable plan-selection refactor:

* **candidate generation** — declarative :class:`HintSet` arms, the
  :func:`hint_grid` cross product, per-arm plans from
  :meth:`Planner.plan_candidates`;
* **UES bounds** — max-frequency exactness, per-level bound monotonicity,
  and the guarantee property (bounds dominate true cardinalities);
* **selection** — the cost/bandit/pessimistic selectors, the bandit's
  regret-cap eligibility guard and strike-based demotion, drift-driven
  demotion through the feedback store, and deterministic seeding;
* **accounting** — per-arm plan-cache entries, arm attribution in
  telemetry and EXPLAIN (ANALYZE), win counters;

plus the dropped-table regression: every selector surfaces
:class:`~repro.common.CatalogError` (never a raw ``KeyError``) when a
table disappears between planning attempts.
"""

import numpy as np
import pytest

from repro.common import CatalogError, PlanError, ReproError
from repro.engine import Database, EngineConfig
from repro.engine.config import PLAN_SELECTORS
from repro.engine.optimizer.hints import (
    DEFAULT_ARM,
    HintSet,
    PlanCandidate,
    UES_ARM,
    default_arms,
    hint_grid,
)
from repro.engine.optimizer.selection import (
    BanditSelector,
    CostSelector,
    FEATURE_DIM,
    REGRET_CAP,
    PessimisticSelector,
    make_selector,
    plan_features,
)
from repro.engine.optimizer.ues import (
    bound_cost,
    max_frequency,
    ues_bounds,
    ues_order,
)
from repro.engine.query import ConjunctiveQuery, JoinEdge, Predicate


def _skewed_db(**kwargs):
    """Three joinable tables with a heavily skewed join key on ``mid``."""
    db = Database(**kwargs)
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
# Hint sets
# ----------------------------------------------------------------------
class TestHintSets:
    def test_validation(self):
        with pytest.raises(ValueError):
            HintSet(name="")
        with pytest.raises(ValueError):
            HintSet(name="x", join_order="bogus")

    def test_default_arms_cover_the_axes(self):
        arms = default_arms()
        names = [a.name for a in arms]
        assert names[0] == DEFAULT_ARM.name
        assert UES_ARM.name in names
        assert len(set(names)) == len(names)
        orders = {a.join_order for a in arms}
        assert {"default", "greedy", "exhaustive", "ues"} <= orders
        assert any(a.use_indexes is False for a in arms)

    def test_hint_grid_cross_product(self):
        grid = hint_grid(
            join_orders=("greedy", "ues"),
            index_axis=(True, False),
        )
        assert len(grid) == 2 * 2
        assert len({a.name for a in grid}) == len(grid)

    def test_describe_mentions_overridden_axes(self):
        text = HintSet(
            name="x", join_order="ues", use_indexes=False).describe()
        assert "order=ues" in text and "indexes=off" in text


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
            truth = db.true_cardinality(query, order[:level + 1])
            assert bounds[level] >= truth, (order, level, bounds, truth)

    def test_bound_cost_guarantee_vs_measured_work(self):
        """Executing the UES order can never be charged more work than
        the pessimistic bound_cost (sound bounds + same cost formulas)."""
        db = _skewed_db()
        query = _join_query()
        order, __, total = bound_cost(db.catalog, query, db.cost_model)
        result = db.run_query_object(query, order=order)
        assert result.telemetry.total_work <= total

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
# Selectors
# ----------------------------------------------------------------------
def _fake_candidates(**costs):
    """PlanCandidates from ``name=est_cost`` pairs; 'ues' gets a bound."""
    out = []
    for name, cost in costs.items():
        hints = UES_ARM if name == "ues" else HintSet(name=name)
        out.append(PlanCandidate(
            arm=name, hints=hints, plan=None, est_cost=float(cost),
            bound=float(cost) if name == "ues" else None,
        ))
    return out


class TestSelectors:
    def test_make_selector_names(self):
        for name in PLAN_SELECTORS:
            assert make_selector(name).name == name
        with pytest.raises(PlanError):
            make_selector("bogus")

    def test_cost_selector_picks_min_cost(self):
        sel = CostSelector()
        cands = _fake_candidates(a=5.0, b=2.0, ues=10.0)
        assert sel.select(cands, _join_query()).arm == "b"

    def test_pessimistic_selector_always_ues(self):
        sel = PessimisticSelector()
        cands = _fake_candidates(a=1.0, ues=100.0)
        assert sel.select(cands, _join_query()).arm == "ues"
        assert sel.stats()["arms"]["ues"]["picks"] == 1

    def test_bandit_regret_cap_excludes_expensive_arms(self):
        """An arm whose estimate exceeds REGRET_CAP × the UES bound is
        never selected, no matter what Thompson sampling says."""
        assert REGRET_CAP == 2.0  # the candidate costs below assume it
        sel = BanditSelector(rng=0)
        cands = _fake_candidates(cheap=8.0, expensive=25.0, ues=10.0)
        query = _join_query()
        x = np.zeros(FEATURE_DIM)
        x[0] = 1.0
        for __ in range(50):
            chosen = sel.select(cands, query, x)
            assert chosen.arm != "expensive", sel.stats()
            sel.observe(chosen.arm, x, chosen.est_cost, chosen.est_cost)
        expensive = sel.stats()["arms"].get("expensive", {"picks": 0})
        assert expensive["picks"] == 0

    def test_bandit_regret_cap_validated(self):
        """The cap is the module constant, reported by ``stats()``; a
        caller still passing one is refused, not silently ignored."""
        assert BanditSelector(rng=0).stats()["regret_cap"] == REGRET_CAP
        with pytest.raises(TypeError):
            BanditSelector(regret_cap=0.5)
        with pytest.raises(TypeError):
            make_selector("bandit", regret_cap=3.0)

    def test_bandit_strikes_demote_broken_promises(self):
        """Measured work repeatedly above REGRET_CAP × the arm's own
        estimate demotes it for a cooldown; the UES anchor never is."""
        sel = BanditSelector(rng=0, demote_after=3, demote_for=10)
        x = np.zeros(FEATURE_DIM)
        x[0] = 1.0
        for __ in range(3):
            sel.observe("greedy", x, est_cost=10.0, actual_work=100.0)
        st = sel.stats()["arms"]["greedy"]
        assert st["demotions"] == 1
        # While demoted, selection skips the arm even when cap-eligible.
        cands = _fake_candidates(greedy=8.0, ues=10.0)
        for __ in range(5):
            assert sel.select(cands, _join_query(), x).arm == "ues"

    def test_note_drift_strikes_last_picked_arm(self):
        sel = BanditSelector(rng=0, demote_after=1, demote_for=100)
        cands = _fake_candidates(greedy=8.0, ues=10.0)
        x = np.zeros(FEATURE_DIM)
        x[0] = 1.0
        # Force 'greedy' to be the last pick (unobserved arms first,
        # sorted by name — 'greedy' < 'ues').
        chosen = sel.select(cands, _join_query(), x)
        assert chosen.arm == "greedy"
        sel.note_drift(["MID"])  # overlaps the query's tables, any case
        assert sel.stats()["arms"]["greedy"]["demotions"] == 1

    def test_bandit_seeded_selection_is_reproducible(self):
        cands = _fake_candidates(a=8.0, b=9.0, ues=10.0)
        query = _join_query()
        x = np.zeros(FEATURE_DIM)
        x[0] = 1.0
        picks = []
        for __ in range(2):
            sel = BanditSelector(rng=42)
            seq = []
            for i in range(30):
                c = sel.select(cands, query, x)
                seq.append(c.arm)
                sel.observe(c.arm, x, c.est_cost, c.est_cost * (1 + i % 3))
            picks.append(seq)
        assert picks[0] == picks[1]

    def test_plan_features_shape_and_determinism(self):
        db = _skewed_db()
        q = _join_query()
        x1 = plan_features(q, db.planner.estimator)
        x2 = plan_features(q, db.planner.estimator)
        assert x1.shape == (FEATURE_DIM,)
        assert x1[0] == 1.0
        assert np.array_equal(x1, x2)


# ----------------------------------------------------------------------
# Config knobs
# ----------------------------------------------------------------------
class TestConfigKnobs:
    def test_defaults(self):
        cfg = EngineConfig()
        assert cfg.plan_selector == "cost"
        assert cfg.seed == 0

    def test_invalid_selector_rejected(self):
        with pytest.raises(ReproError):
            EngineConfig(plan_selector="bogus")

    def test_invalid_regret_cap_rejected(self):
        """``regret_cap`` is no longer a knob: any value is refused, on
        the config and on the Database keyword route alike."""
        with pytest.raises(TypeError):
            EngineConfig(regret_cap=0.5)
        with pytest.raises(TypeError):
            Database(regret_cap=4.0)

    def test_env_wiring(self, monkeypatch):
        monkeypatch.setenv("REPRO_PLAN_SELECTOR", "pessimistic")
        monkeypatch.setenv("REPRO_SEED", "11")
        cfg = EngineConfig.from_env()
        assert cfg.plan_selector == "pessimistic"
        assert cfg.seed == 11

    def test_database_builds_the_configured_selector(self):
        assert Database().plan_selector.name == "cost"
        db = Database(plan_selector="bandit")
        assert db.plan_selector.name == "bandit"
        assert db.plan_selector.stats()["regret_cap"] == REGRET_CAP
        assert Database(plan_selector="pessimistic").plan_selector.name \
            == "pessimistic"


# ----------------------------------------------------------------------
# Pipeline integration: per-arm cache, telemetry, EXPLAIN, executors
# ----------------------------------------------------------------------
SQL = ("SELECT small.id, big.tag FROM small, mid, big "
       "WHERE small.k = mid.k AND mid.id = big.k")


class TestPipelineIntegration:
    def test_cost_selector_keys_on_default_arm(self):
        db = _skewed_db()
        db.execute(SQL)
        db.run_query_object(
            db.pipeline.lower_sql(SQL), order=["big", "mid", "small"])
        keys = list(db.pipeline.plan_cache._entries)
        assert len(keys) == 2, keys
        assert all(len(k) == 3 and k[2] == "default" for k in keys), keys

    def test_per_arm_cache_entries(self):
        db = _skewed_db(plan_selector="bandit", seed=3)
        db.execute(SQL)
        keys = list(db.pipeline.plan_cache._entries)
        arms = {k[2] for k in keys}
        expected = {a.name for a in db.plan_selector.arms(None)}
        assert arms == expected, (arms, expected)
        # Warm rerun: selection still runs, planning hits per-arm cache.
        res = db.execute(SQL)
        assert res.trace.cache_outcome == "hit"
        assert res.trace.arm in expected

    def test_scoped_invalidation_drops_all_arms_of_a_query(self):
        db = _skewed_db(plan_selector="bandit", seed=3)
        db.execute(SQL)
        db.execute("INSERT INTO mid VALUES (1000, 1, 1.0)")
        res = db.execute(SQL)
        assert res.trace.cache_outcome == "invalidated"
        assert res.trace.invalidation_cause == "table:mid"

    def test_telemetry_carries_arm_and_bound(self):
        db = _skewed_db(plan_selector="bandit", seed=3)
        res = db.execute(SQL)
        t = res.trace
        assert t.arm is not None
        assert t.arm_est_cost >= 1.0
        assert t.ues_bound is not None and t.ues_bound >= 1.0
        assert db.pipeline.prepare_sql(SQL).features is not None
        plan_span = [c for c in t.summary()["children"]
                     if c["name"] == "plan"][0]
        assert plan_span["attrs"]["arm"] == t.arm
        assert plan_span["attrs"]["ues_bound"] == t.ues_bound

    def test_cost_selector_telemetry_default_arm(self):
        db = _skewed_db()
        res = db.execute(SQL)
        t = res.trace
        assert t.arm == "default"
        assert t.arm_est_cost == db.pipeline.prepare_sql(SQL).est_cost
        assert t.n_candidates == 1
        assert t.ues_bound is None
        assert db.pipeline.prepare_sql(SQL).features is None
        assert t.span("plan").attrs["arm"] == "default"

    def test_explain_and_analyze_report_the_arm(self):
        db = _skewed_db(plan_selector="pessimistic")
        ex = db.explain(SQL)
        assert ex.trace.arm == "ues"
        assert "Arm: ues" in ex.text
        ana = db.explain_analyze(SQL)
        assert ana.trace.arm == "ues"
        assert "Arm: ues" in ana.text
        assert "Arm wins:" in ana.text

    def test_explain_default_selector_text_unchanged(self):
        db = _skewed_db()
        ex = db.explain(SQL)
        assert ex.trace.arm == "default" and ex.trace.n_candidates == 1
        assert "Arm" not in ex.text

    def test_bandit_trains_online_from_total_work(self):
        db = _skewed_db(plan_selector="bandit", seed=1)
        for __ in range(8):
            db.execute(SQL)
        stats = db.plan_selector.stats()
        assert stats["selections"] == 8
        assert sum(st["observes"] for st in stats["arms"].values()) == 8
        assert sum(st["picks"] for st in stats["arms"].values()) == 8

    def test_snapshot_runs_do_not_train_the_bandit(self):
        db = _skewed_db(plan_selector="bandit", seed=1)
        db.execute(SQL)
        before = db.plan_selector.stats()
        snap = db.snapshot()
        snap.execute(SQL)
        after = db.plan_selector.stats()
        assert sum(st["observes"] for st in after["arms"].values()) == \
            sum(st["observes"] for st in before["arms"].values())

    def test_prepared_queries_carry_the_arm(self):
        db = _skewed_db(plan_selector="pessimistic")
        prepared = db.pipeline.prepare_sql(SQL)
        assert prepared.trace.arm == "ues"
        result = db.pipeline.execute_prepared(prepared)
        assert result.trace.arm == "ues"
        assert db.plan_selector.stats()["arms"]["ues"]["observes"] == 1

    def test_same_seed_same_selection_sequence(self):
        runs = []
        for __ in range(2):
            db = _skewed_db(plan_selector="bandit", seed=9)
            arms = []
            for i in range(10):
                res = db.execute(SQL)
                arms.append(res.trace.arm)
            runs.append(arms)
        assert runs[0] == runs[1]


# ----------------------------------------------------------------------
# Dropped-table regression: CatalogError, never KeyError
# ----------------------------------------------------------------------
class TestDroppedTableRegression:
    @pytest.mark.parametrize("selector", PLAN_SELECTORS)
    def test_explain_after_drop_raises_catalog_error(self, selector):
        db = _skewed_db(plan_selector=selector)
        db.explain(SQL)
        db.catalog.drop_table("mid")
        with pytest.raises(CatalogError):
            db.explain(SQL)

    @pytest.mark.parametrize("selector", PLAN_SELECTORS)
    def test_run_after_drop_raises_catalog_error(self, selector):
        db = _skewed_db(plan_selector=selector)
        query = _join_query()
        db.run_query_object(query)
        db.catalog.drop_table("big")
        with pytest.raises(CatalogError):
            db.run_query_object(query)

    def test_plan_candidates_after_drop_raises_catalog_error(self):
        db = _skewed_db()
        query = _join_query()
        arms = default_arms()
        assert len(db.planner.plan_candidates(query, arms)) == len(arms)
        db.catalog.drop_table("small")
        with pytest.raises(CatalogError):
            db.planner.plan_candidates(query, arms)


# ----------------------------------------------------------------------
# Feedback drift wiring
# ----------------------------------------------------------------------
def test_feedback_drift_reaches_the_selector():
    db = _skewed_db(plan_selector="bandit", seed=5, feedback_enabled=True)
    assert db.feedback is not None
    # The database wired the selector's demotion hook at construction.
    assert db.plan_selector.note_drift in db.feedback.drift_listeners
    seen = []
    db.feedback.drift_listeners.append(lambda tables: seen.append(tables))
    # A drifting observation: estimate off by >= 2x on a fresh signature.
    q = ConjunctiveQuery(
        tables=["mid"], predicates=[Predicate("mid", "k", "=", 0)]
    )
    drifted = db.feedback.observe(q, ["mid"], est_rows=1.0, actual_rows=60)
    assert drifted is True
    assert seen and "mid" in {t.lower() for t in seen[0]}
