"""Tests for operator fusion + the consolidated EngineConfig surface.

Covers the fusion pass as a unit (which tails fuse, which are refused,
how scan predicates lift), the fused execution path end to end (rows,
work parity, telemetry), the structured ``ExplainResult``, and the
``EngineConfig`` dataclass — including the contract that
``Database(config=...)`` and per-knob keyword arguments wire identical
engines, and the one list of knobs (fields, env metadata, README table).
"""

import dataclasses
import os

import pytest

from repro.common import ExecutionError, ReproError
from repro.engine import (
    Database,
    EngineConfig,
    Executor,
    HintSet,
    fuse_plan,
)
from repro.engine import plans as P
from repro.engine.plans import PlanError
from repro.engine.query import Aggregate, Predicate


def _populated(**kwargs):
    db = Database(**kwargs)
    db.execute("CREATE TABLE t (id INT, k INT, v FLOAT, tag TEXT)")
    rows = ", ".join(
        "(%d, %d, %.3f, 'g%d')" % (i, i % 7, (i * 37 % 100) / 10.0, i % 3)
        for i in range(200)
    )
    db.execute("INSERT INTO t VALUES " + rows)
    db.execute("ANALYZE")
    return db


FUSIBLE_SQL = "SELECT tag, COUNT(*), SUM(v) FROM t WHERE k < 5 GROUP BY tag"

#: Every EngineConfig field: a non-default value, the env text that must
#: parse to it (``None``: the knob has no variable), and the floor small
#: env values clamp to. A new field without a row fails the knob walk.
KNOBS = {
    "executor_mode": ("row", "ROW", None),
    "plan_cache_size": (17, None, None),
    "enumerator": ("greedy", None, None),
    "use_views": (False, None, None),
    "cost_params": ({"cpu_tuple_cost": 2.0}, None, None),
    "fusion_enabled": (False, "off", None),
    "feedback_enabled": (True, "1", None),
    "segment_rows": (4096, " 4096 ", 16),
    "segment_encodings": (("rle", "plain"), "RLE, plain", None),
    "zone_map_pruning": (False, "no", None),
    "admission_policy": ("fair-share", "fair-share", None),
    "tenant_quota": (12345.0, "12345", None),
    "quota_refill_rate": (678.0, "678", None),
    "admission_queue_depth": (9, "9", 1),
    "plan_selector": ("pessimistic", "Pessimistic", None),
    "regret_cap": (3.5, "3.5", None),
    "seed": (11, "11", None),
}

#: Env text no parser/validator accepts, by field type (any text turns a
#: boolean knob on or off, so booleans have none).
BAD_ENV_TEXT = {int: "many", float: "lots", str: "bogus", tuple: "zip"}


def _readme_knob_rows():
    """``{knob: row text}`` of the README's "Engine knobs" table."""
    path = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    table = text.split("#### Engine knobs", 1)[1].split("\n\n#", 1)[0]
    return {
        line.split("`")[1]: line
        for line in table.splitlines() if line.startswith("| `")
    }


# ----------------------------------------------------------------------
# EngineConfig: validation, immutability, env resolution
# ----------------------------------------------------------------------
class TestEngineConfig:
    def test_defaults_are_valid(self):
        cfg = EngineConfig()
        assert cfg.executor_mode == "vectorized"
        assert cfg.fusion_enabled is True

    def test_frozen(self):
        cfg = EngineConfig()
        with pytest.raises(dataclasses.FrozenInstanceError):
            cfg.executor_mode = "row"

    def test_with_changes_derives_a_new_config(self):
        cfg = EngineConfig()
        other = cfg.with_changes(executor_mode="row", fusion_enabled=False)
        assert other.executor_mode == "row"
        assert other.fusion_enabled is False
        assert cfg.executor_mode == "vectorized"  # original untouched

    def test_cost_params_copied_defensively(self):
        params = {"cpu_tuple_cost": 2.0}
        cfg = EngineConfig(cost_params=params)
        params["cpu_tuple_cost"] = 99.0
        assert cfg.cost_params["cpu_tuple_cost"] == 2.0

    @pytest.mark.parametrize("bad_kwargs,exc", [
        ({"executor_mode": "turbo"}, ExecutionError),
        ({"enumerator": "exhaustive"}, ReproError),
        ({"plan_cache_size": 0}, ReproError),
    ])
    def test_validation_errors(self, bad_kwargs, exc):
        with pytest.raises(exc):
            EngineConfig(**bad_kwargs)

    def test_parallel_mode_and_execution_hints_are_gone(self, monkeypatch):
        """The mode matrix is one executor per backend, and hint sets are
        plan hints only: ``parallel`` is an unknown mode like any other,
        wherever it is spelled."""
        message = r"must be one of \('vectorized', 'row'\), got 'parallel'"
        with pytest.raises(ExecutionError, match=message):
            EngineConfig(executor_mode="parallel")
        with pytest.raises(ExecutionError, match=message):
            Executor(Database().catalog, mode="parallel")
        monkeypatch.setenv("REPRO_EXECUTOR_MODE", "parallel")
        with pytest.raises(ExecutionError, match=message):
            EngineConfig.from_env()
        with pytest.raises(TypeError):
            HintSet(name="x", parallel=True)
        with pytest.raises(TypeError):
            HintSet(name="x", fusion=False)

    def test_from_env_reads_repro_vars(self, monkeypatch):
        monkeypatch.setenv("REPRO_EXECUTOR_MODE", "row")
        monkeypatch.setenv("REPRO_FUSION", "0")
        cfg = EngineConfig.from_env()
        assert cfg.executor_mode == "row"
        assert cfg.fusion_enabled is False

    def test_from_env_overrides_beat_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_EXECUTOR_MODE", "row")
        monkeypatch.setenv("REPRO_FUSION", "off")
        cfg = EngineConfig.from_env(executor_mode="vectorized",
                                    fusion_enabled=True)
        assert cfg.executor_mode == "vectorized"
        assert cfg.fusion_enabled is True

    def test_from_env_none_overrides_ignored(self, monkeypatch):
        monkeypatch.setenv("REPRO_EXECUTOR_MODE", "row")
        cfg = EngineConfig.from_env(executor_mode=None)
        assert cfg.executor_mode == "row"

    @pytest.mark.parametrize("raw,expected", [
        ("0", False), ("false", False), ("OFF", False), ("no", False),
        ("1", True), ("on", True), ("", True),
    ])
    def test_fusion_env_values(self, monkeypatch, raw, expected):
        monkeypatch.setenv("REPRO_FUSION", raw)
        assert EngineConfig.from_env().fusion_enabled is expected

    @pytest.mark.parametrize(
        "knob", dataclasses.fields(EngineConfig), ids=lambda f: f.name)
    def test_one_list_of_knobs(self, monkeypatch, knob):
        """Field, env metadata, README row and Database keyword agree."""
        name = knob.name
        value, env_text, floor = KNOBS[name]
        default = getattr(EngineConfig(), name)
        assert value != default
        # Database(knob=...) is EngineConfig.from_env(knob=...).
        via_kwargs = Database(**{name: value}).config
        assert via_kwargs == EngineConfig.from_env(**{name: value})
        assert getattr(via_kwargs, name) == value
        env = knob.metadata.get("env")
        assert (env is None) == (env_text is None)
        if env is None:
            return
        assert env in _readme_knob_rows()[name]
        # The variable parses to the value; a keyword beats it; unset or
        # blank falls back to the default.
        monkeypatch.setenv(env, env_text)
        assert getattr(EngineConfig.from_env(), name) == value
        assert getattr(
            EngineConfig.from_env(**{name: default}), name) == default
        monkeypatch.setenv(env, "  ")
        assert getattr(EngineConfig.from_env(), name) == default
        if floor is not None:
            monkeypatch.setenv(env, str(floor - 1))
            assert getattr(EngineConfig.from_env(), name) == floor
        if knob.type is bool:
            for raw in ("0", "false", "OFF", "no"):
                monkeypatch.setenv(env, raw)
                assert getattr(EngineConfig.from_env(), name) is False
            for raw in ("1", "on", "yes"):
                monkeypatch.setenv(env, raw)
                assert getattr(EngineConfig.from_env(), name) is True
        else:
            monkeypatch.setenv(env, BAD_ENV_TEXT[knob.type])
            with pytest.raises(ReproError):
                EngineConfig.from_env()

    def test_unknown_knob_rejected(self):
        with pytest.raises(TypeError):
            Database(turbo=True)

    def test_executor_kwargs_shape(self):
        cfg = EngineConfig(executor_mode="row", fusion_enabled=False)
        assert cfg.executor_kwargs() == {
            "mode": "row", "fusion_enabled": False, "pruning_enabled": True,
        }


# ----------------------------------------------------------------------
# Database(config=...) vs. knob kwargs
# ----------------------------------------------------------------------
class TestConfigEquivalence:
    def test_config_and_kwargs_wire_identical_engines(self):
        cfg = EngineConfig(
            executor_mode="row", plan_cache_size=17,
            enumerator="greedy", use_views=False,
            cost_params={"cpu_tuple_cost": 2.0}, fusion_enabled=False,
        )
        via_config = Database(config=cfg)
        via_kwargs = Database(
            executor_mode="row", plan_cache_size=17,
            enumerator="greedy", use_views=False,
            cost_params={"cpu_tuple_cost": 2.0}, fusion_enabled=False,
        )
        for db in (via_config, via_kwargs):
            assert db.executor.mode == "row"
            assert db.executor.fusion_enabled is False
            assert db.planner.enumerator == "greedy"
            assert db.planner.use_views is False
            assert db.pipeline.plan_cache.capacity == 17
            assert db.cost_model.params["cpu_tuple_cost"] == 2.0
        assert via_config.config == via_kwargs.config

    def test_mixing_config_and_kwargs_is_an_error(self):
        with pytest.raises(ReproError, match="not both"):
            Database(config=EngineConfig(), executor_mode="row")

    def test_config_must_be_engineconfig(self):
        with pytest.raises(ReproError, match="EngineConfig"):
            Database(config={"executor_mode": "row"})

    def test_config_property_is_read_only(self):
        db = Database()
        with pytest.raises(AttributeError):
            db.config = EngineConfig()

    def test_default_database_exposes_config(self):
        db = Database(executor_mode="row")
        assert isinstance(db.config, EngineConfig)
        assert db.config.executor_mode == "row"


# ----------------------------------------------------------------------
# fuse_plan as a unit: what fuses, what is refused
# ----------------------------------------------------------------------
class TestFusePlan:
    def test_scan_predicates_lift_into_fused_op(self):
        pred = Predicate("t", "k", "<", 5)
        plan = P.HashAggregate(
            P.SeqScan("t", (pred,)), [("t", "tag")], [Aggregate("count")]
        )
        fused, n = fuse_plan(plan)
        assert isinstance(fused, P.FusedPipelineOp)
        assert n == fused.fused_ops == 2  # Filter + Aggregate stages
        assert list(fused.predicates) == [pred]
        source = fused.children[0]
        assert isinstance(source, P.SeqScan)
        assert list(source.predicates) == []  # stripped: the fused op masks

    def test_standalone_filter_absorbed(self):
        pred = Predicate("t", "k", "<", 5)
        plan = P.Limit(
            P.Project(P.Filter(P.SeqScan("t"), (pred,)), [("t", "tag")]),
            3,
        )
        fused, n = fuse_plan(plan)
        assert isinstance(fused, P.FusedPipelineOp)
        assert fused.stages == ["Filter", "Project", "Limit"]
        assert n == 3

    def test_sort_in_tail_refused(self):
        plan = P.Project(
            P.Sort(P.SeqScan("t"), ("t", "k")), [("t", "k")], distinct=True
        )
        out, n = fuse_plan(plan)
        assert out is plan and n == 0

    def test_bare_project_not_worth_it(self):
        plan = P.Project(P.SeqScan("t"), [("t", "k")])
        out, n = fuse_plan(plan)
        assert out is plan and n == 0

    def test_two_mask_stages_refused(self):
        """Pushed scan predicates + a standalone Filter: refuse."""
        plan = P.HashAggregate(
            P.Filter(
                P.SeqScan("t", (Predicate("t", "k", "<", 5),)),
                (Predicate("t", "v", ">", 1.0),),
            ),
            [], [Aggregate("count")],
        )
        out, n = fuse_plan(plan)
        assert out is plan and n == 0

    def test_empty_result_refused(self):
        plan = P.Limit(P.EmptyResult([("t", "k")]), 3)
        out, n = fuse_plan(plan)
        assert out is plan and n == 0

    def test_join_source_fuses(self):
        from repro.engine.query import JoinEdge

        join = P.HashJoin(P.SeqScan("a"), P.SeqScan("b"),
                          [JoinEdge("a", "k", "b", "k")])
        plan = P.HashAggregate(join, [], [Aggregate("count")])
        fused, n = fuse_plan(plan)
        assert isinstance(fused, P.FusedPipelineOp)
        assert fused.children[0] is join

    def test_fused_node_ctor_validation(self):
        scan = P.SeqScan("t")
        with pytest.raises(PlanError):
            P.FusedPipelineOp(scan)  # neither project nor aggregate
        with pytest.raises(PlanError):
            P.FusedPipelineOp(
                scan,
                project_node=P.Project(scan, [("t", "k")]),
                agg_node=P.HashAggregate(scan, [], [Aggregate("count")]),
            )


# ----------------------------------------------------------------------
# Fused execution end to end: rows, parity, telemetry, EXPLAIN
# ----------------------------------------------------------------------
class TestFusedExecution:
    def test_fused_matches_unfused_rows_and_work(self):
        fused_db = _populated(fusion_enabled=True)
        plain_db = _populated(fusion_enabled=False)
        for sql in (
            FUSIBLE_SQL,
            "SELECT MIN(v), MAX(v), AVG(v) FROM t WHERE tag = 'g1'",
            "SELECT DISTINCT tag FROM t WHERE k != 3",
            "SELECT id, v FROM t WHERE v > 5.0 LIMIT 7",
        ):
            a = fused_db.execute(sql)
            b = plain_db.execute(sql)
            assert a.rows == b.rows, sql
            assert a.work == b.work, sql
            assert a.operator_work == b.operator_work, sql
            assert a.telemetry.fused_ops > 0, sql
            assert b.telemetry.fused_ops == 0, sql

    def test_telemetry_summary_has_fused_ops(self):
        db = _populated(fusion_enabled=True)
        res = db.execute(FUSIBLE_SQL)
        assert res.telemetry.summary()["fused_ops"] == res.telemetry.fused_ops

    def test_repro_fusion_env_gates_default_database(self, monkeypatch):
        monkeypatch.setenv("REPRO_FUSION", "0")
        db = _populated()
        assert db.executor.fusion_enabled is False
        assert db.execute(FUSIBLE_SQL).telemetry.fused_ops == 0

    def test_explain_result_structure(self):
        db = _populated(fusion_enabled=True)
        res = db.explain(FUSIBLE_SQL)
        # Back-compat: behaves like the classic plan text.
        assert str(res) == res.text
        assert "SeqScan" in res
        assert res == res.text
        # The plan itself stays unfused; fusion is previewed as a count.
        assert not any(
            isinstance(n, P.FusedPipelineOp) for n in res.plan.walk()
        )
        assert res.fused_ops > 0
        assert res.cache_hit is False
        assert db.explain(FUSIBLE_SQL).cache_hit is True

    def test_explain_fused_ops_zero_when_disabled(self):
        db = _populated(fusion_enabled=False)
        assert db.explain(FUSIBLE_SQL).fused_ops == 0

    def test_plan_cache_stays_unfused(self):
        """Fusion must not leak into cached plans: a warm run through the
        cache still reports fused_ops (i.e. fusion re-applies per
        execution, not per plan)."""
        db = _populated(fusion_enabled=True)
        cold = db.execute(FUSIBLE_SQL)
        warm = db.execute(FUSIBLE_SQL)
        assert warm.pipeline_telemetry.cache_hit is True
        assert warm.telemetry.fused_ops == cold.telemetry.fused_ops > 0
        assert warm.rows == cold.rows
