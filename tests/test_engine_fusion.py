"""Tests for operator fusion + the consolidated EngineConfig surface.

Covers the fusion pass as a unit (which tails fuse, which are refused,
how scan predicates lift), the fused execution path end to end (rows and
work parity with the never-fusing reference executor, telemetry), the
structured ``ExplainResult``, and the
``EngineConfig`` dataclass — including the contract that
``Database(config=...)`` and per-knob keyword arguments wire identical
engines, and the one list of knobs (fields, env metadata, README table).
"""

import dataclasses
import os

import pytest

from reference_executor import ReferenceExecutor, assert_matches_reference
from repro.common import ExecutionError, ReproError
from repro.engine import (
    Database,
    EngineConfig,
    fuse_plan,
)
from repro import engine
from repro.engine import plans as P
from repro.engine.fusion import bind_memo, bind_plan, prepare_plan
from repro.engine.plans import PlanError
from repro.engine.query import Aggregate, Predicate


def _populated():
    db = Database()
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
    "cost_params": ({"cpu_tuple_cost": 2.0}, None, None),
    "segment_rows": (4096, " 4096 ", 16),
    "segment_encodings": (("plain", "dict"), " PLAIN, dict ", None),
    "tenant_quota": (12345.0, "12345", None),
    "quota_refill_rate": (678.0, "678", None),
    "admission_queue_depth": (9, "9", 0),
}

#: Env text no parser/validator accepts, by field type.
BAD_ENV_TEXT = {int: "many", float: "lots", tuple: "zip"}


def _readme_default(value):
    """A knob default as the README's table writes it."""
    if isinstance(value, tuple):
        return ",".join(value)
    if isinstance(value, float) and value.is_integer():
        return str(int(value))
    return str(value)


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
        knobs = dataclasses.fields(EngineConfig())
        assert len(knobs) == 6
        from_env = {k.name for k in knobs if "env" in k.metadata}
        assert len(from_env) == 5
        # The README lists exactly those — no row outlives its knob.
        assert from_env == {
            name for name, row in _readme_knob_rows().items()
            if "REPRO_" in row
        }

    def test_frozen(self):
        cfg = EngineConfig()
        with pytest.raises(dataclasses.FrozenInstanceError):
            cfg.segment_rows = 4096

    def test_with_changes_derives_a_new_config(self):
        cfg = EngineConfig()
        other = cfg.with_changes(segment_rows=4096, tenant_quota=11.0)
        assert other.segment_rows == 4096
        assert other.tenant_quota == 11.0
        assert cfg.segment_rows == 65536  # original untouched

    def test_cost_params_copied_defensively(self):
        params = {"cpu_tuple_cost": 2.0}
        cfg = EngineConfig(cost_params=params)
        params["cpu_tuple_cost"] = 99.0
        assert cfg.cost_params["cpu_tuple_cost"] == 2.0

    @pytest.mark.parametrize("bad_kwargs,exc", [
        ({"segment_rows": 0}, ExecutionError),
        ({"segment_encodings": ("zip",)}, ReproError),
        ({"admission_queue_depth": -1}, ReproError),
    ])
    def test_validation_errors(self, bad_kwargs, exc):
        with pytest.raises(exc):
            EngineConfig(**bad_kwargs)

    def test_parallel_mode_and_execution_hints_are_gone(self):
        """No executor mode is selectable, ``parallel`` included, and
        there are no per-plan hint sets left to carry one."""
        with pytest.raises(TypeError):
            EngineConfig(executor_mode="parallel")
        assert not hasattr(engine, "HintSet")

    def test_seed_is_gone(self, monkeypatch):
        """Nothing in the engine is random: there is no seed knob to
        pass, and ``REPRO_SEED`` (the fuzzer's own variable) configures
        nothing."""
        with pytest.raises(TypeError):
            EngineConfig(seed=0)
        with pytest.raises(TypeError):
            Database(seed=0)
        monkeypatch.setenv("REPRO_SEED", "7")
        assert EngineConfig.from_env() == EngineConfig()

    def test_from_env_reads_repro_vars(self, monkeypatch):
        monkeypatch.setenv("REPRO_SEGMENT_ROWS", "4096")
        monkeypatch.setenv("REPRO_TENANT_QUOTA", "11")
        cfg = EngineConfig.from_env()
        assert cfg.segment_rows == 4096
        assert cfg.tenant_quota == 11.0

    def test_from_env_overrides_beat_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_SEGMENT_ROWS", "4096")
        monkeypatch.setenv("REPRO_TENANT_QUOTA", "11")
        cfg = EngineConfig.from_env(segment_rows=1024, tenant_quota=5.0)
        assert cfg.segment_rows == 1024
        assert cfg.tenant_quota == 5.0

    def test_from_env_none_overrides_ignored(self, monkeypatch):
        monkeypatch.setenv("REPRO_SEGMENT_ROWS", "4096")
        cfg = EngineConfig.from_env(segment_rows=None)
        assert cfg.segment_rows == 4096

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
        row = _readme_knob_rows()[name]
        assert env in row
        assert row.split("|")[3].strip() == "`%s`" % _readme_default(default)
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
        monkeypatch.setenv(env, BAD_ENV_TEXT[knob.type])
        with pytest.raises(ReproError):
            EngineConfig.from_env()

    def test_unknown_knob_rejected(self):
        with pytest.raises(TypeError):
            Database(turbo=True)

    def test_consumer_arguments_are_not_engine_knobs(self):
        """The plan cache's capacity (a pipeline constant) and the
        planner's enumerator / view matching (set on ``db.planner``) are
        not ``EngineConfig`` fields."""
        for name in ("plan_cache_size", "enumerator", "use_views"):
            with pytest.raises(TypeError):
                Database(**{name: 1})
        assert not hasattr(EngineConfig, "executor_kwargs")


# ----------------------------------------------------------------------
# Database(config=...) vs. knob kwargs
# ----------------------------------------------------------------------
class TestConfigEquivalence:
    def test_config_and_kwargs_wire_identical_engines(self):
        cfg = EngineConfig(
            segment_rows=4096, tenant_quota=11.0,
            cost_params={"cpu_tuple_cost": 2.0},
        )
        via_config = Database(config=cfg)
        via_kwargs = Database(
            segment_rows=4096, tenant_quota=11.0,
            cost_params={"cpu_tuple_cost": 2.0},
        )
        for db in (via_config, via_kwargs):
            assert db.catalog.segment_rows == 4096
            assert db.config.tenant_quota == 11.0
            assert db.cost_model.params["cpu_tuple_cost"] == 2.0
        assert via_config.config == via_kwargs.config

    def test_mixing_config_and_kwargs_is_an_error(self):
        with pytest.raises(ReproError, match="not both"):
            Database(config=EngineConfig(), segment_rows=4096)

    def test_config_must_be_engineconfig(self):
        with pytest.raises(ReproError, match="EngineConfig"):
            Database(config={"segment_rows": 4096})

    def test_config_property_is_read_only(self):
        db = Database()
        with pytest.raises(AttributeError):
            db.config = EngineConfig()

    def test_default_database_exposes_config(self):
        db = Database(segment_rows=4096)
        assert isinstance(db.config, EngineConfig)
        assert db.config.segment_rows == 4096


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
# Binding: a template's memo rebound to new literals is the memo of the
# bound plan
# ----------------------------------------------------------------------
#: Statement shapes with two literal vectors each: a fused aggregate, an
#: IndexScan probe plus residual, a fused join source, a LIMIT tail and
#: a tail fusion refuses (ORDER BY).
BIND_SHAPES = {
    "aggregate": ("SELECT tag, COUNT(*), SUM(v) FROM t WHERE k < %s "
                  "AND v >= %s GROUP BY tag", ("5", "2.5"), ("3", "-1.0")),
    "index": ("SELECT id, v FROM t WHERE id = %s AND k != %s",
              ("17", "2"), ("40", "6")),
    "join": ("SELECT COUNT(*), SUM(u.w) FROM t, u WHERE t.id = u.id "
             "AND t.k = %s AND u.w > %s", ("1", "3"), ("4", "0")),
    "limit": ("SELECT DISTINCT tag FROM t WHERE k > %s AND tag != %s "
              "LIMIT 2", ("1", "'g0'"), ("5", "'g2'")),
    "order_by": ("SELECT id FROM t WHERE v < %s AND k = %s ORDER BY id",
                 ("4.5", "3"), ("9.0", "0")),
}


def _bindable():
    db = _populated()
    db.execute("CREATE INDEX t_id ON t (id)")
    db.execute("CREATE TABLE u (id INT, w INT)")
    db.execute("INSERT INTO u VALUES " + ", ".join(
        "(%d, %d)" % (i, i % 9) for i in range(0, 200, 3)))
    db.execute("ANALYZE")
    return db


def _structure_only(value):
    """Whether ``value`` — a compiled program or part of one — holds only
    names, numbers, flags and operator entry points: no literal, no plan
    node and no catalog or storage object."""
    if isinstance(value, (tuple, list, frozenset)):
        return all(_structure_only(v) for v in value)
    if hasattr(value, "__self__"):  # a bound ``evaluate``
        return isinstance(value.__self__, engine.PhysicalOperator)
    return value is None or isinstance(value, (str, int, float))


class TestBindMemo:
    @pytest.mark.parametrize("shape", sorted(BIND_SHAPES))
    def test_bound_memo_is_the_memo_of_the_bound_plan(self, shape):
        db = _bindable()
        text, first, second = BIND_SHAPES[shape]
        template_query = db.pipeline.lower_sql(text % first)
        query = db.pipeline.lower_sql(text % second)
        template = db.planner.plan(template_query)
        memo = prepare_plan(template)
        before = (template.pretty(), repr(memo[0]))
        predicates = dict(zip(map(id, template_query.predicates),
                              query.predicates))
        done = {}
        plan = bind_plan(template, predicates, done)
        db.cost_model.annotate(plan, db.planner.estimator, query)
        program, nodes = bind_memo(memo, done)
        want_program, want_nodes = prepare_plan(plan)
        # The template's program, never a recompiled one — and the one
        # the bound plan compiles to.
        assert program is memo[0]
        assert program == want_program
        assert _structure_only(program)
        assert nodes == want_nodes == list(plan.walk())
        assert all(a is b for a, b in zip(nodes, want_nodes))
        assert {p.value for n in plan.walk()
                for p in getattr(n, "predicates", ())} <= {
            p.value for p in query.predicates}
        # The template and its memo are untouched.
        assert before == (template.pretty(), repr(memo[0]))
        # And the bound pair runs as the bound plan prepared afresh.
        ran = db.executor.execute(plan, memo=(program, nodes))
        again = db.executor.execute(plan)
        assert ran.rows == again.rows and ran.work == again.work
        assert ran.telemetry.node_stats == again.telemetry.node_stats


# ----------------------------------------------------------------------
# Fused execution end to end: rows, parity, telemetry, EXPLAIN
# ----------------------------------------------------------------------
class TestFusedExecution:
    def test_fused_matches_unfused_rows_and_work(self):
        """The engine always fuses, the reference never does."""
        db = _populated()
        reference = ReferenceExecutor(db.catalog, db.cost_model)
        for sql in (
            FUSIBLE_SQL,
            "SELECT MIN(v), MAX(v), AVG(v) FROM t WHERE tag = 'g1'",
            "SELECT DISTINCT tag FROM t WHERE k != 3",
            "SELECT id, v FROM t WHERE v > 5.0 LIMIT 7",
        ):
            fused = db.execute(sql)
            assert fused.telemetry.fused_ops > 0, sql
            unfused = reference.execute(db.pipeline.prepare_sql(sql).plan)
            assert_matches_reference(fused, unfused, sql)

    def test_telemetry_summary_has_fused_ops(self):
        db = _populated()
        res = db.execute(FUSIBLE_SQL)
        summary = res.telemetry.summary()
        assert summary["attrs"]["fused_ops"] == res.telemetry.fused_ops > 0

    def test_explain_result_structure(self):
        db = _populated()
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
        assert res.trace.cache_hit is False
        assert db.explain(FUSIBLE_SQL).trace.cache_hit is True

    def test_plan_cache_stays_unfused(self):
        """Fusion must not leak into cached plans: a warm run through the
        cache still reports fused_ops (i.e. fusion re-applies per
        execution, not per plan)."""
        db = _populated()
        cold = db.execute(FUSIBLE_SQL)
        warm = db.execute(FUSIBLE_SQL)
        assert warm.trace.cache_hit is True
        assert warm.telemetry.fused_ops == cold.telemetry.fused_ops > 0
        assert warm.rows == cold.rows
