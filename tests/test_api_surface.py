"""API-surface regression test for the public ``repro.engine`` package.

Guards three properties: every name in ``repro.engine.__all__`` actually
resolves (no stale exports after refactors), the names the API redesigns
promise — the config/fusion surface and now the session layer
(``SessionContext``, ``AgentSession``, ``Policy``, ``AuditLog``, the
``repro.engine.errors`` hierarchy) — stay exported alongside the
long-standing surface the AI4DB/DB4AI layers import, and the error
hierarchy's identity/parentage invariants hold (``repro.common`` and
``repro.engine.errors`` expose the *same* classes, all under
``EngineError``).
"""

import inspect

import repro.common
import repro.engine as engine
import repro.engine.errors as engine_errors

#: Names that must stay in ``repro.engine.__all__``; a superset check so
#: additive growth does not churn this test.
REQUIRED_EXPORTS = {
    # schema / storage / stats
    "ColumnSchema", "DataType", "TableSchema", "Table",
    "ColumnStats", "EquiDepthHistogram", "TableStats",
    # query model + catalog
    "Aggregate", "ConjunctiveQuery", "JoinEdge", "Predicate",
    "Catalog", "IndexDef", "ViewDef",
    # execution + configuration (this PR's redesigned surface)
    "EngineConfig", "ExecutionResult", "Executor",
    "ExplainResult", "FusedPipelineOp", "Relation",
    "fuse_plan",
    # pipeline
    "PIPELINE_STAGES", "PlanCache", "QueryPipeline",
    # façade
    "Database",
    # the one telemetry record: a span tree per statement
    "telemetry", "StatementTrace", "Span",
    # session layer (this PR's redesigned surface)
    "SessionContext", "AgentSession", "SessionResult", "Policy",
    "PolicyDecision", "AuditLog", "AuditRecord", "DryRunReport",
    "StatementPreview", "StatementInfo", "split_script",
    "EngineError", "PolicyError", "SessionError", "AdmissionError",
}


def test_all_names_resolve():
    for name in engine.__all__:
        assert getattr(engine, name, None) is not None, (
            "repro.engine.__all__ exports %r but the attribute is missing"
            % name
        )


def test_one_telemetry_record():
    """The per-statement records collapsed into one span tree: the old
    class names are gone from the package and from its telemetry module,
    with no compatibility alias left behind."""
    for name in ("ExecutionTelemetry", "PipelineTelemetry"):
        assert not hasattr(engine, name)
        assert not hasattr(engine.telemetry, name)
    assert inspect.isclass(engine.StatementTrace)
    assert inspect.isclass(engine.Span)


def test_index_structures_are_not_engine_exports():
    """An index is metadata plus a sort its snapshot caches; the B+Tree
    is the paper's E9 baseline and lives in ``repro.ai4db.design``."""
    from repro.ai4db.design import BPlusTree

    assert inspect.isclass(BPlusTree)
    for name in ("BPlusTree", "HashIndex"):
        assert name not in engine.__all__
        assert not hasattr(engine, name)


def test_admission_has_no_policy_list():
    """Admission has one discipline, so there is no list of policies to
    export (nor a config field choosing among them)."""
    assert "ADMISSION_POLICIES" not in engine.__all__
    assert not hasattr(engine, "ADMISSION_POLICIES")
    assert not hasattr(engine.EngineConfig(), "admission_policy")


def test_plan_selection_is_gone():
    """One plan per statement: no selector, hint set or arm is exported,
    their modules are gone, and the planner plans with DP alone — UES,
    greedy and random orders are :mod:`repro.ai4db.optimization`'s,
    installed through ``order=``."""
    import importlib

    from repro.ai4db import optimization

    for name in ("PlanSelector", "CostSelector", "BanditSelector",
                 "PessimisticSelector", "make_selector", "HintSet",
                 "PlanCandidate", "default_arms", "hint_grid",
                 "PLAN_SELECTORS", "bound_cost"):
        assert name not in engine.__all__
        assert not hasattr(engine, name)
        assert not hasattr(engine.optimizer, name)
    for module in ("selection", "hints", "ues"):
        try:
            importlib.import_module("repro.engine.optimizer." + module)
        except ModuleNotFoundError:
            continue
        raise AssertionError("repro.engine.optimizer.%s is back" % module)
    assert not hasattr(engine.EngineConfig(), "plan_selector")
    for name in ("ues_order", "greedy_order", "random_order",
                 "UpperBoundEstimator"):
        assert name not in engine.__all__
        assert not hasattr(engine, name)
        assert not hasattr(engine.optimizer, name)
        assert name in optimization.__all__
        assert getattr(optimization, name).__module__.startswith(
            "repro.ai4db.optimization.")
    planner = engine.optimizer.Planner(engine.Catalog())
    for knob in ("enumerator", "seed", "use_indexes"):
        assert not hasattr(planner, knob)


def test_cardinality_feedback_left_the_engine():
    """Feedback is no engine knob, attribute or export: it is
    ``repro.ai4db.optimization.feedback.FeedbackLoop``, installed on a
    database from outside."""
    import importlib

    from repro.ai4db.optimization import feedback

    try:
        engine.Database(feedback_enabled=True)
    except TypeError:
        pass
    else:
        raise AssertionError("feedback_enabled is an engine knob again")
    db = engine.Database()
    for name in ("feedback", "feedback_version"):
        assert not hasattr(db, name)
    for name in ("FeedbackCorrectedEstimator", "QueryFeedbackStore"):
        assert name not in engine.__all__
        assert not hasattr(engine, name)
        assert inspect.isclass(getattr(feedback, name))
    try:
        importlib.import_module("repro.engine.optimizer.feedback")
    except ModuleNotFoundError:
        pass
    else:
        raise AssertionError("repro.engine.optimizer.feedback is back")


def test_the_statement_path_has_one_extension_point():
    """No stage hooks, no rewrite stage, no statement-hook/inspector
    pair and no ``run_sql``: the pipeline's one extension point is
    ``extensions``. The rule library and the sampling/oracle estimators
    left ``repro.engine.optimizer`` for ``repro.ai4db``."""
    import importlib

    from repro.ai4db.config import rules
    from repro.ai4db.optimization import estimators

    pipeline = engine.Database().pipeline
    assert pipeline.extensions == []
    for name in ("add_stage_hook", "stage_hooks", "_apply_hooks",
                 "rewriter", "_rewrite", "statement_hooks",
                 "statement_inspectors", "run_sql"):
        assert not hasattr(pipeline, name), name
    assert "rewrite" not in engine.PIPELINE_STAGES
    assert "rewrite" not in engine.telemetry.PLANNING_STAGES
    for name in ("SamplingEstimator", "TrueCardinalityEstimator"):
        assert name not in engine.optimizer.__all__
        assert not hasattr(engine.optimizer, name)
        assert not hasattr(engine.optimizer.cardinality, name)
        assert inspect.isclass(getattr(estimators, name))
    for name in ("RewriteRule", "default_rules", "apply_rules_fixed_order"):
        assert name not in engine.optimizer.__all__
        assert getattr(rules, name).__module__ == rules.__name__
    try:
        importlib.import_module("repro.engine.optimizer.rules")
    except ModuleNotFoundError:
        pass
    else:
        raise AssertionError("repro.engine.optimizer.rules is back")


def test_all_has_no_duplicates():
    assert len(engine.__all__) == len(set(engine.__all__))


def test_required_surface_present():
    missing = REQUIRED_EXPORTS - set(engine.__all__)
    assert not missing, "missing from repro.engine.__all__: %s" % sorted(
        missing
    )


def test_new_exports_are_the_right_kinds():
    assert inspect.isclass(engine.EngineConfig)
    assert inspect.isclass(engine.ExplainResult)
    assert inspect.isclass(engine.FusedPipelineOp)
    assert callable(engine.fuse_plan)
    # EngineConfig is the documented primary Database ctor argument;
    # any other keyword is one of its fields.
    sig = inspect.signature(engine.Database.__init__)
    assert "config" in sig.parameters
    assert engine.Database(segment_rows=4096).config.segment_rows == 4096


def test_session_surface_present():
    assert inspect.isclass(engine.SessionContext)
    assert inspect.isclass(engine.AgentSession)
    assert issubclass(engine.AgentSession, engine.SessionContext)
    assert inspect.isclass(engine.Policy)
    assert inspect.isclass(engine.AuditLog)
    assert callable(engine.split_script)
    # The session entry points on the three facades.
    for owner, name in [
        (engine.Database, "session"),
        (engine.Database, "agent_session"),
        (engine.DatabaseSnapshot, "session"),
        (engine.QueryServer, "agent_session"),
        (engine.Session, "session_context"),
    ]:
        assert callable(getattr(owner, name)), "%s.%s missing" % (
            owner.__name__, name)


def test_error_hierarchy_identity():
    """repro.common and repro.engine.errors expose the same classes."""
    for name in ("ReproError", "EngineError", "CatalogError", "ParseError",
                 "PlanError", "ExecutionError"):
        assert getattr(repro.common, name) is getattr(engine_errors, name), (
            "repro.common.%s is not repro.engine.errors.%s" % (name, name))


def test_error_hierarchy_parentage():
    E = engine_errors
    # One family: catch EngineError, get every engine failure.
    for cls in (E.CatalogError, E.ParseError, E.PlanError,
                E.ExecutionError, E.PolicyError, E.SessionError,
                E.AdmissionError):
        assert issubclass(cls, E.EngineError), cls
        assert issubclass(cls, E.ReproError), cls
    # AdmissionError kept its historical ExecutionError parent.
    assert issubclass(E.AdmissionError, E.ExecutionError)
    # The server package re-exports the same class object.
    assert engine.AdmissionError is E.AdmissionError
    # ParseError keeps its position attribute contract.
    err = E.ParseError("boom", 7)
    assert err.position == 7
