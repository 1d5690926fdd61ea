"""Trace-shape battery: one span tree per statement, on every surface.

{embedded, snapshot, server (statement isolation), agent session} x
{cold read, warm read, invalidated read, INSERT, policy-denied, failing
operator}. Whatever the surface and however the statement ends, its
:class:`~repro.engine.telemetry.StatementTrace` is a closed tree whose
parts sum to the whole; the surfaces differ only in the two spans the
server adds (``admission``, ``pin_snapshot``); and what the tree says
about a run — ``work``, per-node rows — is what the reference executor
says about the same plan.
"""

import pytest

from reference_executor import ReferenceExecutor, node_counts
from repro.common import ExecutionError
from repro.engine import (
    AuditLog,
    Database,
    Policy,
    PolicyError,
    QueryServer,
)

SERVER_SPANS = ("admission", "pin_snapshot")

READ = "SELECT a FROM t WHERE a > 0"
INSERT = "INSERT INTO t VALUES (3, 'z')"
DENIED = "SELECT s FROM secret"
FAILING = "SELECT a FROM t WHERE c < 'y'"  # TEXT NULL → TypeError

#: Stage spans each case leaves on an embedded surface, in order.
EXPECTED = {
    "cold": ["parse", "lower", "plan", "execute"],
    "warm": ["lower", "plan", "execute"],
    "invalidated": ["lower", "plan", "execute"],
    "insert": ["parse", "execute"],
    "denied": ["parse", "lower"],
    "failing": ["parse", "lower", "plan", "execute"],
}


class TraceLog(AuditLog):
    """An audit log that also keeps the trees it was handed (the engine's
    own keeps their digests only)."""

    def __init__(self):
        super().__init__()
        self.traces = []

    def record(self, *args, trace=None, **fields):
        self.traces.append(trace)
        return super().record(*args, trace=trace, **fields)


def open_surface(surface):
    """``(db, context, log)`` over a fresh database holding
    ``t(a INT, c TEXT)`` = ``(1,'x'), (2,NULL)`` and a ``secret`` table
    the policy denies."""
    db = Database()
    db.execute("CREATE TABLE t (a INT, c TEXT)")
    db.execute("CREATE TABLE secret (s INT)")
    db.catalog.table("t").insert_rows([(1, "x"), (2, None)])
    db.execute("ANALYZE t")
    log = TraceLog()
    gates = {"policy": Policy(deny_tables=["secret"]), "audit": log}
    if surface == "embedded":
        context = db.session(**gates)
    elif surface == "snapshot":
        context = db.snapshot().session(**gates)
    elif surface == "server":
        context = QueryServer(db).session(tenant="t1").session_context(
            **gates)
    else:
        context = db.agent_session(**gates)
    return db, context, log


def run_cases(surface):
    """Run the six cases; ``{case: (trace, result or None)}``."""
    db, context, log = open_surface(surface)
    out = {}

    def run(case, sql, raises=None):
        if raises is None:
            result = context.execute(sql).raw
        else:
            with pytest.raises(raises):
                context.execute(sql)
            result = None
        out[case] = (log.traces[-1], result)

    run("cold", READ)
    run("warm", READ)
    # A live writer taking t into the next power-of-two band of row
    # count (2 → 4 rows), which moves its plan version.
    db.catalog.table("t").insert_rows([(9, "w"), (10, "v")])
    run("invalidated", READ)
    if surface == "snapshot":
        run("insert", INSERT, raises=ExecutionError)  # read-only
    else:
        run("insert", INSERT)
    run("denied", DENIED, raises=PolicyError)
    run("failing", FAILING, raises=TypeError)
    assert len(log) == len(log.traces) == 6
    return db, out


def assert_closed_tree(trace, label):
    """Every span closed, every child inside its parent, and the self
    times summing to the root's duration within a microsecond."""
    root = trace.root
    for span in root.walk():
        assert span.seconds is not None and span.seconds >= 0, (
            label, span)
        for child in span.children:
            assert child.start >= span.start, (label, span, child)
            assert (child.start + child.seconds
                    <= span.start + span.seconds + 1e-9), (label, span, child)
    parts = sum(span.self_seconds for span in root.walk())
    assert parts == pytest.approx(root.seconds, abs=1e-6), label


def charged_in_order(span):
    """Work charges of a subtree, in the order they were made."""
    for child in span.children:
        yield from charged_in_order(child)
    if span.work is not None:
        yield span.work


SURFACES = ("embedded", "snapshot", "server", "agent")


@pytest.fixture(scope="module")
def battery():
    return {surface: run_cases(surface) for surface in SURFACES}


@pytest.mark.parametrize("surface", SURFACES)
def test_every_statement_leaves_a_closed_tree(battery, surface):
    __, cases = battery[surface]
    for case, (trace, __) in cases.items():
        assert_closed_tree(trace, (surface, case))


@pytest.mark.parametrize("surface", SURFACES)
def test_span_names_are_the_same_on_every_surface(battery, surface):
    """Same names, same order; the server adds its two spans — admission
    once the plan's cost is known, the pin right before execution — and
    nothing else differs."""
    __, cases = battery[surface]
    for case, (trace, __) in cases.items():
        names = [span.name for span in trace.root.children]
        common = [n for n in names if n not in SERVER_SPANS]
        expected = EXPECTED[case]
        if (surface, case) == ("snapshot", "insert"):
            expected = ["parse"]  # refused before anything ran
        assert common == expected, (surface, case)
        served = [n for n in names if n in SERVER_SPANS]
        if surface != "server" or case == "denied":
            assert served == [], (surface, case)
        elif case == "insert":
            assert names == ["parse", "admission", "execute"]
        else:
            assert names[-3:] == ["admission", "pin_snapshot", "execute"]


@pytest.mark.parametrize("surface", SURFACES)
def test_the_plan_span_says_why(battery, surface):
    __, cases = battery[surface]
    outcomes = {case: cases[case][0].cache_outcome
                for case in ("cold", "warm", "invalidated")}
    assert outcomes == {"cold": "miss", "warm": "hit",
                        "invalidated": "invalidated"}
    assert cases["invalidated"][0].invalidation_cause == "table:t"
    assert cases["denied"][0].cache_outcome is None  # never planned
    for case in ("cold", "warm", "invalidated"):
        trace = cases[case][0]
        assert dict(trace.plan_versions).keys() == {"t"}
        assert set(trace.span("plan").attrs) == {
            "cache_outcome", "invalidation_cause", "plan_versions",
            "plan_route"}
        assert trace.plan_route == "custom"
        for gone in ("arm", "arm_est_cost", "n_candidates", "ues_bound"):
            with pytest.raises(AttributeError):
                getattr(trace, gone)


@pytest.mark.parametrize("surface", SURFACES)
def test_the_tree_agrees_with_the_result_and_the_reference(battery, surface):
    """``sum(span.work) == result.work`` exactly, per-node rows are
    ``node_stats``, and both are what the reference executor measures
    on the same plan over the same data."""
    db, cases = battery[surface]
    reference = ReferenceExecutor(db.catalog, db.cost_model)
    for case in ("cold", "warm", "invalidated"):
        trace, result = cases[case]
        assert result.trace is trace
        run = result.telemetry
        assert run is trace.execute
        total = 0.0
        for work in charged_in_order(run):
            total += work
        assert total == result.work == run.total_work > 0
        nodes = sorted((s for s in run.walk() if "node" in s.attrs),
                       key=lambda s: s.attrs["node"])
        assert [(s.name, s.rows) for s in nodes] == node_counts(result)
        # Fused-away nodes are zero-time children of the fused span.
        fused = run.children[0]
        assert fused.name == "FusedPipelineOp" and run.fused_ops > 0
        assert [c.seconds for c in fused.children] == [0.0, 0.0]
        assert "segments_total" in fused.children[0].attrs  # the scan
    # Same plan, same data, the other executor (the live catalog moved
    # on for the snapshot surface, so it is compared at its own state).
    if surface != "snapshot":
        plan = db.pipeline.prepare_sql(READ).plan
        fresh = db.session().execute(READ).raw
        spec = reference.execute(plan)
        assert (fresh.work, fresh.operator_work) == (
            spec.work, spec.operator_work)
        assert node_counts(fresh) == node_counts(spec)


@pytest.mark.parametrize("surface", SURFACES)
def test_a_failing_operator_leaves_its_partial_run_in_the_tree(
        battery, surface):
    __, cases = battery[surface]
    trace, __ = cases["failing"]
    run = trace.execute
    assert run is not None and run.children  # the operator that raised
    assert all(span.seconds is not None for span in run.walk())
    if surface == "server":
        assert trace.span("admission").attrs["outcome"] == "error"


def test_the_audit_log_keeps_numbers_not_trees():
    db, context, log = open_surface("embedded")
    context.execute(READ)
    record = log.records()[-1]
    assert record.telemetry == log.traces[-1].brief()
    assert set(record.telemetry) == {
        "total_work", "total_seconds", "fused_ops", "max_q_error"}
    assert record.telemetry["total_work"] == record.actual_work
    assert not any(hasattr(record, name) for name in ("trace", "root"))
    context.execute(INSERT)
    assert log.records()[-1].telemetry is None  # no plan ran
