"""Admission-accounting and serving-layer property tests (PR 8).

The properties this file pins down, mostly with a **manual clock** so
nothing depends on wall time:

* **Quota conservation** — for every tenant whose tickets were all
  settled, ``charged - refunded == settled_work``, and through the
  server the settled work equals the sum of the executor's measured
  ``total_work`` (estimates are the admission
  currency, actuals are the settlement).
* **No starvation under fair-share** — with two tenants queued, grants
  alternate round-robin; a flooding tenant cannot push the other's
  waiters behind its own backlog (asserted on grant *order*, not
  latency).
* **Shed never blocks** — at ``admission_queue_depth=0`` an over-quota
  tenant gets :class:`AdmissionError` immediately; no waiter is ever
  parked.
* **Tenant isolation** — an over-quota tenant's debt affects only its
  own bucket: a well-behaved tenant is admitted without queueing and
  its warm plan-cache hits stay intact.

Plus the server plumbing around those invariants: commit-log growth on
the single-writer path, session isolation levels, closed-session
errors, and the ``REPRO_ADMISSION_*`` environment knobs.
"""

import threading

import pytest

from repro.common import CatalogError, ExecutionError, ReproError
from repro.engine import Database, EngineConfig, Policy, QueryServer
from repro.engine.server import (
    AdmissionController,
    AdmissionError,
    TokenBucket,
)
from repro.engine.session.context import WRITE_STATEMENT_COST


class ManualClock:
    """A deterministic time source tests advance by hand."""

    def __init__(self, t=0.0):
        self.t = float(t)

    def __call__(self):
        return self.t

    def advance(self, dt):
        self.t += float(dt)


def _serving_db(**knobs):
    db = Database(**knobs)
    db.execute("CREATE TABLE a (id INT, k INT, v FLOAT)")
    db.catalog.table("a").insert_rows(
        [(i, i % 7, float(i % 11)) for i in range(400)]
    )
    db.execute("ANALYZE")
    return db


# ----------------------------------------------------------------------
# TokenBucket unit behaviour
# ----------------------------------------------------------------------
class TestTokenBucket:
    def test_starts_full_and_charges_down(self):
        b = TokenBucket(100.0, 10.0, now=0.0)
        assert b.tokens == 100.0
        assert b.can_pay(100.0)
        b.charge(60.0)
        assert b.tokens == 40.0
        assert not b.can_pay(50.0)

    def test_refill_is_capped_at_capacity(self):
        b = TokenBucket(100.0, 10.0, now=0.0)
        b.charge(30.0)
        b.refill(5.0)  # +50 would overshoot; capped at 100
        assert b.tokens == 100.0

    def test_balance_may_go_negative_and_must_be_paid_off(self):
        b = TokenBucket(100.0, 10.0, now=0.0)
        b.charge(100.0)
        b.deposit(100.0 - 250.0)  # settled 250 actual vs 100 estimate
        assert b.tokens == -150.0
        b.refill(10.0)  # +100 refill: still in debt
        assert b.tokens == -50.0
        assert not b.can_pay(1.0)
        b.refill(20.0)
        assert b.tokens == 50.0
        assert b.can_pay(50.0)

    def test_over_capacity_query_admissible_at_full_bucket(self):
        """A query costing more than the whole quota must still be
        runnable — at a full bucket — or it could never run at all."""
        b = TokenBucket(100.0, 10.0, now=0.0)
        assert b.can_pay(1e9)
        b.charge(1e9)
        assert b.tokens < 0
        assert not b.can_pay(1.0)

    def test_deposit_capped_at_capacity(self):
        b = TokenBucket(100.0, 10.0, now=0.0)
        b.charge(10.0)
        b.deposit(500.0)
        assert b.tokens == 100.0

    def test_validation(self):
        with pytest.raises(ExecutionError):
            TokenBucket(0.0, 1.0)
        with pytest.raises(ExecutionError):
            TokenBucket(10.0, -1.0)


# ----------------------------------------------------------------------
# AdmissionController properties (manual clock; no wall time)
# ----------------------------------------------------------------------
class TestQuotaConservation:
    def test_charged_minus_refunded_equals_settled_work(self):
        clock = ManualClock()
        ctl = AdmissionController(
            tenant_quota=1000.0, quota_refill_rate=0.0,
            clock=clock,
        )
        # Mix of over- and under-estimates; all settled.
        cases = [(100.0, 40.0), (50.0, 125.0), (10.0, 10.0), (200.0, 0.0)]
        for est, actual in cases:
            ticket = ctl.admit("t", est)
            ctl.settle(ticket, actual)
        stats = ctl.stats()["t"]
        assert stats["charged"] - stats["refunded"] == pytest.approx(
            stats["settled_work"]
        )
        assert stats["settled_work"] == pytest.approx(
            sum(actual for __, actual in cases)
        )
        # Net balance drop equals net work consumed.
        assert ctl.balance("t") == pytest.approx(
            1000.0 - sum(actual for __, actual in cases)
        )

    def test_settle_is_idempotent(self):
        ctl = AdmissionController(
            tenant_quota=1000.0, quota_refill_rate=0.0,
            clock=ManualClock(),
        )
        ticket = ctl.admit("t", 100.0)
        ctl.settle(ticket, 30.0)
        before = ctl.balance("t")
        ctl.settle(ticket, 30.0)
        ctl.cancel(ticket)
        assert ctl.balance("t") == before

    def test_cancel_refunds_the_full_charge(self):
        ctl = AdmissionController(
            tenant_quota=1000.0, quota_refill_rate=0.0,
            clock=ManualClock(),
        )
        ticket = ctl.admit("t", 123.0)
        ctl.cancel(ticket)
        assert ctl.balance("t") == pytest.approx(1000.0)
        stats = ctl.stats()["t"]
        assert stats["charged"] == pytest.approx(stats["refunded"])
        assert stats["settled_work"] == 0.0

    def test_conservation_through_the_server(self):
        """Server-level conservation: the tenant's net charge equals the
        sum of the executor's measured total_work per query."""
        server = QueryServer(
            _serving_db(), tenant_quota=1e9, quota_refill_rate=0.0,
        )
        sess = server.session(tenant="t")
        total = 0.0
        for sql in (
            "SELECT COUNT(*) FROM a",
            "SELECT COUNT(*) FROM a WHERE k = 3",
            "SELECT k, COUNT(*) FROM a GROUP BY k ORDER BY k",
            "SELECT COUNT(*) FROM a WHERE k = 3",  # warm plan
        ):
            result = sess.execute(sql)
            assert sess.last_admission.settled
            assert result.trace.span("admission").attrs["settled"] == \
                result.telemetry.total_work
            total += result.telemetry.total_work
        stats = server.admission.stats()["t"]
        assert stats["settled_work"] == pytest.approx(total)
        assert stats["charged"] - stats["refunded"] == pytest.approx(total)
        assert server.admission.balance("t") == pytest.approx(1e9 - total)
        # The rollup saw the same work.
        rollup = server.rollup.summary()["tenants"]["t"]
        assert rollup["total_work"] == pytest.approx(total)
        assert rollup["queries"] == 4

    def test_write_path_settles_at_flat_cost(self):
        server = QueryServer(
            _serving_db(), tenant_quota=1e6, quota_refill_rate=0.0,
        )
        sess = server.session(tenant="w")
        sess.execute("CREATE TABLE z (id INT)")
        sess.insert_rows("z", [(1,), (2,)])
        stats = server.admission.stats()["w"]
        assert stats["charged"] == pytest.approx(2 * WRITE_STATEMENT_COST)
        assert stats["settled_work"] == pytest.approx(
            2 * WRITE_STATEMENT_COST)
        assert stats["refunded"] == pytest.approx(0.0)

    def test_failed_statements_stay_in_the_rollup(self):
        """The admission counters and the rollup count the same
        statements: one that fails after admission is refunded, and
        observed as an ``"error"`` that settled no work."""
        db = Database()
        db.execute("CREATE TABLE t (a INT, c TEXT)")
        db.catalog.table("t").insert_rows([(1, "x"), (2, None)])
        server = QueryServer(db, tenant_quota=1e6, quota_refill_rate=0.0)
        sess = server.session(tenant="t1")
        good = sess.execute("SELECT a FROM t")
        with pytest.raises(TypeError):  # TEXT NULL < 'y'
            sess.execute("SELECT a FROM t WHERE c < 'y'")
        with pytest.raises(CatalogError):
            sess.execute("INSERT INTO t VALUES ('abc', 'q')")
        stats = server.stats()
        admission = stats["admission"]["t1"]
        rollup = stats["rollup"]["tenants"]["t1"]
        assert admission["admitted"] == 3 and admission["shed"] == 0
        assert rollup["queries"] == admission["admitted"]
        assert rollup["outcomes"] == {"admitted": 1, "error": 2}
        assert rollup["total_work"] == good.work == admission["settled_work"]
        # Both failures were refunded in full.
        assert server.admission.balance("t1") == pytest.approx(
            1e6 - good.work)
        assert stats["rollup"]["sessions"][sess.session_id] == rollup

    def test_closed_sessions_leave_the_rollup(self):
        """One-shot executes open and close a session each: the rollup
        keeps no bucket for any of them, and still counts every
        statement under the tenant."""
        db = Database()
        db.execute("CREATE TABLE t (a INT)")
        db.catalog.table("t").insert_rows([(1,), (2,)])
        server = QueryServer(db, tenant_quota=1e9, quota_refill_rate=0.0)
        for __ in range(1000):
            server.execute("SELECT a FROM t")
        summary = server.rollup.summary()
        assert summary["sessions"] == {}
        assert summary["tenants"]["default"]["queries"] == 1000


def _wait_until(predicate, timeout=5.0, tick=0.005):
    """Poll ``predicate`` until true (assert) — bounded, never sleeps long."""
    deadline = int(timeout / tick)
    while not predicate():
        assert deadline > 0, "condition not reached within %.1fs" % timeout
        threading.Event().wait(tick)
        deadline -= 1


class TestFairShareNoStarvation:
    def _controller(self, clock, **kwargs):
        defaults = dict(
            tenant_quota=100.0, quota_refill_rate=0.0,
            timeout=10.0, clock=clock,
        )
        defaults.update(kwargs)
        return AdmissionController(**defaults)

    def test_grants_alternate_between_tenants(self):
        """Hog has 4 waiters queued, meek has 2; each refill lap must
        grant one query **per tenant** — meek is never starved behind
        hog's backlog. Fully deterministic: the manual clock meters out
        exactly enough tokens for one 50-cost grant per tenant per kick,
        so the admitted counters after each kick are forced, not raced.
        """
        clock = ManualClock()
        ctl = self._controller(clock, quota_refill_rate=50.0, timeout=60.0)
        # Drive both tenants into identical debt (-100 tokens each).
        for tenant in ("hog", "meek"):
            t = ctl.admit(tenant, 100.0)
            ctl.settle(t, 200.0)
            assert ctl.balance(tenant) == pytest.approx(-100.0)

        def waiter(tenant):
            ticket = ctl.admit(tenant, 50.0)
            # actual == cost: settle leaves the bucket where the charge
            # put it, so only clock advances mint new tokens.
            ctl.settle(ticket, 50.0)

        threads = [
            threading.Thread(target=waiter, args=("hog",), daemon=True)
            for __ in range(4)
        ] + [
            threading.Thread(target=waiter, args=("meek",), daemon=True)
            for __ in range(2)
        ]
        for t in threads:
            t.start()
        _wait_until(lambda: ctl.queue_depth_now() == 6)

        def admitted(tenant):
            return ctl.stats()[tenant]["admitted"] - 1  # minus the drain

        # Lap 1: +150 tokens each (-100 -> 50): exactly one grant per
        # tenant is affordable. If grants were not round-robin (e.g.
        # strict arrival order), both could go to hog — the counters
        # below would never reach (1, 1).
        clock.advance(3.0)
        ctl.kick()
        _wait_until(lambda: admitted("hog") == 1 and admitted("meek") == 1)
        assert ctl.queue_depth_now() == 4
        # No further grants are possible without another advance.
        threading.Event().wait(0.02)
        assert admitted("hog") == 1 and admitted("meek") == 1

        # Lap 2: +50 each (0 -> 50): again one per tenant.
        clock.advance(1.0)
        ctl.kick()
        _wait_until(lambda: admitted("hog") == 2 and admitted("meek") == 2)
        assert ctl.queue_depth_now() == 2

        # Meek's queue is now empty; hog drains alone.
        clock.advance(1.0)
        ctl.kick()
        _wait_until(lambda: admitted("hog") == 3)
        clock.advance(1.0)
        ctl.kick()
        _wait_until(lambda: admitted("hog") == 4)
        assert ctl.queue_depth_now() == 0
        for t in threads:
            t.join(timeout=5.0)
        assert all(not t.is_alive() for t in threads)
        stats = ctl.stats()
        assert stats["meek"]["queued"] == 2
        assert stats["meek"]["shed"] == 0

    def test_fair_share_skips_broke_tenant(self):
        """A broke tenant's parked waiter never blocks another tenant:
        the payable one is granted straight past it (no head-of-line
        blocking across tenants)."""
        clock = ManualClock()
        ctl = self._controller(clock, quota_refill_rate=50.0, timeout=15.0)
        broke = ctl.admit("broke", 100.0)
        ctl.settle(broke, 500.0)
        results = {}

        def first():
            try:
                results["broke"] = ctl.admit("broke", 10.0)
            except AdmissionError as exc:
                results["broke"] = exc

        t1 = threading.Thread(target=first, daemon=True)
        t1.start()
        while ctl.queue_depth_now() < 1:
            threading.Event().wait(0.005)
        ticket = ctl.admit("rich", 10.0)
        assert ticket.outcome == "admitted"
        ctl.settle(ticket, 10.0)
        # Unblock the broke waiter so the thread exits.
        clock.advance(1e9)
        ctl.kick()
        t1.join(timeout=5.0)
        assert not t1.is_alive()


class TestShedNeverBlocks:
    def test_over_quota_raises_immediately(self):
        clock = ManualClock()
        ctl = AdmissionController(
            tenant_quota=100.0, quota_refill_rate=0.0, queue_depth=0,
            clock=clock,
        )
        ticket = ctl.admit("t", 100.0)
        ctl.settle(ticket, 100.0)
        with pytest.raises(AdmissionError):
            ctl.admit("t", 50.0)
        assert ctl.queue_depth_now() == 0
        stats = ctl.stats()["t"]
        assert stats["shed"] == 1
        assert stats["queued"] == 0

    def test_shed_through_the_server(self):
        """A depth-0 server sheds the first over-quota statement at once:
        the first read (admissible at a full bucket) leaves the tenant in
        debt, and the second raises without ever waiting."""
        server = QueryServer(
            _serving_db(admission_queue_depth=0), tenant_quota=10.0,
            quota_refill_rate=0.0,
        )
        assert server.admission.queue_depth == 0
        sess = server.session(tenant="t")
        sess.query("SELECT COUNT(*) FROM a")
        with pytest.raises(AdmissionError):
            sess.query("SELECT COUNT(*) FROM a")
        assert server.admission.queue_depth_now() == 0
        stats = server.admission.stats()["t"]
        assert stats["shed"] == 1
        assert stats["queued"] == 0
        # Shed outcomes are visible in the rollup too.
        outcomes = server.rollup.summary()["tenants"]["t"]["outcomes"]
        assert outcomes == {"admitted": 1, "shed": 1}

    def test_queue_full_sheds_even_under_queueing_policies(self):
        """A positive depth queues up to the bound and sheds beyond it."""
        clock = ManualClock()
        ctl = AdmissionController(
            tenant_quota=10.0, quota_refill_rate=10.0,
            queue_depth=1, timeout=15.0, clock=clock,
        )
        first = ctl.admit("t", 10.0)
        ctl.settle(first, 50.0)  # debt; everything below must queue

        parked = threading.Event()

        def waiter():
            parked.set()
            try:
                ticket = ctl.admit("t", 5.0)
                ctl.settle(ticket, 5.0)
            except AdmissionError:
                pass

        t1 = threading.Thread(target=waiter, daemon=True)
        t1.start()
        parked.wait()
        while ctl.queue_depth_now() < 1:
            threading.Event().wait(0.005)
        with pytest.raises(AdmissionError, match="queue full"):
            ctl.admit("t", 5.0)
        clock.advance(1e9)
        ctl.kick()
        t1.join(timeout=5.0)


class TestTenantIsolation:
    def test_over_quota_tenant_cannot_degrade_another(self):
        """Tenant A burns through its quota; tenant B (same server, same
        plan cache) must still be admitted without queueing, with its
        warm-plan hits intact.

        The quota (6000 work units, no refill) is sized so A's ~807-work
        group-by floods over it within a dozen statements while B's
        eleven 458-work point lookups fit comfortably.
        """
        server = QueryServer(
            _serving_db(), tenant_quota=6000.0, quota_refill_rate=0.0,
            admission_timeout=0.05,
        )
        b_sess = server.session(tenant="B")
        b_sess.query("SELECT COUNT(*) FROM a WHERE k = 3")  # warm the plan
        server.db.pipeline.plan_cache.reset_counters()

        a_sess = server.session(tenant="A")
        a_shed = 0
        for __ in range(12):
            try:
                a_sess.query("SELECT k, COUNT(*) FROM a GROUP BY k")
            except AdmissionError:
                a_shed += 1
        # A actually hit the wall: its bucket can no longer pay.
        a_stats = server.admission.stats()["A"]
        assert a_shed > 0, a_stats
        assert a_stats["timed_out"] == a_shed
        assert server.admission.balance("A") < 820.0

        for __ in range(10):
            result = b_sess.execute("SELECT COUNT(*) FROM a WHERE k = 3")
            admission = result.trace.span("admission").attrs
            assert admission["outcome"] == "admitted"
            assert admission["queue_wait"] == 0.0
            assert result.rows == [(57,)]
        b_stats = server.admission.stats()["B"]
        assert b_stats["queued"] == 0
        assert b_stats["shed"] == 0
        assert b_stats["admitted"] == 11
        # B's plans stayed warm — A's flood didn't evict or invalidate.
        assert server.db.pipeline.plan_cache.stats()["hits"] >= 10

    def test_debt_is_charged_to_the_misestimated_tenant_only(self):
        clock = ManualClock()
        ctl = AdmissionController(
            tenant_quota=100.0, quota_refill_rate=0.0, clock=clock,
        )
        bad = ctl.admit("bad", 10.0)
        ctl.settle(bad, 400.0)  # 40x under-estimate
        assert ctl.balance("bad") < 0
        assert ctl.balance("good") == pytest.approx(100.0)
        ticket = ctl.admit("good", 100.0)
        assert ticket.outcome == "admitted"
        ctl.settle(ticket, 100.0)


# ----------------------------------------------------------------------
# Server plumbing around the admission core
# ----------------------------------------------------------------------
class TestServerSurface:
    def test_commit_log_grows_per_write_and_versions_match(self):
        db = _serving_db()
        server = QueryServer(db)
        base_len = len(server.commit_history())
        sess = server.session(tenant="t")
        sess.execute("CREATE TABLE c (id INT)")
        sess.insert_rows("c", [(1,)])
        sess.execute("INSERT INTO c VALUES (2)")
        history = server.commit_history()
        assert len(history) == base_len + 3
        seqs = [seq for seq, __ in history]
        assert seqs == sorted(seqs)
        # The final logged vector is the live catalog's vector.
        assert history[-1][1] == dict(db.catalog.version_vector())
        # Reads see the committed rows.
        assert sess.query("SELECT COUNT(*) FROM c") == [(2,)]

    def test_session_isolation_pins_and_rejects_writes(self):
        server = QueryServer(_serving_db())
        writer = server.session(tenant="w")
        pinned = server.session(tenant="r", isolation="session")
        before = pinned.query("SELECT COUNT(*) FROM a")
        writer.insert_rows("a", [(9999, 1, 0.5)])
        assert pinned.query("SELECT COUNT(*) FROM a") == before
        assert writer.query("SELECT COUNT(*) FROM a")[0][0] == before[0][0] + 1
        with pytest.raises(ExecutionError, match="read-only"):
            pinned.execute("INSERT INTO a VALUES (1, 1, 1.0)")
        with pytest.raises(ExecutionError, match="read-only"):
            pinned.insert_rows("a", [(1, 1, 1.0)])

    def test_statement_isolation_sees_each_commit(self):
        server = QueryServer(_serving_db())
        sess = server.session(tenant="t")
        n0 = sess.query("SELECT COUNT(*) FROM a")[0][0]
        sess.insert_rows("a", [(10_000, 0, 0.0)])
        assert sess.query("SELECT COUNT(*) FROM a")[0][0] == n0 + 1

    def test_closed_session_raises(self):
        server = QueryServer(_serving_db())
        with server.session(tenant="t") as sess:
            sess.query("SELECT COUNT(*) FROM a")
        with pytest.raises(ExecutionError, match="closed"):
            sess.query("SELECT COUNT(*) FROM a")

    def test_close_is_honoured_on_the_route_not_the_facade(self):
        """Contexts and agent sessions over a closed session stop too."""
        server = QueryServer(_serving_db())
        sess = server.session(tenant="t")
        context = sess.session_context(policy=Policy.unrestricted())
        agent = server.agent_session()
        sess.close()
        agent.close()
        for handle in (context, agent):
            with pytest.raises(ExecutionError, match="closed"):
                handle.execute("SELECT COUNT(*) FROM a")
            with pytest.raises(ExecutionError, match="closed"):
                handle.execute("INSERT INTO a VALUES (1, 1, 1.0)")

    def test_invalid_isolation_rejected(self):
        server = QueryServer(_serving_db())
        with pytest.raises(ExecutionError, match="isolation"):
            server.session(tenant="t", isolation="snapshotty")

    def test_db_and_config_are_mutually_exclusive(self):
        db = Database()
        with pytest.raises(ExecutionError):
            QueryServer(db, config=EngineConfig())

    def test_one_shot_execute_convenience(self):
        server = QueryServer(_serving_db())
        result = server.execute("SELECT COUNT(*) FROM a", tenant="x")
        assert result.rows == [(400,)]
        assert "x" in server.admission.stats()

    def test_snapshot_versions_surface(self):
        server = QueryServer(_serving_db())
        live = server.session(tenant="t")
        pinned = server.session(tenant="t", isolation="session")
        v0 = pinned.snapshot_versions()
        live.insert_rows("a", [(5000, 0, 0.0)])
        assert pinned.snapshot_versions() == v0
        assert live.snapshot_versions() != v0

    def test_execution_failure_cancels_the_ticket(self, monkeypatch):
        """A query that fails *after* admission must refund its charge
        (cancel), or the tenant slowly leaks quota on errors."""
        server = QueryServer(
            _serving_db(), tenant_quota=1e6, quota_refill_rate=0.0,
        )
        sess = server.session(tenant="t")

        def boom(*args, **kwargs):
            raise ExecutionError("injected executor failure")

        monkeypatch.setattr(server.db.executor, "execute", boom)
        with pytest.raises(ExecutionError, match="injected"):
            sess.query("SELECT COUNT(*) FROM a")
        assert server.admission.balance("t") == pytest.approx(1e6)
        stats = server.admission.stats()["t"]
        assert stats["charged"] == pytest.approx(stats["refunded"])
        assert stats["settled_work"] == 0.0

    def test_snapshot_pin_failure_cancels_the_ticket(self, monkeypatch):
        """The pin sits between admission and execution: a failure there
        must refund the charge too, and conservation must keep holding
        once the tenant's later statements settle."""
        server = QueryServer(
            _serving_db(), tenant_quota=1e6, quota_refill_rate=0.0,
        )
        sess = server.session(tenant="t")

        def boom():
            raise ExecutionError("injected pin failure")

        monkeypatch.setattr(server, "pin_snapshot", boom)
        with pytest.raises(ExecutionError, match="injected pin"):
            sess.query("SELECT COUNT(*) FROM a")
        assert server.admission.balance("t") == pytest.approx(1e6)
        stats = server.admission.stats()["t"]
        assert stats["charged"] == pytest.approx(stats["refunded"])
        assert stats["settled_work"] == 0.0
        monkeypatch.undo()
        work = sess.execute("SELECT COUNT(*) FROM a").telemetry.total_work
        stats = server.admission.stats()["t"]
        assert stats["settled_work"] == pytest.approx(work)
        assert stats["charged"] - stats["refunded"] == pytest.approx(work)
        assert server.admission.balance("t") == pytest.approx(1e6 - work)

    def test_pre_admission_errors_charge_nothing(self):
        server = QueryServer(
            _serving_db(), tenant_quota=1e6, quota_refill_rate=0.0,
        )
        sess = server.session(tenant="t")
        with pytest.raises(CatalogError):
            sess.query("SELECT COUNT(*) FROM nope")
        # Parse/plan failures never reach admission: no tenant state.
        assert "t" not in server.admission.stats()


class TestConfigPlumbing:
    def test_env_knobs_flow_into_from_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_TENANT_QUOTA", "12345")
        monkeypatch.setenv("REPRO_QUOTA_REFILL", "678")
        monkeypatch.setenv("REPRO_ADMISSION_QUEUE_DEPTH", "9")
        config = EngineConfig.from_env()
        assert config.tenant_quota == 12345.0
        assert config.quota_refill_rate == 678.0
        assert config.admission_queue_depth == 9
        server = QueryServer(config=config)
        assert server.admission.tenant_quota == 12345.0
        assert server.admission.quota_refill_rate == 678.0
        assert server.admission.queue_depth == 9

    def test_config_validation(self):
        with pytest.raises(ReproError):
            EngineConfig(tenant_quota=0)
        with pytest.raises(ReproError):
            EngineConfig(quota_refill_rate=-1)
        with pytest.raises(ReproError):
            EngineConfig(admission_queue_depth=-1)

    def test_queue_depth_zero_means_never_wait(self, monkeypatch):
        """Depth 0 is a legal setting — the shedding controller — from a
        keyword and from the environment alike."""
        assert EngineConfig(admission_queue_depth=0).admission_queue_depth \
            == 0
        monkeypatch.setenv("REPRO_ADMISSION_QUEUE_DEPTH", "0")
        config = EngineConfig.from_env()
        assert config.admission_queue_depth == 0
        assert QueryServer(config=config).admission.queue_depth == 0

    def test_kwargs_override_config(self):
        config = EngineConfig(admission_queue_depth=0, tenant_quota=111.0)
        server = QueryServer(config=config, tenant_quota=222.0)
        assert server.admission.tenant_quota == 222.0
        assert server.admission.queue_depth == 0
