"""The multi-tenant query server: sessions, snapshot reads, one writer.

:class:`QueryServer` turns a single :class:`~repro.engine.database.
Database` into a multi-user system:

* **Sessions** (:meth:`QueryServer.session`) are the caller surface —
  many may execute concurrently, each tagged with a tenant for
  accounting and admission.
* **Reads are MVCC snapshot reads.** Every SELECT is lowered, planned
  and executed on one immutable
  :class:`~repro.engine.catalog.CatalogSnapshot` — pinned per statement
  before its front end (default) or once per session
  (``isolation="session"``, repeatable-read style) — through the shared
  pipeline and its warm caches. Snapshots are pinned under the commit
  lock, so every snapshot is a state that actually existed between two
  commits, never a torn mix; a read that waits in admission after
  planning still runs on the snapshot it planned on.
* **Writes serialize through a single-writer commit path.** DDL / INSERT
  / ANALYZE take the server's commit lock, execute, and append the
  resulting per-table version vector to :attr:`QueryServer.commit_log`
  — the ground truth the concurrency suite checks read snapshots
  against.
* **Admission control** (:mod:`repro.engine.server.admission`) charges
  each query's cost estimate against its tenant's work-quota token
  bucket before execution and settles the estimate against the measured
  ``total_work`` afterwards; over-quota queries wait in per-tenant
  queues granted round-robin, and are shed once
  :attr:`~repro.engine.config.EngineConfig.admission_queue_depth`
  queries are already waiting (at depth 0, at once).

The NeurDB-style split (PAPERS.md): the engine stays a fast
single-caller library; this layer owns sessions, scheduling, and
tenancy.
"""

import itertools
import threading

from repro.common import ExecutionError
from repro.engine.database import Database
from repro.engine.server.admission import AdmissionController
from repro.engine.session.agent import AgentSession
from repro.engine.session.context import (
    WRITE_STATEMENT_COST,
    ServerBackend,
    SessionContext,
    run_query_object,
)
from repro.engine.telemetry import ServingRollup, StatementTrace

#: Session isolation levels: pin a fresh snapshot per statement, or one
#: snapshot for the session's whole lifetime (repeatable read; read-only).
ISOLATION_LEVELS = ("statement", "session")


class Session:
    """One caller's handle on a :class:`QueryServer`.

    Sessions are cheap, thread-compatible handles (use one per thread;
    the server underneath is what's shared). Each carries a tenant name
    for admission accounting and an isolation level:

    * ``"statement"`` (default) — every SELECT pins a fresh snapshot, so
      reads observe each committed write exactly once it commits.
    * ``"session"`` — one snapshot pinned at open; every read sees that
      state forever (repeatable read). Writes are rejected, since the
      session could not read them back.
    """

    def __init__(self, server, tenant, isolation, session_id):
        if isolation not in ISOLATION_LEVELS:
            raise ExecutionError(
                "session isolation must be one of %r, got %r"
                % (ISOLATION_LEVELS, isolation)
            )
        self._server = server
        self.tenant = tenant
        self.isolation = isolation
        self.session_id = session_id
        self.last_admission = None
        self._pinned = (
            server.pin_snapshot() if isolation == "session" else None
        )
        self.closed = False
        # The context execute() unwraps: SELECTs take admission +
        # snapshot reads, everything else the single-writer commit path.
        self._context = SessionContext(
            server.db, backend=ServerBackend(server, self)
        )

    # -- statement surface ----------------------------------------------
    def execute(self, sql_text):
        """Run one SQL statement under this session's tenant.

        SELECTs go through admission control and execute against a
        snapshot; anything else serializes through the server's
        single-writer commit path. Returns what
        :meth:`Database.execute` would (an
        :class:`~repro.engine.executor.ExecutionResult` for SELECT, a
        status string otherwise).
        """
        return self._context.execute(sql_text).raw

    def session_context(self, policy=None, audit=None):
        """A :class:`SessionContext` over this session's tenant:
        statements flow through the same admission/commit paths, with
        the given policy checks and audit log on the route."""
        return SessionContext(
            self._server.db,
            backend=ServerBackend(self._server, self),
            policy=policy,
            audit=audit,
        )

    def query(self, sql_text):
        """Run one SELECT; returns just the rows."""
        result = self.execute(sql_text)
        return result.rows

    def run_query_object(self, query, order=None):
        """Run a structured :class:`ConjunctiveQuery` through admission
        and snapshot execution (the read path for query objects)."""
        return run_query_object(self._context.backend, query, order=order)

    def insert_rows(self, table, rows):
        """Bulk-append ``rows`` through the single-writer commit path.

        The programmatic write surface (the SQL INSERT literal syntax
        cannot express NULLs in bulk); charges the same write cost and
        logs the same commit as SQL writes. Returns the inserted count.
        """
        catalog = self._server.db.catalog
        return self._server._run_write(
            self, lambda: catalog.table(table).insert_rows(rows),
            StatementTrace())

    def snapshot_versions(self):
        """The per-table version vector this session currently reads.

        For ``"session"`` isolation, the pinned vector; for
        ``"statement"``, the live catalog's current vector (what the
        next statement would pin).
        """
        source = (self._pinned if self._pinned is not None
                  else self._server.db.catalog)
        return source.version_vector()

    def close(self):
        """Release the session (idempotent): every context and agent
        session over it stops at the server's read and write paths, and
        the server's rollup drops its per-session bucket."""
        self.closed = True
        self._pinned = None
        self._server.rollup.close_session(self.session_id)

    def _check_open(self):
        if self.closed:
            raise ExecutionError(
                "session %r is closed" % (self.session_id,)
            )

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.close()
        return False

    def __repr__(self):
        return "Session(%s, tenant=%r, isolation=%s%s)" % (
            self.session_id, self.tenant, self.isolation,
            ", closed" if self.closed else "",
        )


class QueryServer:
    """A concurrent, multi-tenant serving layer over one database.

    Args:
        db: the :class:`Database` to serve (one is built from ``config``
            when omitted).
        config: an :class:`~repro.engine.config.EngineConfig` — used to
            build ``db`` when none is given, and as the source of the
            admission knobs. Defaults to the database's own config.
        tenant_quota / quota_refill_rate: override the config's quota
            knobs (the queue depth is always the config's).
        admission_timeout: max seconds a query waits for admission.
        clock: injectable time source for quota refill (tests).

    Attributes:
        commit_log: ``[(seq, {table: version}), ...]`` — the per-table
            version vector after every commit through this server
            (entry 0 is the state at server construction). Because
            writes serialize through the commit lock and read snapshots
            are pinned under that same lock, **every** snapshot a
            session reads must equal one of these vectors — the
            no-torn-reads invariant the concurrency suite asserts.
        admission: the :class:`AdmissionController`.
        rollup: the :class:`~repro.engine.telemetry.ServingRollup` of
            per-tenant / per-open-session query accounting.
    """

    def __init__(self, db=None, config=None, *, tenant_quota=None,
                 quota_refill_rate=None, admission_timeout=30.0, clock=None):
        if db is None:
            db = Database(config=config)
        elif config is not None and config is not db.config:
            raise ExecutionError(
                "pass either an existing db or a config to build one, "
                "not both"
            )
        self.db = db
        config = db.config
        self.admission = AdmissionController(
            tenant_quota=(config.tenant_quota if tenant_quota is None
                          else tenant_quota),
            quota_refill_rate=(
                config.quota_refill_rate if quota_refill_rate is None
                else quota_refill_rate
            ),
            queue_depth=config.admission_queue_depth,
            timeout=admission_timeout,
            clock=clock,
        )
        self.rollup = ServingRollup()
        self._commit_lock = threading.RLock()
        self._session_ids = itertools.count(1)
        self._commit_seq = 0
        self.commit_log = [(0, dict(db.catalog.version_vector()))]

    # -- session surface -------------------------------------------------
    def session(self, tenant="default", isolation="statement"):
        """Open a :class:`Session` for ``tenant``."""
        session_id = "s%d" % next(self._session_ids)
        return Session(self, tenant, isolation, session_id)

    def execute(self, sql_text, tenant="default"):
        """One-shot convenience: run ``sql_text`` in an ephemeral
        statement-isolation session for ``tenant``."""
        with self.session(tenant=tenant) as session:
            return session.execute(sql_text)

    def agent_session(self, policy=None, audit=None, tenant="agent"):
        """Open an :class:`~repro.engine.session.agent.AgentSession`
        over this server: always audited, optionally policy-gated, with
        ``begin()``/``commit()``/``rollback()`` holding the commit lock
        so the whole transaction is atomic against every other session.
        """
        return AgentSession(self, policy=policy, audit=audit,
                            tenant=tenant)

    # -- read path --------------------------------------------------------
    def pin_snapshot(self):
        """An immutable catalog snapshot pinned **between commits**.

        Taking the commit lock for the pin is what guarantees a snapshot
        never interleaves with a half-applied write: its version vector
        always equals a committed state. Pins between two commits share
        one snapshot (``Catalog.snapshot()`` reuses it until the next
        mutation); the first pin after a commit builds it — O(#tables),
        plus O(#columns), never O(rows), per table written.
        """
        with self._commit_lock:
            return self.db.catalog.snapshot()

    def _admitted(self, session, trace, cost, run):
        """The bracket every served statement runs in: admit → ``run()``
        → settle, recorded as the trace's ``admission`` span.

        ``run`` returns ``(result, work)`` — what the caller gets and
        what the charge settles at (``None``: at the charge itself, a
        write's flat cost). A statement that fails after
        admission has its ticket refunded and reads ``"error"``; one
        admission refuses reads ``"shed"``. The trace is closed and
        observed by the rollup on every exit, so the rollup and the
        admission counters count the same statements.
        """
        root = trace.root
        root.attrs["tenant"] = session.tenant
        root.attrs["session"] = session.session_id
        span = root.child("admission")
        session.last_admission = ticket = None
        try:
            with span:
                ticket = self.admission.admit(session.tenant, cost)
            session.last_admission = ticket
            span.attrs.update(outcome=ticket.outcome, cost=ticket.cost,
                              queue_wait=ticket.queue_wait)
            result, work = run()
            if work is None:
                work = ticket.cost
            self.admission.settle(ticket, work)
            span.attrs["settled"] = work
            return result
        except Exception:
            span.attrs["outcome"] = "shed" if ticket is None else "error"
            if ticket is not None:
                self.admission.cancel(ticket)
            raise
        finally:
            root.close()
            self.rollup.observe(trace)

    def _run_read(self, session, prepared):
        """Admission → execution on the snapshot the read planned on →
        settlement (at the run's measured work)."""
        session._check_open()

        def run():
            result = self.db.pipeline.execute_prepared(prepared)
            return result, result.work

        return self._admitted(session, prepared.trace, prepared.est_cost, run)

    # -- write path --------------------------------------------------------
    def _run_write(self, session, apply, trace):
        """The single-writer commit path: admit → lock → apply → log →
        settle. ``apply`` is the write itself, a zero-argument callable
        run under the commit lock — a classified SQL statement
        (:meth:`ServerBackend.write`) or bulk rows
        (:meth:`Session.insert_rows`); its return value is the write's.
        Writes settle at their flat charge, :data:`WRITE_STATEMENT_COST`
        (there is no plan to measure).
        """
        session._check_open()
        if session.isolation == "session":
            raise ExecutionError(
                "session-isolation sessions are read-only (their pinned "
                "snapshot could never observe the write)"
            )

        def commit():
            with self._commit_lock:
                result = apply()
                self._commit_seq += 1
                self.commit_log.append(
                    (self._commit_seq,
                     dict(self.db.catalog.version_vector()))
                )
            return result, None

        return self._admitted(session, trace, WRITE_STATEMENT_COST, commit)

    # -- introspection ----------------------------------------------------
    def commit_history(self):
        """A copy of the commit log: ``[(seq, {table: version}), ...]``."""
        with self._commit_lock:
            return [(seq, dict(vec)) for seq, vec in self.commit_log]

    def committed_vectors(self):
        """The set of committed version vectors, as hashable items."""
        with self._commit_lock:
            return {
                tuple(sorted(vec.items())) for __, vec in self.commit_log
            }

    def stats(self):
        """JSON-friendly server snapshot: admission counters, rollups,
        commit count, plan-cache stats."""
        return {
            "admission": self.admission.stats(),
            "rollup": self.rollup.summary(),
            "commits": self._commit_seq,
            "plan_cache": self.db.pipeline.plan_cache.stats(),
        }

    def __repr__(self):
        return "QueryServer(commits=%d)" % self._commit_seq
