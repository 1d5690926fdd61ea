"""AgentSession: the safety-gated handle for autonomous callers.

LLM agents (and any untrusted automation) need more than an API — they
need a *blast radius*. An :class:`AgentSession` wraps any engine entry
point (an embedded :class:`~repro.engine.database.Database` or a
:class:`~repro.engine.server.QueryServer`, duck-typed) with the full
session stack plus transactional undo:

* every statement is policy-gated and audit-logged (the
  :class:`~repro.engine.session.context.SessionContext` machinery);
* :meth:`dry_run` plans a whole script — AISQL included — without
  executing a byte;
* :meth:`begin` pins the catalog's state as a
  :class:`~repro.engine.catalog.CatalogSnapshot`, :meth:`rollback`
  restores it **bit-identically** (rows, versions, stats, indexes,
  views), and :meth:`commit` keeps what happened since.

Rollback restores catalog state only. Out-of-catalog side effects —
most notably models registered in an AISQL ``ModelRegistry`` — are not
undone (document-and-accept: the registry is an extension object the
engine cannot see).

Server mode: :meth:`begin` takes the server's commit lock (an RLock —
per-statement writes inside the transaction re-enter it) and holds it
until :meth:`commit`/:meth:`rollback`, so the multi-statement mutation
is atomic with respect to every other session: readers pin snapshots
under that same lock and can never observe a half-applied transaction.
Rollback appends a commit-log entry carrying the restored vector, so
the post-rollback state is a committed state and the serving layer's
no-torn-reads invariant (every pinned snapshot equals a logged vector)
keeps holding.
"""

from repro.engine.errors import SessionError
from repro.engine.session.audit import AuditLog
from repro.engine.session.context import (
    LocalBackend,
    ServerBackend,
    SessionContext,
)


class AgentSession(SessionContext):
    """A gated, audited, rollback-capable session over db or server.

    Args:
        target: a :class:`~repro.engine.database.Database`, or anything
            server-shaped (``pin_snapshot``/``_run_read``/``_run_write``
            — a :class:`~repro.engine.server.QueryServer`).
        policy: optional :class:`~repro.engine.session.policy.Policy`.
        audit: the session's audit log (one is created when omitted —
            agent sessions always audit).
        tenant: admission tenant for server targets.

    Usable as a context manager: entering begins a transaction, a clean
    exit commits, an exception rolls back — so a misbehaving script is
    fully undone::

        with db.agent_session(policy=Policy.read_only()) as agent:
            agent.run_script(script)   # raises → every effect reverted
    """

    def __init__(self, target, policy=None, audit=None, tenant="agent"):
        self._server = None
        self._server_session = None
        if hasattr(target, "pin_snapshot"):
            self._server = target
            self._server_session = target.session(tenant=tenant)
            db = target.db
            backend = ServerBackend(target, self._server_session)
        else:
            db = target
            backend = LocalBackend(db)
        super().__init__(
            db, backend=backend, policy=policy,
            audit=audit if audit is not None else AuditLog(),
        )
        self._pinned = None

    # -- transaction surface ---------------------------------------------
    @property
    def in_transaction(self):
        """Whether :meth:`begin` is active (uncommitted)."""
        return self._pinned is not None

    def begin(self):
        """Pin the catalog's current state (a snapshot) as the undo target.

        Server mode additionally takes the server's commit lock, holding
        it until :meth:`commit`/:meth:`rollback` — the transaction is
        one atomic unit in the commit history.
        """
        if self._pinned is not None:
            raise SessionError(
                "a transaction is already active (nested begin() is not "
                "supported)")
        if self._server is not None:
            self._server._commit_lock.acquire()
        try:
            self._pinned = self.db.catalog.snapshot()
        except BaseException:
            if self._server is not None:
                self._server._commit_lock.release()
            raise
        self._meta("BEGIN")
        return self

    def commit(self):
        """Keep everything since :meth:`begin`; discard the undo state."""
        self._require_transaction()
        self._pinned = None
        self._meta("COMMIT")
        if self._server is not None:
            self._server._commit_lock.release()

    def rollback(self):
        """Restore the exact pre-:meth:`begin` state.

        Physically rewinds every table (rows, sealed groups, tail),
        catalog metadata (stats, indexes, views), and the per-table
        version vector — the one sanctioned case of versions moving
        backward. In server mode the restored vector is appended to the
        commit log so the post-rollback state is a committed state, and
        the commit lock is released.
        """
        self.db.catalog.restore(self._require_transaction())
        self._pinned = None
        self._meta("ROLLBACK")
        if self._server is not None:
            server = self._server
            server._commit_seq += 1
            server.commit_log.append(
                (server._commit_seq,
                 dict(self.db.catalog.version_vector())))
            server._commit_lock.release()

    def _require_transaction(self):
        if self._pinned is None:
            raise SessionError(
                "no transaction is active (call begin() first)")
        return self._pinned

    def _meta(self, kind):
        """Audit a transaction-control event alongside the statements."""
        if self.audit is not None:
            self.audit.record(
                kind, kind, "allow", "transaction", "ok",
                versions=self._versions())

    # -- lifecycle -------------------------------------------------------
    def close(self):
        """Roll back any open transaction and release server resources."""
        if self._pinned is not None:
            self.rollback()
        if self._server_session is not None:
            self._server_session.close()

    def __enter__(self):
        self.begin()
        return self

    def __exit__(self, exc_type, exc, tb):
        try:
            if exc_type is None:
                self.commit()
            else:
                self.rollback()
        finally:
            if self._server_session is not None:
                self._server_session.close()
        return False

    def __repr__(self):
        mode = "server" if self._server is not None else "db"
        return "AgentSession(%s%s%s)" % (
            mode,
            ", in_transaction" if self.in_transaction else "",
            (", %r" % self.policy) if self.policy is not None else "")
