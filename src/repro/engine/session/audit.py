"""Session audit log: every statement, its policy verdict, and its cost.

The AI4DB survey's governance thread (and the queryclaw-style agent
tooling it motivates) wants a *complete, queryable* trace of what an
agent did to the database: the SQL text, whether policy allowed it,
what the planner predicted it would cost, and what it actually cost.
:class:`AuditLog` is that trace. Records are appended for every
statement a gated session sees — including ones that were denied or
that failed mid-execution — and :meth:`AuditLog.attach` materializes
the log as an ordinary engine table so it can be queried with the
same SQL surface it audits.
"""

from repro.engine.storage import Table
from repro.engine.types import ColumnSchema, DataType, TableSchema

#: Statuses a record can carry.
AUDIT_STATUSES = ("ok", "error", "denied")


class AuditRecord:
    """One audited statement.

    Attributes:
        seq: position in the session's statement stream (1-based).
        sql: the raw statement text.
        kind: classified statement kind (``"SELECT"`` etc.).
        decision: ``"allow"`` or ``"deny"`` (the policy verdict).
        rule: the policy rule that decided (``"default"`` when no
            policy is installed).
        status: ``"ok"`` / ``"error"`` / ``"denied"``.
        error: the exception message when status is not ``"ok"``.
        est_cost: planner cost estimate, when one existed pre-execution.
        actual_work: the run's measured ``total_work`` (the digest's).
        n_rows: rows returned (reads) or ingested (writes).
        versions: the per-table version vector observed *after* the
            statement (dict, copied).
        telemetry: the statement trace's
            :meth:`~repro.engine.telemetry.StatementTrace.brief` digest
            (``None`` unless a plan ran to completion) — the log keeps
            these numbers, never the tree.
    """

    __slots__ = ("seq", "sql", "kind", "decision", "rule", "status",
                 "error", "est_cost", "actual_work", "n_rows",
                 "versions", "telemetry")

    def __init__(self, seq, sql, kind, decision, rule, status,
                 error=None, est_cost=None, actual_work=None,
                 n_rows=None, versions=None, telemetry=None):
        self.seq = seq
        self.sql = sql
        self.kind = kind
        self.decision = decision
        self.rule = rule
        self.status = status
        self.error = error
        self.est_cost = est_cost
        self.actual_work = actual_work
        self.n_rows = n_rows
        self.versions = dict(versions) if versions else {}
        self.telemetry = telemetry

    def as_dict(self):
        return {
            "seq": self.seq,
            "sql": self.sql,
            "kind": self.kind,
            "decision": self.decision,
            "rule": self.rule,
            "status": self.status,
            "error": self.error,
            "est_cost": self.est_cost,
            "actual_work": self.actual_work,
            "n_rows": self.n_rows,
            "versions": dict(self.versions),
            "telemetry": self.telemetry,
        }

    def __repr__(self):
        return "AuditRecord(seq=%d, kind=%s, decision=%s, status=%s)" % (
            self.seq, self.kind, self.decision, self.status)


#: Column layout of the materialized audit table (versions are rendered
#: as a stable ``table=version`` comma string so the log stays queryable
#: with the engine's scalar types).
AUDIT_TABLE_COLUMNS = (
    ("seq", DataType.INT),
    ("kind", DataType.TEXT),
    ("decision", DataType.TEXT),
    ("rule", DataType.TEXT),
    ("status", DataType.TEXT),
    ("sql", DataType.TEXT),
    ("error", DataType.TEXT),
    ("est_cost", DataType.FLOAT),
    ("actual_work", DataType.FLOAT),
    ("n_rows", DataType.INT),
    ("versions", DataType.TEXT),
)


class AuditLog:
    """Append-only log of everything a session executed (or tried to).

    The log lives *outside* the catalog so a session rollback never
    erases the record of what was rolled back; :meth:`attach` snapshots
    it into a catalog table on demand.
    """

    def __init__(self):
        self._records = []

    # -- write side ------------------------------------------------------
    def append(self, record):
        self._records.append(record)
        return record

    def record(self, sql, kind, decision, rule, status, trace=None,
               **fields):
        """Build + append an :class:`AuditRecord` with the next seq;
        ``trace`` is the statement's (closed) trace, digested here."""
        digest = None if trace is None else trace.brief()
        rec = AuditRecord(
            seq=len(self._records) + 1, sql=sql, kind=kind,
            decision=decision, rule=rule, status=status, telemetry=digest,
            actual_work=digest and digest["total_work"], **fields)
        return self.append(rec)

    # -- read side -------------------------------------------------------
    def records(self):
        """A snapshot list of all records, in statement order."""
        return list(self._records)

    def __len__(self):
        return len(self._records)

    def __iter__(self):
        return iter(list(self._records))

    def __getitem__(self, idx):
        return self._records[idx]

    def tail(self, n=5):
        return self._records[-n:]

    def denied(self):
        return [r for r in self._records if r.decision == "deny"]

    def failed(self):
        return [r for r in self._records if r.status == "error"]

    # -- materialization -------------------------------------------------
    def to_table(self, name="session_audit"):
        """Materialize the log as an engine :class:`Table`.

        Numeric columns are NOT NULL (columnar storage holds dense
        int64/float64 arrays): unknown ``est_cost``/``actual_work``/
        ``n_rows`` materialize as ``-1``; a missing ``error`` as ``''``.
        """
        schema = TableSchema(name, [
            ColumnSchema(col, dtype) for col, dtype in AUDIT_TABLE_COLUMNS
        ])
        table = Table(schema)
        rows = []
        for r in self._records:
            versions = ",".join(
                "%s=%d" % (t, v) for t, v in sorted(r.versions.items()))
            rows.append((
                r.seq, r.kind, r.decision, r.rule, r.status, r.sql,
                r.error if r.error is not None else "",
                r.est_cost if r.est_cost is not None else -1.0,
                r.actual_work if r.actual_work is not None else -1.0,
                r.n_rows if r.n_rows is not None else -1,
                versions,
            ))
        if rows:
            table.insert_rows(rows)
        return table

    def attach(self, catalog, name="session_audit"):
        """Register (or refresh) the materialized log in a catalog.

        Replaces any previous attachment under the same name so the
        table always reflects the log at call time.
        """
        if catalog.has_table(name):
            catalog.drop_table(name)
        table = self.to_table(name)
        catalog.register_table(table)
        return table

    def __repr__(self):
        return "AuditLog(%d records, %d denied, %d failed)" % (
            len(self._records), len(self.denied()), len(self.failed()))
