"""The session layer: one gated surface over every engine entry point.

``repro.engine.session`` unifies the embedded (:class:`Database`),
snapshot (:meth:`Database.snapshot`), and served
(:class:`QueryServer`) calling conventions behind
:class:`SessionContext`, and adds the safety stack autonomous callers
need: declarative :class:`Policy` gates, an append-only
:class:`AuditLog`, script :meth:`~SessionContext.dry_run` planning, and
— via :class:`AgentSession` — transactional begin/commit/rollback built
on ``Catalog.snapshot()`` / ``Catalog.restore(snapshot)``.
"""

from repro.engine.session.agent import AgentSession
from repro.engine.session.audit import AuditLog, AuditRecord
from repro.engine.session.context import (
    DryRunReport,
    LocalBackend,
    ServerBackend,
    SessionContext,
    SessionResult,
    SnapshotBackend,
    StatementInfo,
    StatementPreview,
    classify,
    sniff_kind,
    split_script,
)
from repro.engine.session.policy import (
    STATEMENT_KINDS,
    Policy,
    PolicyDecision,
)

__all__ = [
    "AgentSession",
    "AuditLog",
    "AuditRecord",
    "DryRunReport",
    "LocalBackend",
    "Policy",
    "PolicyDecision",
    "STATEMENT_KINDS",
    "ServerBackend",
    "SessionContext",
    "SessionResult",
    "SnapshotBackend",
    "StatementInfo",
    "StatementPreview",
    "classify",
    "sniff_kind",
    "split_script",
]
