"""The multi-tenant serving layer over the engine.

``repro.engine.server`` is the first layer that makes the engine a
multi-user *system* rather than a library: concurrent sessions, MVCC
snapshot reads against the PR 7 catalog snapshots, a single-writer
commit path with a version-vector commit log, per-tenant work-quota
admission control (per-tenant queues granted round-robin, shedding past a
queue depth). See ``DESIGN.md`` ("Multi-tenant serving & admission
control") and ``README.md`` ("Serving layer").
"""

from repro.engine.server.admission import (
    AdmissionController,
    AdmissionError,
    AdmissionTicket,
    TokenBucket,
)
from repro.engine.server.server import (
    ISOLATION_LEVELS,
    QueryServer,
    Session,
)

__all__ = [
    "AdmissionController",
    "AdmissionError",
    "AdmissionTicket",
    "TokenBucket",
    "ISOLATION_LEVELS",
    "QueryServer",
    "Session",
]
