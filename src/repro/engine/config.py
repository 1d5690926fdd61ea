"""The consolidated engine configuration surface.

:class:`EngineConfig` is the single owner of every engine knob: a frozen
dataclass whose instances fully determine how a
:class:`~repro.engine.database.Database` is wired (cost constants,
storage, admission). A knob that can be set from the environment says so
on its field — the ``REPRO_*`` name, the parser and the floor are
:func:`dataclasses.field` metadata — and :meth:`EngineConfig.from_env`
is the one function in the engine that reads the environment, by walking
those fields. The README's "Engine knobs" table lists every variable
with its default (a test keeps it in step with the metadata).

This module sits at the bottom of the engine's import graph (it imports
only :mod:`repro.common`).
"""

import os
from dataclasses import dataclass, field, fields, replace

from repro.common import ExecutionError

#: Default capacity of one sealed column segment, in rows.
DEFAULT_SEGMENT_ROWS = 65536

#: Hard floor on the segment size knob — smaller segments are all overhead.
MIN_SEGMENT_ROWS = 16

#: Encodings a segment may be sealed with (order is documentation only;
#: the selection rules live in :func:`repro.engine.segments.choose_encoding`).
SEGMENT_ENCODINGS = ("plain", "dict")

#: Default encoding set offered to the encoder at seal time.
DEFAULT_SEGMENT_ENCODINGS = ("dict", "plain")

#: Default per-tenant token-bucket capacity, in work units (the executor's
#: deterministic ``work`` measurement is the admission currency).
DEFAULT_TENANT_QUOTA = 200_000.0

#: Default token-bucket refill rate, in work units per second.
DEFAULT_QUOTA_REFILL = 100_000.0

#: Default bound on queries waiting for admission across all tenants
#: (0: an over-quota query is shed at once, never queued).
DEFAULT_ADMISSION_QUEUE_DEPTH = 256

def _names(raw):
    """A comma-separated name list (``dict,plain``) as a lowercase tuple."""
    return tuple(p.strip().lower() for p in raw.split(",") if p.strip())


def check_encodings(names, error=ExecutionError):
    """``names`` as a tuple, or ``error`` when one is not among
    :data:`SEGMENT_ENCODINGS` — the one validity rule for an encoding
    set, wherever it is given."""
    names = tuple(names)
    unknown = set(names) - set(SEGMENT_ENCODINGS)
    if unknown:
        raise error("segment_encodings must be among %r, got %r"
                    % (SEGMENT_ENCODINGS, sorted(unknown)))
    return names


def _env(name, parse, floor=None):
    """Field metadata binding a knob to its ``REPRO_*`` variable.

    ``parse`` turns the stripped, non-empty text into the field's value
    (a ``ValueError`` is reported against the variable's name); ``floor``
    clamps numeric knobs whose small values are all overhead. Range and
    membership checks are ``EngineConfig.__post_init__``'s, so a value
    is judged the same wherever it came from.
    """
    return {"env": name, "parse": parse, "floor": floor}


@dataclass(frozen=True)
class EngineConfig:
    """Every engine knob, in one immutable value.

    ``Database(config=EngineConfig(...))`` is the primary constructor
    surface; ``Database(knob=value, ...)`` forwards its keywords to
    :meth:`from_env`, so both spellings construct identical engines.
    Instances are frozen — derive variants with :meth:`with_changes`.

    Attributes:
        cost_params: overrides for cost-model constants (or ``None``).
        segment_rows: capacity of one sealed column segment, in rows.
            Appends accumulate in a mutable tail that seals into an
            immutable, encoded segment once it reaches this size.
        segment_encodings: encodings the sealer may choose among
            (subset of ``("plain", "dict")``); ``plain`` is
            always a legal fallback even when omitted.
        tenant_quota: per-tenant token-bucket capacity in work units —
            the deterministic executor ``work`` each admitted query
            charges its cost estimate against.
        quota_refill_rate: token-bucket refill rate, work units/second.
        admission_queue_depth: bound on queries waiting for admission
            across all tenants (each waits in its tenant's queue, granted
            round-robin); arrivals beyond it are shed, so ``0`` sheds
            every over-quota query at once.
    """

    cost_params: dict = field(default=None)
    segment_rows: int = field(
        default=DEFAULT_SEGMENT_ROWS,
        metadata=_env("REPRO_SEGMENT_ROWS", int, floor=MIN_SEGMENT_ROWS))
    segment_encodings: tuple = field(
        default=DEFAULT_SEGMENT_ENCODINGS,
        metadata=_env("REPRO_SEGMENT_ENCODINGS", _names))
    tenant_quota: float = field(
        default=DEFAULT_TENANT_QUOTA,
        metadata=_env("REPRO_TENANT_QUOTA", float))
    quota_refill_rate: float = field(
        default=DEFAULT_QUOTA_REFILL,
        metadata=_env("REPRO_QUOTA_REFILL", float))
    admission_queue_depth: int = field(
        default=DEFAULT_ADMISSION_QUEUE_DEPTH,
        metadata=_env("REPRO_ADMISSION_QUEUE_DEPTH", int, floor=0))

    def __post_init__(self):
        if float(self.tenant_quota) <= 0:
            raise ExecutionError("tenant_quota must be > 0")
        if float(self.quota_refill_rate) < 0:
            raise ExecutionError("quota_refill_rate must be >= 0")
        if int(self.admission_queue_depth) < 0:
            raise ExecutionError("admission_queue_depth must be >= 0")
        if int(self.segment_rows) < 1:
            raise ExecutionError("segment_rows must be >= 1")
        object.__setattr__(self, "segment_encodings",
                           check_encodings(self.segment_encodings))
        if self.cost_params is not None:
            # Copy so a caller-held dict cannot mutate a frozen config.
            object.__setattr__(self, "cost_params", dict(self.cost_params))

    @classmethod
    def from_env(cls, **overrides):
        """A config resolved from the ``REPRO_*`` environment variables.

        This is the *only* place the engine reads its environment: every
        field whose metadata names a variable is looked up, parsed and
        floored here. Keyword ``overrides`` (ignored when ``None``) beat
        the environment, which beats the dataclass defaults; a name that
        is not a field raises ``TypeError`` like any unknown keyword.
        """
        values = {k: v for k, v in overrides.items() if v is not None}
        for knob in fields(cls):
            meta = knob.metadata
            if "env" not in meta or knob.name in values:
                continue
            raw = os.environ.get(meta["env"], "").strip()
            if not raw:
                continue
            try:
                value = meta["parse"](raw)
            except ValueError:
                raise ExecutionError(
                    "%s: cannot parse %r" % (meta["env"], raw))
            if meta["floor"] is not None:
                value = max(meta["floor"], value)
            values[knob.name] = value
        return cls(**values)

    def with_changes(self, **changes):
        """A copy of this config with ``changes`` applied (frozen-safe)."""
        return replace(self, **changes)
