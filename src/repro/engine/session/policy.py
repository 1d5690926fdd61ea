"""Per-session safety policies: what a caller may touch, and how much.

The Baihe position paper (PAPERS.md) argues AI components must sit
*outside* the core engine behind narrow, guarded interfaces. A
:class:`Policy` is that guard for one session: statement-kind gates
("SELECT only", "no DDL"), table and column allow/deny lists, and
row / cost ceilings. Policies are declarative and engine-agnostic —
the :class:`~repro.engine.session.context.SessionContext` evaluates
them against the *lowered* statement (real tables and columns, not
text), so a denied column is caught wherever it appears: projection,
WHERE predicate, aggregate argument, grouping or ordering key, or an
AISQL feature list.

Every check returns a :class:`PolicyDecision` naming the rule that
fired, which is what the audit log records and what
:class:`~repro.engine.errors.PolicyError` carries.
"""

from repro.engine.errors import PolicyError

#: Statement kinds the session layer classifies (extension statements —
#: the AISQL heads — included so policies can gate them like native SQL).
STATEMENT_KINDS = (
    "SELECT",
    "INSERT",
    "CREATE TABLE",
    "CREATE INDEX",
    "ANALYZE",
    "CREATE MODEL",
    "PREDICT",
    "EVALUATE",
    "UNKNOWN",
)

#: Kinds that mutate catalog state (what ``read_only`` forbids).
WRITE_KINDS = frozenset({"INSERT", "CREATE TABLE", "CREATE INDEX",
                         "ANALYZE", "CREATE MODEL"})


class PolicyDecision:
    """The verdict of one policy check.

    Attributes:
        allowed: whether the statement may proceed.
        rule: short machine-readable name of the rule that decided —
            ``"default"`` for an unconditional allow, else e.g.
            ``"statement-kind"``, ``"table-deny"``, ``"column-deny"``,
            ``"row-limit"``, ``"cost-limit"``.
        reason: human-readable explanation (audit-log material).
    """

    __slots__ = ("allowed", "rule", "reason")

    ALLOW_RULE = "default"

    def __init__(self, allowed, rule=ALLOW_RULE, reason=""):
        self.allowed = bool(allowed)
        self.rule = rule
        self.reason = reason

    @classmethod
    def allow(cls, rule=ALLOW_RULE, reason=""):
        return cls(True, rule, reason)

    @classmethod
    def deny(cls, rule, reason):
        return cls(False, rule, reason)

    @property
    def verdict(self):
        """``"allow"`` or ``"deny"`` (the audit log's spelling)."""
        return "allow" if self.allowed else "deny"

    def raise_if_denied(self, sql=None):
        """Raise :class:`PolicyError` when denied; return self otherwise."""
        if not self.allowed:
            prefix = "policy denied statement"
            if sql:
                prefix += " %r" % (" ".join(sql.split())[:80],)
            raise PolicyError(
                "%s: %s (%s)" % (prefix, self.reason, self.rule),
                decision=self,
            )
        return self

    def __bool__(self):
        return self.allowed

    def __repr__(self):
        return "PolicyDecision(%s, rule=%r)" % (self.verdict, self.rule)


def _norm_tables(tables):
    return None if tables is None else {t.lower() for t in tables}


def _norm_columns(columns):
    """Column specs: bare ``"col"`` (any table) or ``"table.col"``."""
    return None if columns is None else {c.lower() for c in columns}


class Policy:
    """A declarative safety policy for one session.

    Args:
        statement_kinds: iterable of allowed kinds from
            :data:`STATEMENT_KINDS` (``None`` allows every kind). A
            statement whose kind cannot be classified is ``"UNKNOWN"`` —
            listing it explicitly is the only way to allow unclassifiable
            statements through a gated session.
        allow_tables: table allow-list (``None`` = all tables).
        deny_tables: table deny-list (checked before the allow-list).
        allow_columns: column allow-list (``None`` = all columns); specs
            are ``"column"`` or ``"table.column"``, case-insensitive.
        deny_columns: column deny-list (checked before the allow-list).
        max_rows: ceiling on a statement's row count — result rows for
            reads (enforced after execution), inserted rows for INSERT
            (enforced before).
        max_cost: ceiling on the planner's estimated cost for one
            statement (enforced before execution, when an estimate
            exists — SELECTs always, an extension statement (AISQL)
            when its description carries a feature query).

    Policies are immutable in spirit: build a new one per session rather
    than mutating a shared instance mid-flight.
    """

    __slots__ = ("statement_kinds", "allow_tables", "deny_tables",
                 "allow_columns", "deny_columns", "max_rows", "max_cost")

    def __init__(self, *, statement_kinds=None, allow_tables=None,
                 deny_tables=(), allow_columns=None, deny_columns=(),
                 max_rows=None, max_cost=None):
        if statement_kinds is not None:
            kinds = {k.upper() for k in statement_kinds}
            unknown = kinds - set(STATEMENT_KINDS)
            if unknown:
                raise PolicyError(
                    "unknown statement kinds in policy: %s (kinds: %s)"
                    % (", ".join(sorted(unknown)),
                       ", ".join(STATEMENT_KINDS))
                )
            self.statement_kinds = frozenset(kinds)
        else:
            self.statement_kinds = None
        self.allow_tables = _norm_tables(allow_tables)
        self.deny_tables = _norm_tables(deny_tables) or set()
        self.allow_columns = _norm_columns(allow_columns)
        self.deny_columns = _norm_columns(deny_columns) or set()
        if max_rows is not None and max_rows < 0:
            raise PolicyError("max_rows must be >= 0")
        if max_cost is not None and max_cost <= 0:
            raise PolicyError("max_cost must be > 0")
        self.max_rows = max_rows
        self.max_cost = max_cost

    # -- constructors ----------------------------------------------------
    @classmethod
    def read_only(cls, **kwargs):
        """A SELECT-only policy (plus any extra restrictions)."""
        kwargs.setdefault("statement_kinds", ("SELECT",))
        return cls(**kwargs)

    @classmethod
    def unrestricted(cls):
        """The allow-everything policy (useful as an explicit default)."""
        return cls()

    # -- checks ----------------------------------------------------------
    def _check_column(self, table, column):
        qualified = "%s.%s" % (table.lower(), column.lower())
        bare = column.lower()
        if qualified in self.deny_columns or bare in self.deny_columns:
            return PolicyDecision.deny(
                "column-deny", "column %s is denied" % qualified
            )
        if self.allow_columns is not None and (
            qualified not in self.allow_columns
            and bare not in self.allow_columns
        ):
            return PolicyDecision.deny(
                "column-allow", "column %s is not on the allow-list"
                % qualified
            )
        return None

    def check_statement(self, info):
        """Gate one classified statement (pre-execution).

        Args:
            info: a :class:`~repro.engine.session.context.StatementInfo`
                (kind + referenced tables/columns, as deep as
                classification could see).

        Returns:
            a :class:`PolicyDecision`.
        """
        kind = info.kind
        if self.statement_kinds is not None and kind not in \
                self.statement_kinds:
            return PolicyDecision.deny(
                "statement-kind",
                "statement kind %s is not allowed (allowed: %s)"
                % (kind, ", ".join(sorted(self.statement_kinds)))
            )
        for table in info.tables:
            key = table.lower()
            if key in self.deny_tables:
                return PolicyDecision.deny(
                    "table-deny", "table %s is denied" % key
                )
            if self.allow_tables is not None and key not in \
                    self.allow_tables:
                return PolicyDecision.deny(
                    "table-allow",
                    "table %s is not on the allow-list" % key
                )
        for table, column in info.columns:
            denied = self._check_column(table, column)
            if denied is not None:
                return denied
        if (self.max_rows is not None and kind == "INSERT"
                and info.row_estimate is not None
                and info.row_estimate > self.max_rows):
            return PolicyDecision.deny(
                "row-limit",
                "INSERT of %d rows exceeds the %d-row limit"
                % (info.row_estimate, self.max_rows)
            )
        return PolicyDecision.allow()

    def check_cost(self, est_cost):
        """Gate one statement's planner cost estimate (pre-execution)."""
        if (self.max_cost is not None and est_cost is not None
                and est_cost > self.max_cost):
            return PolicyDecision.deny(
                "cost-limit",
                "estimated cost %.1f exceeds the %.1f ceiling"
                % (est_cost, self.max_cost)
            )
        return PolicyDecision.allow()

    def check_result_rows(self, n_rows):
        """Gate a read's realized result size (post-execution)."""
        if self.max_rows is not None and n_rows > self.max_rows:
            return PolicyDecision.deny(
                "row-limit",
                "result of %d rows exceeds the %d-row limit"
                % (n_rows, self.max_rows)
            )
        return PolicyDecision.allow()

    def describe(self):
        """A JSON-friendly dict of the policy's rules (audit material)."""
        return {
            "statement_kinds": (
                None if self.statement_kinds is None
                else sorted(self.statement_kinds)
            ),
            "allow_tables": (None if self.allow_tables is None
                             else sorted(self.allow_tables)),
            "deny_tables": sorted(self.deny_tables),
            "allow_columns": (None if self.allow_columns is None
                              else sorted(self.allow_columns)),
            "deny_columns": sorted(self.deny_columns),
            "max_rows": self.max_rows,
            "max_cost": self.max_cost,
        }

    def __repr__(self):
        gates = []
        if self.statement_kinds is not None:
            gates.append("kinds=%s" % ",".join(sorted(self.statement_kinds)))
        if self.allow_tables is not None:
            gates.append("allow_tables=%d" % len(self.allow_tables))
        if self.deny_tables:
            gates.append("deny_tables=%d" % len(self.deny_tables))
        if self.allow_columns is not None:
            gates.append("allow_columns=%d" % len(self.allow_columns))
        if self.deny_columns:
            gates.append("deny_columns=%d" % len(self.deny_columns))
        if self.max_rows is not None:
            gates.append("max_rows=%d" % self.max_rows)
        if self.max_cost is not None:
            gates.append("max_cost=%.1f" % self.max_cost)
        return "Policy(%s)" % (", ".join(gates) or "unrestricted")
