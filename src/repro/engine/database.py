"""The :class:`Database` façade: SQL in, rows out.

Ties the front end (parser + lowering), the planner and the executor
together behind an explicit staged
:class:`~repro.engine.pipeline.QueryPipeline`
(parse → lower → plan → execute, with a plan cache keyed on the
full query signature and checked against the per-table plan versions
of the tables the query reads). Construction is driven by one
frozen :class:`~repro.engine.config.EngineConfig` — pass one via
``Database(config=...)``, or name individual knobs as keyword arguments
and :meth:`EngineConfig.from_env` builds it (both spellings wire
identical engines).

The AI4DB and DB4AI layers attach from outside:

* ``pipeline.extensions`` — objects that ``describe`` and ``run``
  statements the native parser does not own; the AISQL declarative
  layer registers its ``CREATE MODEL``/``PREDICT``/``EVALUATE`` handler
  here.
* ``planner`` attributes — the estimator and cost model are swappable
  (call ``db.pipeline.invalidate()`` after swapping either in place,
  since the plan cache cannot observe such mutations).
* join orders — the planner's own is Selinger DP; any other (greedy,
  random, UES, a learned agent's) runs as an explicit ``order=`` through
  :meth:`Database.run_query_object`, keyed in the plan cache.
* query objects — a rewriter (E4's rule library) rewrites a
  :class:`~repro.engine.query.ConjunctiveQuery` and runs the result with
  :meth:`Database.run_query_object`.

Every statement takes the one route of a :class:`~repro.engine.session.
context.SessionContext` — :meth:`Database.execute` unwraps the result of
a context with no policy and no audit log, and :meth:`Database.session`
/ :meth:`Database.agent_session` hand out contexts with per-session
policy, audit, dry-run, and (for agent sessions) transactional rollback.
"""

from repro.common import ReproError
from repro.engine.catalog import Catalog
from repro.engine.config import EngineConfig
from repro.engine.executor import Executor
from repro.engine.optimizer.cost import CostModel
from repro.engine.optimizer.planner import Planner
from repro.engine.pipeline import QueryPipeline
from repro.engine.session.agent import AgentSession
from repro.engine.session.context import (
    SessionContext,
    SnapshotBackend,
    run_query_object,
)


class Database:
    """An in-memory database instance.

    Args:
        config: an :class:`~repro.engine.config.EngineConfig` fully
            describing the engine (the primary constructor surface).
            Mutually exclusive with knob keyword arguments.
        **overrides: :class:`~repro.engine.config.EngineConfig` fields by
            name (``segment_rows=4096``, ``tenant_quota=1e6``, ...),
            forwarded to :meth:`EngineConfig.from_env`: a knob left out
            or passed as ``None`` takes its ``REPRO_*`` variable, else
            the field default. An unknown name raises.
    """

    def __init__(self, config=None, **overrides):
        if config is None:
            config = EngineConfig.from_env(**overrides)
        elif overrides:
            raise ReproError(
                "pass engine knobs either via config= or as keyword "
                "arguments, not both (got config plus: %s)"
                % ", ".join(sorted(overrides))
            )
        elif not isinstance(config, EngineConfig):
            raise ReproError(
                "config must be an EngineConfig, got %r" % (config,)
            )
        self._config = config
        self.catalog = Catalog(
            segment_rows=config.segment_rows,
            segment_encodings=config.segment_encodings,
        )
        self.cost_model = CostModel(config.cost_params)
        self.planner = Planner(self.catalog, cost_model=self.cost_model)
        self.executor = Executor(self.catalog, self.cost_model)
        self.pipeline = QueryPipeline(self)
        # The context Database.execute unwraps: no policy, no audit log.
        self._session = SessionContext(self)

    @property
    def config(self):
        """The frozen :class:`EngineConfig` this engine was built from."""
        return self._config

    def version_vector(self, tables=None):
        """Per-table catalog versions, optionally restricted to ``tables``."""
        return self.catalog.version_vector(tables)

    def snapshot(self):
        """An immutable read session pinned to the current catalog state.

        Returns a :class:`DatabaseSnapshot`: its SELECTs share this
        database's pipeline and caches and read one pinned
        :class:`~repro.engine.catalog.CatalogSnapshot` throughout.
        """
        return DatabaseSnapshot(self)

    def session(self, policy=None, audit=None):
        """Open a :class:`~repro.engine.session.context.SessionContext`.

        The unified statement surface: ``execute`` returns a
        :class:`~repro.engine.session.context.SessionResult`, ``dry_run``
        plans whole scripts without executing, and the optional
        ``policy`` / ``audit`` turn on per-statement gating and logging.
        """
        return SessionContext(self, policy=policy, audit=audit)

    def agent_session(self, policy=None, audit=None):
        """Open an :class:`~repro.engine.session.agent.AgentSession`.

        The safety-gated handle for autonomous callers: always audited,
        optionally policy-gated, with ``begin()``/``commit()``/
        ``rollback()`` transactional undo over the whole catalog.
        """
        return AgentSession(self, policy=policy, audit=audit)

    # ------------------------------------------------------------------
    def execute(self, sql_text):
        """Execute one SQL (or AISQL) statement.

        The ``raw`` value of the database's own policy-free session:

        Returns:
            For SELECT: an :class:`~repro.engine.executor.ExecutionResult`.
            For DDL/DML/ANALYZE: a status string.
            For extension statements: whatever the extension's ``run``
            returns.
        """
        return self._session.execute(sql_text).raw

    # ------------------------------------------------------------------
    def query(self, sql_text):
        """Execute a SELECT and return just the rows."""
        result = self.execute(sql_text)
        return result.rows

    def explain(self, sql_text):
        """Plan a SELECT without executing it.

        Returns an :class:`~repro.engine.explain.ExplainResult` whose
        ``str()`` is the classic plan text and which additionally carries
        the plan object, the ``fused_ops`` preview, and the cache-hit
        flag.
        """
        return self.pipeline.explain(sql_text)

    def explain_analyze(self, sql_text):
        """Execute a SELECT and report estimated vs actual rows per node.

        Returns an :class:`~repro.engine.explain.ExplainResult` whose
        text renders the plan with each node's planner-estimated rows,
        executor-counted actual rows, and q-error, and whose
        ``node_stats``/``result`` fields carry the structured records and
        the :class:`~repro.engine.executor.ExecutionResult`.
        """
        return self.pipeline.explain_analyze(sql_text)

    def run_query_object(self, query, order=None):
        """Plan and execute a structured :class:`ConjunctiveQuery` directly."""
        return run_query_object(self._session.backend, query, order=order)


class DatabaseSnapshot:
    """A read-only, point-in-time session over one :class:`Database`.

    MVCC-style snapshot isolation for readers: the catalog (tables,
    statistics, indexes, views, versions) is pinned at construction, so
    every query this session runs sees exactly that state — bit-identical
    results no matter how many rows writers append to the live database
    in the meantime. Statements flow through the owning database's
    pipeline (and share its warm caches), and every stage — lowering,
    planning, execution — reads the pinned catalog, as every read pins
    one (:meth:`Catalog.snapshot` says what a pin costs). Non-SELECT
    statements are rejected.
    """

    def __init__(self, database):
        self._db = database
        self.catalog = database.catalog.snapshot()
        # The context execute() unwraps; its backend pins every statement
        # to this snapshot's catalog and refuses writes.
        self._session = SessionContext(
            database, backend=SnapshotBackend(database, self.catalog)
        )

    def session(self, policy=None, audit=None):
        """A :class:`SessionContext` pinned to this snapshot."""
        return SessionContext(
            self._db,
            backend=SnapshotBackend(self._db, self.catalog),
            policy=policy,
            audit=audit,
        )

    def version_vector(self, tables=None):
        """The pinned per-table versions (what this session reads)."""
        return self.catalog.version_vector(tables)

    def execute(self, sql_text):
        """Run one SELECT against the pinned state.

        Returns an :class:`~repro.engine.executor.ExecutionResult`;
        anything but SELECT raises
        :class:`~repro.common.ExecutionError`.
        """
        return self._session.execute(sql_text).raw

    def query(self, sql_text):
        """Run one SELECT against the pinned state; returns just the rows."""
        return self.execute(sql_text).rows

    def run_query_object(self, query, order=None):
        """Plan and execute a structured query against the pinned state."""
        return run_query_object(self._session.backend, query, order=order)

    def __repr__(self):
        return "DatabaseSnapshot(tables=%d)" % len(
            self.catalog.table_names())
