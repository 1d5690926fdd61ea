"""In-memory relational database substrate.

The database kernel the AI4DB components act on: a SQL front end, a
catalog with statistics, a pluggable cost-based optimizer, an executor
with exact work accounting, indexes, sessions and the serving
layer. The simulators that stand in for production substrates (knob
response, lock table, traces, data generators, the traffic driver — the
substitution table in DESIGN.md) live beside it in :mod:`repro.sim`,
which imports this package and is never imported by it.
"""

from repro.engine.errors import (
    EngineError,
    PolicyError,
    SessionError,
)
from repro.engine.types import ColumnSchema, DataType, TableSchema
from repro.engine.storage import (
    RowGroup,
    Table,
    TableSnapshot,
)
from repro.engine.segments import (
    ColumnSegment,
    ZoneMap,
    choose_encoding,
    merge_value_counts,
)
from repro.engine.stats import ColumnStats, EquiDepthHistogram, TableStats
from repro.engine.query import Aggregate, ConjunctiveQuery, JoinEdge, Predicate
from repro.engine.catalog import (
    Catalog,
    CatalogSnapshot,
    IndexDef,
    ViewDef,
)
from repro.engine.config import DEFAULT_SEGMENT_ENCODINGS, EngineConfig
from repro.engine.executor import ExecutionResult, Executor
from repro.engine.fusion import fuse_plan
from repro.engine.operators import (
    ColumnarRelation,
    PhysicalOperator,
    Relation,
    operator_for,
    registered_node_types,
)
from repro.engine.explain import ExplainResult
from repro.engine.plancache import PlanCache
from repro.engine.pipeline import PIPELINE_STAGES, PreparedQuery, QueryPipeline
from repro.engine.plans import FusedPipelineOp
from repro.engine.session import (
    AgentSession,
    AuditLog,
    AuditRecord,
    DryRunReport,
    Policy,
    PolicyDecision,
    SessionContext,
    SessionResult,
    StatementInfo,
    StatementPreview,
    split_script,
)
from repro.engine.database import Database, DatabaseSnapshot
from repro.engine.server import (
    AdmissionController,
    AdmissionError,
    QueryServer,
    Session,
    TokenBucket,
)
from repro.engine.telemetry import ServingRollup, Span, StatementTrace
from repro.engine import telemetry

__all__ = [
    "AgentSession",
    "AuditLog",
    "AuditRecord",
    "DryRunReport",
    "EngineError",
    "Policy",
    "PolicyDecision",
    "PolicyError",
    "SessionContext",
    "SessionError",
    "SessionResult",
    "StatementInfo",
    "StatementPreview",
    "split_script",
    "ColumnSchema",
    "DataType",
    "TableSchema",
    "RowGroup",
    "Table",
    "TableSnapshot",
    "ColumnSegment",
    "ZoneMap",
    "choose_encoding",
    "merge_value_counts",
    "ColumnStats",
    "EquiDepthHistogram",
    "TableStats",
    "Aggregate",
    "ConjunctiveQuery",
    "JoinEdge",
    "Predicate",
    "Catalog",
    "CatalogSnapshot",
    "IndexDef",
    "ViewDef",
    "DEFAULT_SEGMENT_ENCODINGS",
    "EngineConfig",
    "ExecutionResult",
    "Executor",
    "ExplainResult",
    "FusedPipelineOp",
    "Relation",
    "ColumnarRelation",
    "PhysicalOperator",
    "operator_for",
    "registered_node_types",
    "fuse_plan",
    "PIPELINE_STAGES",
    "PlanCache",
    "PreparedQuery",
    "QueryPipeline",
    "Database",
    "DatabaseSnapshot",
    "AdmissionController",
    "AdmissionError",
    "QueryServer",
    "ServingRollup",
    "Session",
    "Span",
    "StatementTrace",
    "TokenBucket",
    "telemetry",
]
