"""Physical-operator layer: one module per operator family.

Each plan-node class maps to a stateless :class:`PhysicalOperator`
singleton registered in this package's registry, with one evaluation
method (``evaluate``: columnar NumPy batches). Compiling a plan
(:mod:`repro.engine.program`) resolves node → operator once; the
executor stays a thin driver that walks the compiled steps and supplies
the evaluation context (catalog, plan nodes, cost model, work/row
accounting).

Layering: this package sits below the optimizer and must never import
from :mod:`repro.ai4db` (guarded by a test).
"""

from repro.engine.operators.base import (
    OPS,
    ColumnarRelation,
    PhysicalOperator,
    Relation,
    operator_for,
    register,
    registered_node_types,
)

# Importing the family modules registers their operators.
from repro.engine.operators import scan  # noqa: F401  (registration)
from repro.engine.operators import join  # noqa: F401  (registration)
from repro.engine.operators import project  # noqa: F401  (registration)
from repro.engine.operators import aggregate  # noqa: F401  (registration)
from repro.engine.operators import sort  # noqa: F401  (registration)
from repro.engine.operators import fused  # noqa: F401  (registration)

__all__ = [
    "OPS",
    "ColumnarRelation",
    "PhysicalOperator",
    "Relation",
    "operator_for",
    "register",
    "registered_node_types",
]
