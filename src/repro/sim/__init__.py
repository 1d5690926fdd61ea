"""Simulators that stand in for production substrates.

What the paper's Figure 1 places *outside* the database kernel — cloud
testbeds, production traces, TPC-H — is simulated here (the substitution
table in DESIGN.md): the knob-response surface (:mod:`~repro.sim.knobs`),
the lock-table simulator (:mod:`~repro.sim.txn`), arrival traces / KPI
episodes / activity streams (:mod:`~repro.sim.traces`) and the synthetic
data generators (:mod:`~repro.sim.datagen`).

Layering: this package may import :mod:`repro.engine`; the engine never
imports it (``tests/test_layering.py``).
"""

from repro.sim import datagen, traces
from repro.sim.knobs import (
    KnobResponseSimulator,
    KnobSpec,
    WorkloadProfile,
    default_knobs,
    standard_workloads,
)
from repro.sim.txn import (
    LockTableSimulator,
    ScheduleResult,
    Transaction,
    cost_ordered_schedule,
    fifo_schedule,
    hotspot_workload,
)

__all__ = [
    "datagen",
    "traces",
    "KnobResponseSimulator",
    "KnobSpec",
    "WorkloadProfile",
    "default_knobs",
    "standard_workloads",
    "LockTableSimulator",
    "ScheduleResult",
    "Transaction",
    "cost_ordered_schedule",
    "fifo_schedule",
    "hotspot_workload",
]
