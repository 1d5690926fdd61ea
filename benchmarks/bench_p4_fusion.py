"""P4 benchmark: fused Filter→Project/Aggregate tails vs. unfused plans.

Builds a wide fact table (an E8-scale aggregate workload: selective
predicates feeding GROUP BY / global aggregates / DISTINCT / LIMIT tails
that read only a few of its columns), plans every query once, then times
pure plan execution with operator fusion off and on using the *same* plan
objects. Fusion must not change results — every configuration reports
identical rows and bit-identical work — so the wall-clock ratio isolates
what fusion saves: the fully-materialized filtered intermediate (every
column gathered, immediately discarded) that the unfused tail builds
between Filter and Project/Aggregate. ``tracemalloc`` peak bytes per pass
quantify that saved materialization directly.

Run standalone to (re)generate ``BENCH_P4.json``::

    PYTHONPATH=src python benchmarks/bench_p4_fusion.py

``REPRO_BENCH_FAST=1`` shrinks the table. The ≥1.3x acceptance gate runs
at full size and is marked slow (PR 3 convention).
"""

import json
import os
import time
import tracemalloc

import numpy as np
import pytest

from repro.engine.database import Database
from repro.engine.executor import Executor
from repro.engine.query import Aggregate, ConjunctiveQuery, Predicate
from repro.engine.storage import Table
from repro.engine.types import ColumnSchema, DataType, TableSchema

FAST = os.environ.get("REPRO_BENCH_FAST", "0") == "1"

#: Measure columns beyond the key columns — wide enough that materializing
#: all of them (the unfused path) visibly costs time and memory.
N_MEASURE_COLS = 12


def build_workload_plans(fast, seed=0):
    """Wide-table aggregate workload, planned once; ``(db, plans)``."""
    n_rows = 40_000 if fast else 200_000
    rng = np.random.default_rng(seed)
    columns = {
        "id": np.arange(n_rows, dtype=np.int64),
        "k": rng.integers(0, 64, size=n_rows),
        "tag": np.array(
            ["g%02d" % g for g in rng.integers(0, 24, size=n_rows)],
            dtype=object,
        ),
    }
    schema_cols = [
        ColumnSchema("id", DataType.INT),
        ColumnSchema("k", DataType.INT),
        ColumnSchema("tag", DataType.TEXT),
    ]
    for j in range(N_MEASURE_COLS):
        name = "m%02d" % j
        columns[name] = rng.uniform(-100.0, 100.0, size=n_rows)
        schema_cols.append(ColumnSchema(name, DataType.FLOAT))
    db = Database()
    db.catalog.register_table(
        Table(TableSchema("wide", schema_cols), columns=columns)
    )
    db.catalog.analyze("wide")
    t = "wide"
    queries = [
        # Grouped aggregate over 3 of the 12 measure columns.
        ConjunctiveQuery(
            tables=[t],
            predicates=[Predicate(t, "k", "<", 16)],
            group_by=[(t, "tag")],
            aggregates=[
                Aggregate("count"),
                Aggregate("sum", t, "m00"),
                Aggregate("avg", t, "m01"),
                Aggregate("max", t, "m02"),
            ],
        ),
        # Global aggregate behind a float predicate.
        ConjunctiveQuery(
            tables=[t],
            predicates=[Predicate(t, "m03", ">", 0.0)],
            aggregates=[
                Aggregate("count"),
                Aggregate("sum", t, "m04"),
                Aggregate("min", t, "m05"),
            ],
        ),
        # DISTINCT over one narrow column.
        ConjunctiveQuery(
            tables=[t],
            predicates=[Predicate(t, "k", "<", 32)],
            projections=[(t, "tag")],
            distinct=True,
        ),
        # Selective filter + narrow projection + LIMIT.
        ConjunctiveQuery(
            tables=[t],
            predicates=[Predicate(t, "m06", ">", 95.0)],
            projections=[(t, "id"), (t, "m07")],
            limit=100,
        ),
    ]
    return db, [db.planner.plan(q) for q in queries]


def execute_all(db, plans, mode, fusion):
    """Execute every plan; ``(rows, work, fused_ops)`` totals."""
    ex = Executor(db.catalog, db.cost_model, mode=mode,
                  fusion_enabled=fusion)
    total_rows, total_work, total_fused = 0, 0.0, 0
    for plan in plans:
        result = ex.execute(plan)
        total_rows += len(result.rows)
        total_work += result.work
        total_fused += result.telemetry.fused_ops
    return total_rows, total_work, total_fused


def peak_alloc_bytes(db, plans, mode, fusion):
    """tracemalloc peak during one full pass (intermediates included)."""
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        execute_all(db, plans, mode, fusion)
        __, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak


def measure(fast, repeats=3, seed=0, modes=("vectorized",)):
    """Best-of-``repeats`` timings + peak allocation, fused vs. unfused."""
    db, plans = build_workload_plans(fast, seed=seed)
    out = {
        "workload": "wide-table aggregate (rows=%d, measure_cols=%d, "
        "queries=%d)" % (40_000 if fast else 200_000, N_MEASURE_COLS,
                         len(plans)),
        "fast": fast,
        "cpu_count": os.cpu_count(),
        "configs": {},
        "speedups": {},
        "peak_alloc_ratio": {},
    }
    checks = {}
    for mode in modes:
        for fusion in (False, True):
            label = "%s_%s" % (mode, "fused" if fusion else "unfused")
            best = float("inf")
            for __ in range(repeats):
                t0 = time.perf_counter()
                rows, work, fused_ops = execute_all(db, plans, mode, fusion)
                best = min(best, time.perf_counter() - t0)
            checks[label] = (rows, work)
            out["configs"][label] = {
                "seconds": best,
                "total_rows": rows,
                "total_work": work,
                "fused_ops": fused_ops,
                "peak_alloc_bytes": peak_alloc_bytes(db, plans, mode,
                                                     fusion),
            }
    baseline = checks["%s_unfused" % modes[0]]
    for label, check in checks.items():
        assert check == baseline, (
            "configuration %s disagrees with unfused: %r vs %r"
            % (label, check, baseline)
        )
    for mode in modes:
        unfused = out["configs"]["%s_unfused" % mode]
        fused = out["configs"]["%s_fused" % mode]
        out["speedups"][mode] = unfused["seconds"] / max(
            fused["seconds"], 1e-12
        )
        out["peak_alloc_ratio"][mode] = fused["peak_alloc_bytes"] / max(
            unfused["peak_alloc_bytes"], 1
        )
    return out


# ----------------------------------------------------------------------
# pytest entry points
# ----------------------------------------------------------------------
def test_p4_fusion_parity_and_coverage():
    """Fusion changes neither rows nor work, and actually fires."""
    db, plans = build_workload_plans(fast=True)
    baseline = execute_all(db, plans, "vectorized", fusion=False)
    assert baseline[2] == 0  # fusion off => no fused ops
    for mode in ("vectorized", "row"):
        result = execute_all(db, plans, mode, fusion=True)
        assert result[:2] == baseline[:2], mode
        assert result[2] >= len(plans), (
            "fusion did not fire in %s mode" % mode
        )


def test_p4_fusion_benchmark(benchmark):
    """Times the fused vectorized pass on the FAST-aware workload."""
    db, plans = build_workload_plans(fast=FAST)
    rows, work, fused_ops = benchmark.pedantic(
        execute_all, args=(db, plans, "vectorized", True),
        rounds=1, iterations=1,
    )
    assert rows > 0 and work > 0 and fused_ops > 0


@pytest.mark.slow
def test_p4_fusion_speedup_full_size():
    """Acceptance gate: ≥1.3x execution-phase speedup from fusion."""
    payload = measure(fast=False, repeats=2, modes=("vectorized",))
    assert payload["speedups"]["vectorized"] >= 1.3, payload


if __name__ == "__main__":
    payload = {"bench": "P4 operator fusion", "results": []}
    for fast in (True, False):
        result = measure(fast)
        payload["results"].append(result)
        line = ", ".join(
            "%s %.3fs" % (label, cfg["seconds"])
            for label, cfg in result["configs"].items()
        )
        print("%s: %s" % ("fast" if fast else "full", line))
        print("  fusion speedups: %s; peak-alloc ratio fused/unfused: %s" % (
            ", ".join(
                "%s=%.2fx" % (k, v) for k, v in result["speedups"].items()
            ),
            ", ".join(
                "%s=%.2f" % (k, v)
                for k, v in result["peak_alloc_ratio"].items()
            ),
        ))
    out_path = os.path.join(os.path.dirname(__file__), "..", "BENCH_P4.json")
    with open(os.path.abspath(out_path), "w") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")
    print("wrote BENCH_P4.json")
