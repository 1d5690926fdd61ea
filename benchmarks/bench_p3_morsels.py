"""P3 benchmark: morsel-driven parallel executor scaling vs. worker count.

Rebuilds the E8 clique schema + workload (same shape as ``bench_p1``),
plans every query once, then times pure plan execution under the
single-threaded vectorized baseline and under parallel mode at 1, 2, 4,
and 8 workers on the *same* plan objects. Every configuration must report
identical rows and bit-identical work (the work-parity invariant), so the
wall-clock ratios are pure scheduling effects.

Run standalone to (re)generate ``BENCH_P3.json``::

    PYTHONPATH=src python benchmarks/bench_p3_morsels.py

``REPRO_BENCH_FAST=1`` shrinks to E8's fast sizes. The JSON records
``cpu_count`` alongside the speedups: thread-level speedup on NumPy
kernels requires real cores, so on a 1-CPU container the expected result
is parity (~1x, minus small scheduling overhead), and the ≥2x acceptance
gate below is skipped unless at least 4 CPUs are present.
"""

import json
import os
import time

import pytest

from repro.engine import datagen
from repro.engine.database import Database
from repro.engine.executor import Executor

FAST = os.environ.get("REPRO_BENCH_FAST", "0") == "1"

WORKER_COUNTS = (1, 2, 4, 8)

#: Morsel size for the benchmark, by ``fast``: small enough that the
#: workload's joins split into many morsels — tens of thousands of
#: intermediate rows at full size, a few hundred at the fast size.
MORSEL_ROWS = {False: 4096, True: 128}


def build_workload_plans(fast, seed=0):
    """The E8 schema/workload, planned once; returns ``(db, plans)``."""
    db = Database()
    names, edges = datagen.make_join_graph_schema(
        db.catalog, "clique", n_tables=5,
        rows_per_table=400 if fast else 600, seed=seed + 3, prefix="n",
        correlated=True,
    )
    workload = datagen.join_graph_workload(
        names, edges, n_queries=12 if fast else 18, seed=seed + 4,
        min_tables=4,
    )
    return db, [db.planner.plan(q) for q in workload]


def execute_all(db, plans, mode, n_workers=1, fast=False):
    """Execute every plan; returns ``(rows, work, morsels_dispatched)``."""
    ex = Executor(db.catalog, db.cost_model, mode=mode,
                  morsel_rows=MORSEL_ROWS[fast], n_workers=n_workers)
    total_rows, total_work, total_morsels = 0, 0.0, 0
    for plan in plans:
        result = ex.execute(plan)
        total_rows += len(result.rows)
        total_work += result.work
        total_morsels += sum(
            v["morsels"] for v in result.telemetry.operators.values()
        )
    return total_rows, total_work, total_morsels


def measure(fast, repeats=3, seed=0):
    """Best-of-``repeats`` wall time per configuration plus speedups."""
    db, plans = build_workload_plans(fast, seed=seed)
    out = {
        "workload": "E8 clique (rows_per_table=%d, queries=%d)"
        % (400 if fast else 600, 12 if fast else 18),
        "fast": fast,
        "morsel_rows": MORSEL_ROWS[fast],
        "cpu_count": os.cpu_count(),
        "modes": {},
    }
    checks = {}

    def timed(label, mode, n_workers=1):
        best = float("inf")
        for __ in range(repeats):
            t0 = time.perf_counter()
            rows, work, morsels = execute_all(
                db, plans, mode, n_workers, fast)
            best = min(best, time.perf_counter() - t0)
        checks[label] = (rows, work)
        out["modes"][label] = {
            "seconds": best,
            "total_rows": rows,
            "total_work": work,
            "morsels_dispatched": morsels,
        }

    timed("vectorized", "vectorized")
    for workers in WORKER_COUNTS:
        timed("parallel_%d" % workers, "parallel", n_workers=workers)
    baseline = checks["vectorized"]
    for label, check in checks.items():
        assert check == baseline, (
            "configuration %s disagrees with vectorized: %r vs %r"
            % (label, check, baseline)
        )
    base_seconds = out["modes"]["vectorized"]["seconds"]
    out["speedups"] = {
        "parallel_%d" % w: base_seconds
        / max(out["modes"]["parallel_%d" % w]["seconds"], 1e-12)
        for w in WORKER_COUNTS
    }
    return out


# ----------------------------------------------------------------------
# pytest entry points
# ----------------------------------------------------------------------
def test_p3_parallel_parity_all_worker_counts():
    """Every worker count returns identical rows and bit-identical work."""
    db, plans = build_workload_plans(fast=True)
    baseline = execute_all(db, plans, "vectorized", fast=True)[:2]
    for workers in WORKER_COUNTS:
        result = execute_all(db, plans, "parallel", workers, fast=True)
        assert result[:2] == baseline, workers
        assert result[2] > 0, "no morsels dispatched at %d workers" % workers


def test_p3_scaling_benchmark(benchmark):
    """Times parallel execution at 4 workers on the FAST-aware workload."""
    db, plans = build_workload_plans(fast=FAST)
    rows, work, morsels = benchmark.pedantic(
        execute_all, args=(db, plans, "parallel", 4, FAST), rounds=1,
        iterations=1,
    )
    assert rows > 0 and work > 0 and morsels > 0


@pytest.mark.slow
@pytest.mark.skipif(
    (os.cpu_count() or 1) < 4,
    reason="thread speedup needs >= 4 real cores (cpu_count=%r)"
    % os.cpu_count(),
)
def test_p3_parallel_speedup_full_size():
    """Acceptance gate: ≥2x execution-phase speedup at 4 workers."""
    payload = measure(fast=False, repeats=2)
    assert payload["speedups"]["parallel_4"] >= 2.0, payload


if __name__ == "__main__":
    payload = {"bench": "P3 morsel-driven parallel executor", "results": []}
    for fast in (True, False):
        result = measure(fast)
        payload["results"].append(result)
        line = ", ".join(
            "%s %.3fs" % (label, cfg["seconds"])
            for label, cfg in result["modes"].items()
        )
        print("%s: %s" % ("fast" if fast else "full", line))
        print("  speedups vs vectorized: %s" % (
            ", ".join(
                "%s=%.2fx" % (k, v) for k, v in result["speedups"].items()
            )
        ))
    out_path = os.path.join(os.path.dirname(__file__), "..", "BENCH_P3.json")
    with open(os.path.abspath(out_path), "w") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")
    print("wrote BENCH_P3.json")
