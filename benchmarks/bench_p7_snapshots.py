"""P7 benchmark: per-table plan-cache scoping under a hot writer.

A writer hammers one hot table (INSERT + ANALYZE every round) while a
read workload keeps re-running warmed 3-way join queries over the *cold*
tables. Cached plans are keyed on the version vector of the tables they
touch, so the cold queries' tokens never move: they must stay warm (100%
hits) and skip join enumeration entirely. The benchmark asserts that
hit rate and reports the p50/p95 per-query latency, plus the cost of
pinning a ``db.snapshot()`` across the whole catalog (the MVCC read path
PR 7 adds).

The committed ``BENCH_P7.json`` is the historical record of the race
this benchmark was written for — the same workload under the
since-deleted whole-catalog epoch token (0% hits, ~2x the p95) — and is
no longer regenerated. Run standalone to print the current numbers::

    PYTHONPATH=src python benchmarks/bench_p7_snapshots.py

``REPRO_BENCH_FAST=1`` shrinks the workload. The acceptance gate runs at
full size and is marked slow (PR 3 convention).
"""

import os
import time

import pytest

from repro.engine.database import Database

FAST = os.environ.get("REPRO_BENCH_FAST", "0") == "1"

#: Rows appended to the hot table per writer round.
WRITE_BATCH = 50


def _sizes(fast):
    """(n_cold_tables, rows_per_table, rounds)."""
    return (6, 2_000, 30) if fast else (12, 5_000, 100)


def _build(fast, seed=0):
    """One database: ``hot`` plus N cold tables, all analyzed."""
    n_tables, n_rows, __ = _sizes(fast)
    db = Database()
    names = ["hot"] + ["cold%02d" % i for i in range(n_tables)]
    for name in names:
        db.execute("CREATE TABLE %s (id INT, k INT, v FLOAT)" % name)
        db.catalog.table(name).insert_rows([
            (i, (i * 7 + seed) % 13, float(i % 97)) for i in range(n_rows)
        ])
    db.execute("ANALYZE")
    return db, names[1:]


def _cold_queries(cold_tables):
    """One 3-table join per consecutive triple of cold tables.

    Joins make the replan cost real: a cache miss pays join enumeration
    and per-subset estimation, which is what the per-table token saves
    the cold readers from (a warmed 3-way join replans ~3.5x slower than
    it hits).
    """
    out = []
    for i in range(len(cold_tables) - 2):
        a, b, c = cold_tables[i], cold_tables[i + 1], cold_tables[i + 2]
        out.append(
            "SELECT COUNT(*) FROM %s, %s, %s "
            "WHERE %s.id = %s.id AND %s.id = %s.id AND %s.id < 200"
            % (a, b, c, a, b, b, c, a)
        )
    return out


def _percentile(sorted_values, q):
    if not sorted_values:
        return 0.0
    idx = min(len(sorted_values) - 1, int(q * (len(sorted_values) - 1)))
    return sorted_values[idx]


def run_race(fast, seed=0):
    """The hot-writer/cold-reader race.

    Returns the plan-cache counters over the raced phase plus per-query
    latency percentiles (seconds) for the cold-table reads.
    """
    db, cold_tables = _build(fast, seed=seed)
    __, __, rounds = _sizes(fast)
    queries = _cold_queries(cold_tables)
    baseline = [db.execute(sql).rows for sql in queries]  # warm every plan
    db.pipeline.plan_cache.reset_counters()
    latencies = []
    for r in range(rounds):
        db.catalog.table("hot").insert_rows([
            (r * WRITE_BATCH + i, i % 13, float(i)) for i in range(WRITE_BATCH)
        ])
        db.execute("ANALYZE hot")
        for sql, expected in zip(queries, baseline):
            t0 = time.perf_counter()
            rows = db.execute(sql).rows
            latencies.append(time.perf_counter() - t0)
            assert rows == expected  # cold tables never change
    stats = db.pipeline.plan_cache.stats()
    lookups = stats["hits"] + stats["misses"]
    latencies.sort()
    return {
        "rounds": rounds,
        "cold_tables": len(cold_tables),
        "hits": stats["hits"],
        "misses": stats["misses"],
        "invalidations": stats["invalidations"],
        "hit_rate": stats["hits"] / max(1, lookups),
        "p50_seconds": _percentile(latencies, 0.50),
        "p95_seconds": _percentile(latencies, 0.95),
        "total_seconds": sum(latencies),
    }


def snapshot_costs(fast, repeats=5, seed=0):
    """Cost of pinning one whole-catalog snapshot, and of reading it."""
    db, cold_tables = _build(fast, seed=seed)
    best_pin = float("inf")
    for __ in range(repeats):
        t0 = time.perf_counter()
        snap = db.snapshot()
        best_pin = min(best_pin, time.perf_counter() - t0)
    sql = _cold_queries(cold_tables)[0]
    live = db.execute(sql).rows
    t0 = time.perf_counter()
    pinned = snap.query(sql)
    read_seconds = time.perf_counter() - t0
    assert pinned == live
    return {
        "tables": len(cold_tables) + 1,
        "pin_seconds": best_pin,
        "pinned_read_seconds": read_seconds,
    }


def measure(fast, seed=0):
    """Cold-reader hit rate and latency under one hot writer."""
    return {
        "workload": "1 hot writer + %d cold readers, %d rounds, "
        "%d rows/table" % (_sizes(fast)[0], _sizes(fast)[2], _sizes(fast)[1]),
        "fast": fast,
        "race": run_race(fast, seed=seed),
        "snapshot": snapshot_costs(fast, seed=seed),
    }


# ----------------------------------------------------------------------
# pytest entry points
# ----------------------------------------------------------------------
def _assert_cold_plans_stay_warm(race):
    assert race["hit_rate"] == 1.0, race
    assert race["misses"] == 0 and race["invalidations"] == 0, race


def test_p7_hot_writer_keeps_cold_plans_warm():
    """The property the benchmark exists for, at fast size: a writer on
    ``hot`` leaves every cold-table plan at 100% hits."""
    _assert_cold_plans_stay_warm(run_race(fast=True))


def test_p7_snapshot_pin_is_cheap_and_correct():
    costs = snapshot_costs(fast=True)
    assert costs["pin_seconds"] < 1.0, costs


def test_p7_snapshots_benchmark(benchmark):
    """Times the full FAST-aware measurement (race + snapshot)."""
    payload = benchmark.pedantic(
        measure, args=(FAST,), rounds=1, iterations=1,
    )
    _assert_cold_plans_stay_warm(payload["race"])


@pytest.mark.slow
def test_p7_gates_full_size():
    """Acceptance gate at full size: every cold plan stays warm."""
    _assert_cold_plans_stay_warm(measure(fast=False)["race"])


if __name__ == "__main__":
    for fast in (True, False):
        result = measure(fast)
        _assert_cold_plans_stay_warm(result["race"])
        print("%s: cold-plan hit rate %.0f%%; p50 %.0fus p95 %.0fus; "
              "snapshot pin %.1fus over %d tables" % (
                  "fast" if fast else "full",
                  100.0 * result["race"]["hit_rate"],
                  1e6 * result["race"]["p50_seconds"],
                  1e6 * result["race"]["p95_seconds"],
                  1e6 * result["snapshot"]["pin_seconds"],
                  result["snapshot"]["tables"],
              ))
