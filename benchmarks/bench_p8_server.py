"""P8 benchmark: the multi-tenant query server under concurrent load.

Three scenarios over :class:`repro.engine.QueryServer`:

* **Snapshot isolation at scale** — 8+ ``isolation="session"`` sessions
  pin their snapshots, then race a writer that commits into the very
  tables they read. Every session's every result must be bit-identical
  to a serial replay on a frozen twin database (the acceptance gate the
  PR is judged on: MVCC reads cost no correctness under concurrency).
* **Fair-share interference** — tenant B's p95 latency is measured
  alone, then again while over-quota tenant A hammers admission with
  expensive queries it can no longer pay for. Fair-share + per-tenant
  buckets must keep B's p95 within 10% of its alone run (slow gate).
* **Closed-loop traffic** — :func:`repro.sim.run_traffic`
  drives Zipf-skewed tenants through a read/write mix and reports
  throughput, per-tenant percentiles, admission decisions, and commits.

Run standalone to (re)generate ``BENCH_P8.json``::

    PYTHONPATH=src python benchmarks/bench_p8_server.py

``REPRO_BENCH_FAST=1`` shrinks the workload. The acceptance gates run at
full size and are marked slow (PR 3 convention).
"""

import json
import os
import threading
import time

import pytest

from repro.engine import Database, QueryServer
from repro.engine.server import AdmissionError
from repro.engine.telemetry import percentile
from repro.sim import run_traffic

FAST = os.environ.get("REPRO_BENCH_FAST", "0") == "1"

#: Sessions racing the writer in the isolation scenario (the acceptance
#: number: at least 8 concurrent snapshot readers).
N_SESSIONS = 8

TABLES = ("r0", "r1", "r2")


def _sizes(fast):
    """(rows_per_table, reads_per_session, b_queries, traffic_requests)."""
    return (1_500, 5, 400, 15) if fast else (4_000, 10, 1_500, 30)


def _build(fast, seed=0):
    db = Database()
    rows_per_table, __, __, __ = _sizes(fast)
    for name in TABLES:
        db.execute("CREATE TABLE %s (id INT, k INT, v FLOAT)" % name)
        db.catalog.table(name).insert_rows([
            (i, (i * 7 + seed) % 13, float(i % 97))
            for i in range(rows_per_table)
        ])
    db.execute("ANALYZE")
    return db


#: Reader queries with plan-independent output (aggregates, ORDER BY,
#: single-table float folds) so bit-identical comparison is meaningful
#: even if live statistics drift under the racing writer.
READ_QUERIES = [
    "SELECT COUNT(*) FROM r0",
    "SELECT COUNT(*) FROM r1 WHERE k = 3",
    "SELECT k, COUNT(*) FROM r2 GROUP BY k ORDER BY k",
    "SELECT k, SUM(v) FROM r0 GROUP BY k ORDER BY k",
    "SELECT COUNT(*) FROM r1, r2 WHERE r1.id = r2.id AND r1.k < 5",
]


# ----------------------------------------------------------------------
# Scenario 1: snapshot isolation, N pinned sessions vs a frozen twin
# ----------------------------------------------------------------------
def run_isolation(fast, seed=0):
    """Race pinned sessions against a writer; compare to a frozen twin.

    Returns the session count, whether every read was bit-identical to
    the serial oracle, and how many commits raced the readers.
    """
    __, reads_per_session, __, __ = _sizes(fast)
    db = _build(fast, seed=seed)
    twin = _build(fast, seed=seed)
    server = QueryServer(db, tenant_quota=1e12, quota_refill_rate=0.0)

    # Serial oracle on the never-written twin.
    oracle = [twin.execute(sql).rows for sql in READ_QUERIES]

    # Pin every session before the writer starts: their snapshots all
    # equal the twin's state, whatever the writer does afterwards.
    sessions = [
        server.session(tenant="s%d" % i, isolation="session")
        for i in range(N_SESSIONS)
    ]
    stop = threading.Event()
    barrier = threading.Barrier(N_SESSIONS + 1)
    errors = []
    mismatches = []

    def writer():
        try:
            with server.session(tenant="writer") as sess:
                barrier.wait()
                batch = 0
                while not stop.is_set():
                    table = TABLES[batch % len(TABLES)]
                    sess.insert_rows(table, [
                        (100_000 + batch * 10 + r, r % 13, float(r))
                        for r in range(10)
                    ])
                    batch += 1
        except BaseException as exc:  # noqa: BLE001 - reported below
            errors.append(exc)

    def reader(idx):
        try:
            sess = sessions[idx]
            barrier.wait()
            for __round in range(reads_per_session):
                for sql, expected in zip(READ_QUERIES, oracle):
                    rows = sess.query(sql)
                    if rows != expected:
                        mismatches.append((idx, sql, rows[:3], expected[:3]))
        except BaseException as exc:  # noqa: BLE001 - reported below
            errors.append(exc)

    threads = [threading.Thread(target=reader, args=(i,))
               for i in range(N_SESSIONS)]
    wt = threading.Thread(target=writer)
    wt.start()
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    stop.set()
    wt.join()
    if errors:
        raise errors[0]
    commits = server.commit_history()[-1][0]
    return {
        "n_sessions": N_SESSIONS,
        "reads_per_session": reads_per_session * len(READ_QUERIES),
        "commits_raced": commits,
        "snapshot_reads_identical": not mismatches,
        "mismatches": mismatches[:5],
    }


# ----------------------------------------------------------------------
# Scenario 2: fair-share interference (tenant B alone vs contended)
# ----------------------------------------------------------------------
def run_interference(fast, seed=0):
    """Tenant B's p95, alone vs under tenant A's over-quota flood.

    B reads a small dedicated table, so the (uniform per-tenant) quota
    that comfortably covers B's whole run buys A only a handful of its
    expensive joins; after those, every A statement sheds on the
    admission timeout, so A hammers the admission path for B's whole
    contended phase without being able to execute. Fair-share per-tenant
    buckets are what keeps that hammering away from B's latency.

    B is measured alone, then contended, then alone again; the two alone
    phases are pooled so drift (allocator/GC state after A's burst)
    cancels instead of masquerading as interference.
    """
    import gc

    __, __, b_queries, __ = _sizes(fast)
    db = _build(fast, seed=seed)
    db.execute("CREATE TABLE bsmall (id INT, k INT, v FLOAT)")
    db.catalog.table("bsmall").insert_rows(
        [(i, i % 7, float(i)) for i in range(300)]
    )
    db.execute("ANALYZE bsmall")
    b_sql = "SELECT COUNT(*) FROM bsmall WHERE k = 3"
    a_sql = ("SELECT r0.k, COUNT(*), SUM(r0.v) FROM r0, r1 "
             "WHERE r0.id = r1.id GROUP BY r0.k")
    # Size the quota from the plans' own estimates: B's entire run fits
    # with headroom, while A goes broke after a few joins.
    b_cost = db.pipeline.prepare_sql(b_sql).est_cost
    a_cost = db.pipeline.prepare_sql(a_sql).est_cost
    quota = max(1.5 * (3 * b_queries + 10) * b_cost, 4.0 * a_cost)
    # A 50ms admission timeout bounds how often A's shed loop wakes (B
    # never waits — fair-share admits it on the fast path), keeping the
    # flood's cost an admission-path cost, not a GIL-preemption storm.
    server = QueryServer(
        db, tenant_quota=quota, quota_refill_rate=0.0,
        admission_timeout=0.05,
    )
    b_sess = server.session(tenant="B")
    for __warm in range(5):
        b_sess.query(b_sql)

    def measure_b():
        gc.collect()
        lat = []
        for __i in range(b_queries):
            t0 = time.perf_counter()
            b_sess.query(b_sql)
            lat.append(time.perf_counter() - t0)
        return lat

    alone = measure_b()

    # Flood: run A until its bucket is broke, then keep hammering.
    a_broke = threading.Event()
    stop = threading.Event()

    def flood():
        with server.session(tenant="A") as a_sess:
            while not stop.is_set():
                try:
                    a_sess.query(a_sql)
                except AdmissionError:
                    a_broke.set()

    ft = threading.Thread(target=flood, daemon=True)
    ft.start()
    a_broke.wait(timeout=60.0)
    contended = measure_b()
    stop.set()
    ft.join(timeout=10.0)
    alone += measure_b()

    stats = server.admission.stats()
    p95_alone = percentile(alone, 0.95)
    p95_contended = percentile(contended, 0.95)
    return {
        "b_queries": b_queries,
        "p50_alone_seconds": percentile(alone, 0.50),
        "p50_contended_seconds": percentile(contended, 0.50),
        "p95_alone_seconds": p95_alone,
        "p95_contended_seconds": p95_contended,
        "p95_interference_ratio": p95_contended / max(p95_alone, 1e-12),
        "a_shed": stats["A"]["shed"],
        "a_admitted": stats["A"]["admitted"],
        "b_shed": stats["B"]["shed"],
        "b_queued": stats["B"]["queued"],
    }


# ----------------------------------------------------------------------
# Scenario 3: closed-loop Zipf traffic through the driver
# ----------------------------------------------------------------------
def run_traffic_scenario(fast, seed=0):
    __, __, __, requests = _sizes(fast)
    db = _build(fast, seed=seed)
    server = QueryServer(db, tenant_quota=1e9, quota_refill_rate=1e6)
    report = run_traffic(
        server,
        read_pool=READ_QUERIES,
        write_pool=[
            "INSERT INTO r0 VALUES (900000, 1, 1.0)",
            "INSERT INTO r1 VALUES (900000, 2, 2.0)",
        ],
        n_clients=12, requests_per_client=requests, n_tenants=4,
        zipf_s=1.2, read_fraction=0.9, seed=seed,
    )
    return report.summary()


def measure(fast, seed=0):
    return {
        "fast": fast,
        "isolation": run_isolation(fast, seed=seed),
        "interference": run_interference(fast, seed=seed),
        "traffic": run_traffic_scenario(fast, seed=seed),
    }


# ----------------------------------------------------------------------
# pytest entry points
# ----------------------------------------------------------------------
def test_p8_snapshot_isolation_bitwise():
    """Headline gate at fast size: 8 pinned sessions racing a writer
    read bit-identically to the frozen serial oracle."""
    result = run_isolation(fast=True)
    assert result["n_sessions"] >= 8, result
    assert result["snapshot_reads_identical"], result
    assert result["commits_raced"] > 0, result


def test_p8_traffic_driver_reports():
    summary = run_traffic_scenario(fast=True)
    assert summary["completed"] > 0, summary
    assert summary["commits"] > 0, summary
    assert summary["tenants"], summary
    for tenant_stats in summary["tenants"].values():
        assert tenant_stats["p95_seconds"] >= tenant_stats["p50_seconds"]


def test_p8_server_benchmark(benchmark):
    """Times the full FAST-aware measurement (all three scenarios)."""
    payload = benchmark.pedantic(
        measure, args=(FAST,), rounds=1, iterations=1,
    )
    assert payload["isolation"]["snapshot_reads_identical"]


@pytest.mark.slow
def test_p8_gates_full_size():
    """Acceptance gates at full size: >=8 concurrent sessions stay
    bit-identical to the serial oracle, and an over-quota tenant cannot
    inflate another tenant's p95 by more than 10%."""
    payload = measure(fast=False)
    isolation = payload["isolation"]
    assert isolation["n_sessions"] >= 8, isolation
    assert isolation["snapshot_reads_identical"], isolation
    assert isolation["commits_raced"] > 0, isolation
    interference = payload["interference"]
    assert interference["a_shed"] > 0, interference
    assert interference["b_shed"] == 0, interference
    assert interference["p95_interference_ratio"] <= 1.10, interference


if __name__ == "__main__":
    payload = {"bench": "P8 multi-tenant serving & admission", "results": []}
    for fast in (True, False):
        result = measure(fast)
        payload["results"].append(result)
        iso, inter = result["isolation"], result["interference"]
        print("%s: %d sessions x %d reads vs %d racing commits, "
              "identical=%s; p95 interference %.3fx (A shed %d); "
              "traffic %.0f qps, %d shed" % (
                  "fast" if fast else "full",
                  iso["n_sessions"], iso["reads_per_session"],
                  iso["commits_raced"], iso["snapshot_reads_identical"],
                  inter["p95_interference_ratio"], inter["a_shed"],
                  result["traffic"]["throughput_qps"],
                  result["traffic"]["shed"],
              ))
    out_path = os.path.join(os.path.dirname(__file__), "..", "BENCH_P8.json")
    with open(os.path.abspath(out_path), "w") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")
    print("wrote BENCH_P8.json")
