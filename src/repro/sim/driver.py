"""Closed-loop traffic driver: many simulated clients, Zipfian skew.

The load generator for the serving layer's benchmarks: ``n_clients``
threads each open a session and run a closed loop (issue one statement,
wait for it to finish — shed counts as finished — then issue the next).
Clients map onto tenants with a Zipfian distribution, so a few tenants
carry most of the traffic, the shape real multi-tenant fleets show. A
seeded ``random.Random`` per client makes the statement sequence (though
of course not the thread interleaving) fully reproducible.

:func:`run_traffic` returns a :class:`TrafficReport` with overall
throughput, per-tenant latency percentiles (p50/p95/p99), admission
decisions, and the server's snapshot/commit statistics — what
``benchmarks/bench_p8_server.py`` records into ``BENCH_P8.json``.
"""

import random
import threading
import time

from repro.engine.server.admission import AdmissionError
from repro.engine.telemetry import percentile


def zipf_weights(n, s=1.2):
    """Unnormalized Zipf(s) weights over ranks ``1..n``."""
    if n < 1:
        raise ValueError("need at least one rank")
    return [1.0 / (rank ** s) for rank in range(1, n + 1)]


class TrafficReport:
    """Per-request records from one traffic run, plus aggregation."""

    def __init__(self, records, wall_seconds, server):
        self.records = records
        self.wall_seconds = wall_seconds
        self.server = server

    def tenants(self):
        return sorted({r["tenant"] for r in self.records})

    def summary(self):
        """JSON-friendly aggregate: throughput, per-tenant percentiles,
        admission decisions, commit count."""
        per_tenant = {}
        for tenant in self.tenants():
            recs = [r for r in self.records if r["tenant"] == tenant]
            lat = [r["seconds"] for r in recs if r["outcome"] != "shed"]
            outcomes = {}
            for r in recs:
                outcomes[r["outcome"]] = outcomes.get(r["outcome"], 0) + 1
            per_tenant[tenant] = {
                "requests": len(recs),
                "reads": sum(1 for r in recs if r["read"]),
                "writes": sum(1 for r in recs if not r["read"]),
                "outcomes": dict(sorted(outcomes.items())),
                "work": sum(r["work"] for r in recs),
                "p50_seconds": percentile(lat, 0.50),
                "p95_seconds": percentile(lat, 0.95),
                "p99_seconds": percentile(lat, 0.99),
            }
        completed = [r for r in self.records if r["outcome"] != "shed"]
        return {
            "requests": len(self.records),
            "completed": len(completed),
            "shed": len(self.records) - len(completed),
            "wall_seconds": self.wall_seconds,
            "throughput_qps": len(completed) / max(self.wall_seconds, 1e-9),
            "tenants": per_tenant,
            "admission": self.server.admission.stats(),
            "commits": self.server.commit_history()[-1][0],
        }

    def __repr__(self):
        return "TrafficReport(requests=%d, wall=%.2fs)" % (
            len(self.records), self.wall_seconds,
        )


def run_traffic(server, read_pool, write_pool=(), *, n_clients=16,
                requests_per_client=25, n_tenants=4, zipf_s=1.2,
                read_fraction=0.9, seed=None, isolation="statement"):
    """Drive ``server`` with a closed-loop multi-tenant workload.

    Args:
        server: the :class:`~repro.engine.server.QueryServer` under test.
        read_pool: SELECT statements clients sample from.
        write_pool: write statements (INSERT/ANALYZE) clients sample
            from; with an empty pool the workload is read-only
            regardless of ``read_fraction``.
        n_clients: concurrent client threads (each its own session).
        requests_per_client: statements per client (closed loop).
        n_tenants: tenant population; clients choose their tenant once,
            Zipf(``zipf_s``)-weighted, so load across tenants is skewed.
        read_fraction: probability a statement is a read.
        seed: base seed; client ``i`` uses ``Random(seed * 10007 + i)``.
            ``None`` (the default) inherits the engine's configured
            ``EngineConfig.seed``, so one ``REPRO_SEED`` reproduces the
            whole stack — fuzzing and traffic alike.
        isolation: session isolation for the clients.

    Returns:
        a :class:`TrafficReport`.
    """
    if seed is None:
        config = getattr(getattr(server, "db", None), "config", None)
        seed = getattr(config, "seed", 0)
    tenants = ["tenant%02d" % i for i in range(n_tenants)]
    weights = zipf_weights(n_tenants, zipf_s)
    barrier = threading.Barrier(n_clients)
    lock = threading.Lock()
    records = []
    errors = []

    def client(idx):
        rng = random.Random(seed * 10007 + idx)
        tenant = rng.choices(tenants, weights=weights)[0]
        try:
            with server.session(tenant=tenant, isolation=isolation) as sess:
                barrier.wait()
                local = []
                for __ in range(requests_per_client):
                    read = (not write_pool) or rng.random() < read_fraction
                    pool = read_pool if read else write_pool
                    sql = pool[rng.randrange(len(pool))]
                    t0 = time.perf_counter()
                    outcome, work = "shed", 0.0
                    try:
                        result = sess.execute(sql)
                        ticket = sess.last_admission
                        outcome = ticket.outcome if ticket else "admitted"
                        if hasattr(result, "telemetry"):
                            work = result.telemetry.total_work
                        elif ticket is not None:
                            work = ticket.cost
                    except AdmissionError:
                        pass
                    local.append({
                        "client": idx,
                        "tenant": tenant,
                        "read": read,
                        "seconds": time.perf_counter() - t0,
                        "outcome": outcome,
                        "work": work,
                    })
                with lock:
                    records.extend(local)
        except BaseException as exc:  # noqa: BLE001 - reported by caller
            errors.append(exc)

    threads = [threading.Thread(target=client, args=(i,), daemon=True)
               for i in range(n_clients)]
    t_start = time.perf_counter()
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    wall = time.perf_counter() - t_start
    if errors:
        raise errors[0]
    return TrafficReport(records, wall, server)
