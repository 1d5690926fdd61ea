#!/usr/bin/env python3
"""End-to-end serving benchmark: four workloads through ``QueryServer``.

Two ways in (README.md has the details):

* ``python3 benchmarks/e2e/run.py --seed 0`` — everything: interleaved
  rounds of every workload, each round in a fresh subprocess, medians
  with min/max, then one traced run per workload for the per-layer
  numbers. Exits non-zero if any statement failed or any result
  disagreed with the oracle.
* ``... --workload W --seed N --seconds S --trace 0|1`` — one round of
  one workload (what each subprocess above runs, and what a driver
  calls directly). The last stdout line is one JSON object:
  ``{"correct", "attempted", "failed", "metrics"}``; with ``--trace 0``
  the metrics are the end-to-end ones measured with tracing off, with
  ``--trace 1`` the per-layer ones from a traced replay of a fixed
  statement prefix. Exits 1 when a statement failed or disagreed with
  the oracle.

The engine runs with shipped defaults: ``Database()`` with every
``REPRO_*`` variable scrubbed from the environment first. Admission
quotas are set high enough that admission never queues — the admission
*path* is measured, admission *starvation* stays with ``bench_p8``.
"""

import argparse
import collections
import gc
import itertools
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import threading
import time
import traceback

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
OUT_DIR = os.path.join(HERE, "out")

WORKLOADS = ("point_warm", "cold_plan", "scan_agg", "mixed_rw")

#: End-to-end metric names and units, as in ``BENCHMARK.json``.
END_TO_END = (
    ("setup_s", "s"), ("throughput_ops_s", "1/s"), ("p50_ms", "ms"),
    ("p95_ms", "ms"), ("cpu_ms_per_op", "ms"), ("peak_rss_mb", "MB"),
)

#: The timed window runs in slices of this many seconds; between slices
#: the clients pause and the coordinator takes one machine-speed sample
#: (calibrate.py), so every slice's times can be scaled to reference
#: speed by the samples on either side of it.
SLICE_SECONDS = 0.25
#: Rounds per workload in the full run (the smoke run makes one).
ROUNDS = 7
#: Set-ups per round, whoever starts it; ``setup_s`` is their median and
#: the last one serves the timed window.
SETUPS = 3
#: ``mixed_rw`` is count-bound: this many statements per client per
#: second of ``--seconds`` — about what the engine sustained when the
#: benchmark was written, so a round lasts about ``--seconds`` there.
MIXED_RATE = 200
#: Statements per client in the traced replay (fixed, so counts repeat).
TRACE_PREFIX = {"point_warm": 600, "cold_plan": 1000, "scan_agg": 140,
                "mixed_rw": 400}
SMOKE_PREFIX = 50
#: Work-unit quota per tenant: never reached, so admission never queues.
QUOTA = 1e15
BARRIER_TIMEOUT = 170.0
#: Cold statements checked against the oracle per client and window (an
#: evenly spaced sample beyond that, so a much faster planner cannot push
#: the checking past the run's time limit).
COLD_CHECKS = 20_000


def bootstrap():
    """Scrub ``REPRO_*`` and put the engine on ``sys.path``.

    Returns the names of the scrubbed variables. Exits non-zero when
    the checkout holds no engine (e.g. only the benchmark's own files).
    """
    scrubbed = sorted(k for k in os.environ if k.startswith("REPRO_"))
    for key in scrubbed:
        del os.environ[key]
    src = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(src, "repro", "engine")):
        sys.exit("e2e benchmark: no engine under %s — run from a full "
                 "checkout" % src)
    for path in (src, HERE):
        if path not in sys.path:
            sys.path.insert(0, path)
    return scrubbed


def nproc():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def git_sha():
    """HEAD of the checkout, read from ``.git`` directly (no subprocess,
    nothing outside the checkout); ``None`` when it is not a repository."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        try:
            with open(os.path.join(git, ref)) as fh:
                return fh.read().strip()
        except OSError:
            with open(os.path.join(git, "packed-refs")) as fh:
                for line in fh:
                    if line.strip().endswith(" " + ref):
                        return line.split()[0]
    except OSError:
        pass
    return None


def provenance(args, scrubbed, **extra):
    info = {
        "seed": args.seed, "nproc": nproc(),
        "python": platform.python_version(), "numpy": np.__version__,
        "platform": platform.platform(), "git_sha": git_sha(),
        "repro_env_scrubbed": True, "repro_env_removed": scrubbed,
    }
    info.update(extra)
    return info


# ----------------------------------------------------------------------
# One round
# ----------------------------------------------------------------------
class Tally:
    """Attempted/failed bookkeeping with the first few reasons kept."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons = []

    def check(self, ok, reason):
        self.attempted += 1
        if not ok:
            self.fail(reason)

    def fail(self, reason):
        self.failed += 1
        if len(self.reasons) < 5:
            self.reasons.append(reason)


#: One set-up: engine, server, a session per client, the warm statements'
#: rows, the raw set-up seconds, and the machine's mean slowness sampled
#: just before and just after it.
Env = collections.namedtuple(
    "Env", "db server sessions warm_rows seconds slowness")


def setup(data, workload, calibrator):
    """Build, load, index, ANALYZE, construct the server, warm up."""
    import dataset
    from repro.engine import QueryServer

    before = calibrator.mean(3)
    t0 = time.perf_counter()
    db = dataset.build(data)
    server = QueryServer(db, tenant_quota=QUOTA, quota_refill_rate=0.0)
    sessions = [server.session(tenant="t%d" % c)
                for c in range(workload.n_clients)]
    warm_rows = [sessions[0].execute(sql).rows
                 for sql in workload.warmup_sql()]
    seconds = time.perf_counter() - t0
    return Env(db, server, sessions, warm_rows, seconds,
               (before + calibrator.mean(3)) / 2)


class Window:
    """What the coordinator and the clients share during a timed window."""

    def __init__(self, n_clients):
        self.barrier = threading.Barrier(n_clients + 1)
        self.stop = False


class Client(threading.Thread):
    """One closed-loop client: issue, wait for the reply, check, repeat.

    Clients meet the coordinator at the window's barrier before and
    after every slice, so slices are timed (and calibrated) from outside
    while no client runs. A slice ends at its deadline or when the
    client's ops run out.
    """

    def __init__(self, idx, session, ops, golden_rows, ledger, window,
                 tracer=None, stats=None):
        super().__init__(name="client-%d" % idx)
        self.idx = idx
        self.session = session
        self.ops = ops
        self.golden_rows = golden_rows
        self.ledger = ledger
        self.window = window
        self.tracer = tracer
        self.stats = stats
        self.tally = Tally()
        self.slices = []
        self.cold = []
        self.own_rows = {}
        self.exhausted = False
        self.error = None
        self._n = 0

    def run(self):
        barrier = self.window.barrier
        try:
            while True:
                barrier.wait(BARRIER_TIMEOUT)
                if self.window.stop:
                    return
                self.slices.append(self._run_slice())
                barrier.wait(BARRIER_TIMEOUT)
        except Exception:  # boundary: report, release the coordinator
            self.error = traceback.format_exc()
            barrier.abort()

    def _run_slice(self):
        clock = time.perf_counter
        session, tracer, tally = self.session, self.tracer, self.tally
        latencies = []
        deadline = clock() + SLICE_SECONDS
        for kind, arg, check in self.ops:
            self._n += 1
            tally.attempted += 1
            if tracer is not None:
                tracer.begin_statement(self._n, self.idx)
            t0 = clock()
            try:
                if kind == "insert_rows":
                    out = session.insert_rows(*arg)
                else:
                    out = session.execute(arg)
            except Exception:  # boundary: a failed statement is a result
                t1 = clock()
                tally.fail("%s raised: %s" % (
                    kind, traceback.format_exc(limit=3)))
            else:
                t1 = clock()
                latencies.append(t1 - t0)
                if not self._check(check, out):
                    tally.fail("wrong reply to %s %r" % (
                        kind, arg if isinstance(arg, str) else arg[0]))
                if self.stats is not None:
                    self._collect(kind, out)
            if t1 >= deadline:
                break
        else:
            self.exhausted = True
        return latencies

    def _check(self, check, out):
        tag = check[0]
        if tag == "golden":
            return out.rows == self.golden_rows[check[1]]
        if tag == "cold":
            self.cold.append((check[1], out.rows))
            return True
        if tag == "count":
            table = check[1]
            return self.ledger.count_ok(
                self.idx, table, out.rows[0][0],
                self.own_rows.get(table, 0))
        if tag == "shape":
            return len(out.rows) == 1 and len(out.rows[0]) == check[1]
        __, expected, table, rows = check
        if table is not None:
            self.own_rows[table] = self.own_rows.get(table, 0) + len(rows)
            if self.stats is not None:
                self.stats.add("rows_inserted", len(rows))
        return out == expected

    def _collect(self, kind, out):
        """Sum the reply's own telemetry (traced replay only). Every
        field is read with ``getattr``/``.get``: one that a later
        refactor renamed reads ``None``, which nulls the layer metrics
        derived from it and nothing else."""
        stats = self.stats
        ticket = getattr(self.session, "last_admission", None)
        if ticket is not None:
            stats.add("queue_wait", getattr(ticket, "queue_wait", None))
        if kind != "read":
            return
        telemetry = getattr(out, "telemetry", None)
        work = getattr(telemetry, "total_work", None)
        fused = getattr(telemetry, "fused_ops", None)
        stats.add("reads", 1)
        stats.add("work", work)
        stats.add("rows_returned", len(out.rows))
        stats.add("fused", None if fused is None else bool(fused))
        for name in ("bytes_decoded", "segments_total", "segments_pruned"):
            stats.add(name, getattr(telemetry, name, None))
        operators = getattr(telemetry, "operators", None)
        if not isinstance(operators, dict):
            stats.add("operators", None)
        else:
            for op, entry in operators.items():
                stats.add("operators." + op, (
                    entry.get("seconds") if isinstance(entry, dict)
                    else None))
        cost = getattr(ticket, "cost", None)
        if cost is not None and work is not None:
            est, actual = max(cost, 1.0), max(work, 1.0)
            stats.cost_q_errors.append(max(est / actual, actual / est))


#: One timed slice across all clients; ``slowness`` is the machine's,
#: from the calibration readings taken just before and after it.
Slice = collections.namedtuple("Slice", "wall cpu slowness latencies")


class Timed:
    """The statistics of one timed window, raw and at reference speed."""

    def __init__(self, slices):
        self.slices = slices
        self.n = sum(len(s.latencies) for s in slices)
        if not self.n:
            raise RuntimeError("no statement completed")
        self.wall = sum(s.wall for s in slices)
        #: Time-weighted slowness of the whole window.
        self.slowness = self.wall / sum(s.wall / s.slowness for s in slices)

    def metrics(self, scaled=True):
        """Throughput, latency percentiles and CPU per statement; with
        ``scaled`` every slice's times are divided by its slowness."""
        def f(s):
            return s.slowness if scaled else 1.0

        p50, p95 = np.quantile(
            [x / f(s) for s in self.slices for x in s.latencies],
            (0.5, 0.95))
        return {
            "throughput_ops_s": self.n / sum(
                s.wall / f(s) for s in self.slices),
            "p50_ms": float(p50) * 1e3,
            "p95_ms": float(p95) * 1e3,
            "cpu_ms_per_op": sum(
                s.cpu / f(s) for s in self.slices) * 1e3 / self.n,
        }

    def mean_latency(self):
        """Mean latency at reference speed, seconds."""
        return sum(x / s.slowness for s in self.slices
                   for x in s.latencies) / self.n


def drive(env, workload, golden_rows, ledger, calibrator, seconds=None,
          limit=None, tracer=None, collect=False):
    """Run the clients through one timed window.

    Time-bound when ``seconds`` is given; otherwise the window lasts
    until every client has issued all its ops (``limit`` per client, or
    the workload's own fixed count). Returns ``(Timed, clients)``.
    """
    from layers import ReplayStats

    window = Window(workload.n_clients)
    barrier = window.barrier
    n_slices = (None if seconds is None
                else max(1, int(round(seconds / SLICE_SECONDS))))
    clients = [
        Client(c, env.sessions[c],
               (workload.ops(c) if limit is None
                else itertools.islice(workload.ops(c), limit)),
               golden_rows, ledger, window, tracer=tracer,
               stats=ReplayStats() if collect else None)
        for c in range(workload.n_clients)
    ]
    for client in clients:
        client.start()
    marks = [calibrator.sample()]
    timings = []
    complete = False
    try:
        while not complete:
            barrier.wait(BARRIER_TIMEOUT)
            t0, c0 = time.perf_counter(), time.process_time()
            barrier.wait(BARRIER_TIMEOUT)
            timings.append((time.perf_counter() - t0,
                            time.process_time() - c0))
            marks.append(calibrator.sample())
            complete = (len(timings) == n_slices if n_slices
                        else all(c.exhausted for c in clients))
        window.stop = True
        barrier.wait(BARRIER_TIMEOUT)  # releases the clients to exit
    except threading.BrokenBarrierError:
        complete = False
    finally:
        for client in clients:
            client.join(BARRIER_TIMEOUT)
    errors = [c.error for c in clients if c.error]
    if errors or not complete or any(c.is_alive() for c in clients):
        raise RuntimeError("load generator failed:\n%s" % "\n".join(errors))
    return Timed([
        Slice(wall, cpu, (marks[b] + marks[b + 1]) / 2,
              [x for c in clients for x in c.slices[b]])
        for b, (wall, cpu) in enumerate(timings)
    ]), clients


def new_ledger(workload, data):
    """The oracle-side ledger of one ``mixed_rw`` replay (else ``None``)."""
    from dataset import W_TABLES
    from oracle import MixedLedger

    if workload.fixed_count is None:
        return None
    return MixedLedger(data, W_TABLES, workload.writes())


def verify_warmup(workload, data, env, tally):
    """Every distinct warm statement against the oracle; returns the
    engine's rows, which each timed repeat must then equal exactly."""
    from oracle import evaluate, rows_match

    golden_rows = env.warm_rows[:len(workload.golden)]
    for query, sql, rows in zip(workload.golden, workload.golden_sql,
                                golden_rows):
        tally.check(rows_match(rows, evaluate(query, data.tables)),
                    "oracle mismatch on %r" % sql)
    return golden_rows


def verify_after(workload, data, env, ledger, clients, tally):
    """Post-window checks: every cold statement against the oracle, and
    the ``mixed_rw`` end state against the ledger."""
    from dataset import W_TABLES
    from oracle import evaluate, rows_match

    for client in clients:
        tally.attempted += client.tally.attempted
        tally.failed += client.tally.failed
        tally.reasons += client.tally.reasons[:5 - len(tally.reasons)]
        stride = -(-len(client.cold) // COLD_CHECKS) or 1
        for i, rows in client.cold[::stride]:
            tally.check(
                rows_match(rows, evaluate(workload.query(i), data.tables)),
                "oracle mismatch on cold statement %d" % i)
    if ledger is not None:
        for table in W_TABLES:
            rows = env.sessions[0].execute(
                "SELECT COUNT(*), SUM(%s.k) FROM %s" % (table, table)).rows
            tally.check(rows == ledger.final_rows(table),
                        "%s holds %r, expected %r" % (
                            table, rows, ledger.final_rows(table)))
        commits = env.server.commit_history()[-1][0]
        tally.check(commits == ledger.commits,
                    "%d commits logged, %d writes issued" % (
                        commits, ledger.commits))


def mixed_count(seconds):
    count = max(8, int(round(seconds * MIXED_RATE)))
    return count if count < 100 else count // 100 * 100


def measured_round(args, data):
    """``--trace 0``: set up, measure with tracing off, verify."""
    import workloads
    from calibrate import Calibrator

    tally = Tally()
    calibrator = Calibrator()
    per_client = (mixed_count(args.seconds)
                  if args.workload == "mixed_rw" else None)
    workload = workloads.make(args.workload, args.seed, data,
                              n_clients=min(2, nproc()),
                              per_client=per_client)
    ledger = new_ledger(workload, data)
    setups = []
    env = None
    for __ in range(SETUPS):
        env = None
        gc.collect()
        env = setup(data, workload, calibrator)
        setups.append((env.seconds, env.slowness))
    golden_rows = verify_warmup(workload, data, env, tally)
    timed, clients = drive(
        env, workload, golden_rows, ledger, calibrator,
        seconds=args.seconds if per_client is None else None)
    verify_after(workload, data, env, ledger, clients, tally)

    values = {"setup_s": statistics.median(t / f for t, f in setups)}
    values.update(timed.metrics())
    values["peak_rss_mb"] = resource.getrusage(
        resource.RUSAGE_SELF).ru_maxrss / 1024.0
    raw = {"setup_s": statistics.median(t for t, __ in setups)}
    raw.update(timed.metrics(scaled=False))
    detail = {
        "clients": workload.n_clients,
        "raw": raw,
        "slowness": {"window": timed.slowness,
                     "setups": [f for __, f in setups]},
        "window_seconds": timed.wall,
        "samples": {"statements": timed.n, "beyond_p95": timed.n // 20,
                    "slices": len(timed.slices), "setup_s": len(setups)},
    }
    return values, dict(END_TO_END), tally, detail


_WARNED = set()


def warn_once(what, exc):
    if what not in _WARNED:
        _WARNED.add(what)
        print("trace: %s unavailable (%s: %s); its metrics read null"
              % (what, type(exc).__name__, exc), file=sys.stderr)


def guarded(what, read, default=None):
    """``read()``, or ``default`` with one warning line per ``what``.

    The traced run reads engine surfaces a later refactor may rename;
    such a reading becomes ``None`` (its layer metrics read ``null``)
    and everything else goes on.
    """
    try:
        return read()
    except Exception as exc:  # boundary: whatever the refactor broke
        warn_once(what, exc)
        return default


def compare_paths(env, workload, tally):
    """The same reads by three routes, tracing off: the server session,
    the embedded ``Database.execute``, and a gated session (permissive
    policy plus audit log). Each statement's median latency per route is
    compared with its own median on the other routes, so a mix of cheap
    and dear statements does not blur the ratio. Only the session route
    is the system under test: a side route that is gone or raises is
    dropped, and the metrics that need it read ``null``."""
    from dataset import W_TABLES
    from oracle import render

    def gated():
        from repro.engine.session import AuditLog, Policy
        return env.sessions[0].session_context(
            policy=Policy.unrestricted(), audit=AuditLog()).execute

    routes = {"session": env.sessions[0].execute,
              "embedded": guarded("embedded route", lambda: env.db.execute),
              "gated": guarded("gated route", gated)}
    routes = {key: fn for key, fn in routes.items() if fn is not None}
    if workload.golden:
        sqls = list(workload.golden_sql)
        if workload.fixed_count is not None:
            sqls += ["SELECT COUNT(*) FROM %s" % t for t in W_TABLES]
        samples = {key: sqls for key in routes}
    else:
        # Cold statements stay cold only if no route repeats another's;
        # statement i of each route fills the same slot of the pattern.
        samples = {
            key: [render(workload.query(10_000_000 * (j + 1) + i))
                  for i in range(150)]
            for j, key in enumerate(routes)
        }
    n = len(samples["session"])
    reps = max(3, -(-30 // n))
    timings = {key: [[] for __ in range(n)] for key in routes}
    order = list(routes)
    clock = time.perf_counter
    for __ in range(reps):
        for i in range(n):
            order.append(order.pop(0))  # no route always runs warmest
            for key in [k for k in order if k in routes]:
                if key == "session":
                    tally.attempted += 1
                t0 = clock()
                try:
                    routes[key](samples[key][i])
                except Exception as exc:  # boundary: see the docstring
                    if key == "session":
                        tally.fail("session route raised: %s" % (
                            traceback.format_exc(limit=3)))
                    else:
                        del routes[key], timings[key]
                        warn_once(key + " route", exc)
                else:
                    timings[key][i].append(clock() - t0)
    medians = {key: [statistics.median(t) if t else None for t in per]
               for key, per in timings.items()}

    def paired(fn, other):
        pairs = [fn(a, b) for a, b in zip(medians["session"],
                                          medians.get(other, ()))
                 if a is not None and b is not None]
        return statistics.median(pairs) if pairs else None

    flat = [t for per in timings.get("embedded", ()) for t in per]
    return {
        "snapshot_penalty": paired(lambda s, e: s / e, "embedded"),
        "gated_extra": paired(lambda s, g: g - s, "gated"),
        "embedded_p50": statistics.median(flat) if flat else None,
    }


def counters(env):
    """Cache, admission and storage counters read off public surfaces,
    each group on its own so that one renamed surface nulls only its own
    metrics."""
    db, server = env.db, env.server

    def cache(name):
        stats = getattr(db.pipeline, name).stats()
        return (stats["hits"], stats["hits"] + stats["misses"],
                stats["invalidations"])

    def admission():
        tenants = list(server.admission.stats().values())
        return (sum(t["queued"] for t in tenants),
                sum(t["shed"] for t in tenants))

    def storage():
        tables = [db.catalog.table(t) for t in db.catalog.table_names()]
        return (sum(t.n_rows // t.segment_rows for t in tables),
                sum(t.encoded_bytes() for t in tables)
                / max(sum(t.n_rows for t in tables), 1))

    plan = guarded("plan cache counters", lambda: cache("plan_cache"),
                   (None,) * 3)
    query = guarded("query cache counters", lambda: cache("query_cache"),
                    (None,) * 3)
    queued, shed = guarded("admission counters", admission, (None, None))
    seals, bytes_per_row = guarded("storage counters", storage, (None, None))
    return {
        "plan_hits": plan[0], "plan_lookups": plan[1],
        "plan_invalidations": plan[2],
        "query_hits": query[0], "query_lookups": query[1],
        "queued": queued, "shed": shed,
        "commits": guarded("commit history",
                           lambda: server.commit_history()[-1][0]),
        "seals": seals,
    }, bytes_per_row


def traced_round(args, data):
    """``--trace 1``: replay a fixed statement prefix with tracing off,
    on, and off again (fresh set-up each, so cold statements stay cold
    and writes start from the same state) and derive the layer metrics."""
    import layers
    import workloads
    from calibrate import Calibrator
    from spans import Tracer

    tally = Tally()
    calibrator = Calibrator()
    prefix = SMOKE_PREFIX if args.smoke else TRACE_PREFIX[args.workload]
    workload = workloads.make(args.workload, args.seed, data,
                              n_clients=min(2, nproc()), per_client=prefix)
    tracer = Tracer()
    means = {False: [], True: []}
    work = []
    # Untraced, traced, untraced: a process runs faster once warm, and
    # the traced replay sits between the two it is compared with.
    for traced in (False, True, False):
        gc.collect()
        env = setup(data, workload, calibrator)
        golden_rows = verify_warmup(workload, data, env, tally)
        ledger = new_ledger(workload, data)
        if traced:
            before, __ = counters(env)
            tracer.install()
        try:
            timed, clients = drive(
                env, workload, golden_rows, ledger, calibrator,
                limit=prefix, tracer=tracer if traced else None,
                collect=True)
        finally:
            tracer.uninstall()
        replay = layers.ReplayStats()
        for client in clients:
            replay.merge(client.stats)
        work.append(replay.get("work"))
        if traced:
            after, bytes_per_row = counters(env)
            slowness, n_statements = timed.slowness, timed.n
            stats = replay
        verify_after(workload, data, env, ledger, clients, tally)
        means[traced].append(timed.mean_latency())
    latency = {"traced_mean": means[True][0],
               "untraced_mean": statistics.fmean(means[False])}
    mark = calibrator.mean(3)
    routes = compare_paths(env, workload, tally)
    route_slowness = (mark + calibrator.mean(3)) / 2
    for key in ("gated_extra", "embedded_p50"):
        if routes[key] is not None:
            routes[key] /= route_slowness
    latency.update(routes)
    deltas = {k: None if None in (after[k], before[k])
              else after[k] - before[k] for k in after}
    deltas["encoded_bytes_per_row"] = bytes_per_row
    values = layers.compute(tracer, stats, deltas, latency, slowness)
    if args.spans_out:
        os.makedirs(os.path.dirname(os.path.abspath(args.spans_out)),
                    exist_ok=True)
        tracer.write_jsonl(args.spans_out)
    units = {name: unit for name, unit, __, __ in layers.LAYER_METRICS}
    n_spans = sum(len(spans) for spans in tracer.threads())
    detail = {
        "clients": workload.n_clients,
        "slowness": {"window": slowness, "routes": route_slowness},
        "samples": {"statements": n_statements, "spans": n_spans},
        "missing_layers": sorted(tracer.missing),
        # The executor's work summed over each of the three replays: the
        # same statements from the same state, so with one client the
        # three must be equal.
        "work_replays": work,
    }
    return values, units, tally, detail


def run_round(args, scrubbed):
    """One round of one workload; prints the result line last."""
    import dataset

    data = dataset.generate(
        args.seed, f_segments=1 if args.smoke else dataset.F_SEGMENTS)
    run = traced_round if args.trace else measured_round
    values, units, tally, detail = run(args, data)
    detail["provenance"] = provenance(
        args, scrubbed, workload=args.workload, seconds=args.seconds,
        trace=args.trace, smoke=args.smoke)
    for name, value in values.items():
        print("%-12s %-36s %s %s" % (
            args.workload, name,
            "null" if value is None else "%.6g" % value, units[name]))
    for reason in tally.reasons:
        print("FAILED: %s" % reason, file=sys.stderr)
    print("detail: " + json.dumps(detail))
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in values.items()},
    }))
    return 1 if tally.failed else 0


# ----------------------------------------------------------------------
# Everything: interleaved rounds in subprocesses, then the traced runs
# ----------------------------------------------------------------------
def child(args, workload, seconds, trace):
    """Run one round in a fresh interpreter; returns its parsed output."""
    cmd = [sys.executable, os.path.abspath(__file__),
           "--workload", workload, "--seed", str(args.seed),
           "--seconds", repr(seconds), "--trace", str(trace)]
    if args.smoke:
        cmd.append("--smoke")
    if trace:
        cmd += ["--spans-out", os.path.join(
            os.path.dirname(os.path.abspath(args.out)),
            "spans-%s.jsonl" % workload)]
    done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT,
                          timeout=600)
    lines = done.stdout.strip().splitlines()
    try:  # exit code 1 with a result line: statements failed, and it says so
        result = json.loads(lines[-1])
        result["metrics"], result["failed"], result["attempted"]
    except (IndexError, ValueError, KeyError, TypeError):
        raise RuntimeError("round gave no result (exit %d): %s" % (
            done.returncode, " ".join(cmd))) from None
    result["detail"] = next(
        (json.loads(line[8:]) for line in reversed(lines)
         if line.startswith("detail: ")), {})
    return result


def summarise(rounds, raw=False):
    """Median/min/max of every metric over a workload's rounds; with
    ``raw`` of the unscaled times the rounds carry beside them."""
    out = {}
    for name in (rounds[0]["detail"]["raw"] if raw
                 else rounds[0]["metrics"]):
        values = [r["detail"]["raw"][name] if raw
                  else r["metrics"][name]["value"] for r in rounds]
        known = [v for v in values if v is not None]
        out[name] = {
            "unit": rounds[0]["metrics"][name]["unit"],
            "median": statistics.median(known) if known else None,
            "min": min(known) if known else None,
            "max": max(known) if known else None,
            "rounds": values,
        }
    return out


def purpose_checks(layer, detail):
    """Does the trace bear out why each workload exists? Reported, not
    enforced: a later engine change may legitimately move a share."""
    def value(workload, name):
        return layer[workload][name]["median"]

    def work_repeats(workload):
        work = detail[workload].get("work_replays") or [None]
        return None if None in work else float(len(set(work)) == 1)

    checks = [
        ("point_warm plan-cache hit rate >= 0.99",
         value("point_warm", "pipeline.plan_cache.hit_rate"), ">=", 0.99),
        ("cold_plan plan-cache hit rate <= 0.01",
         value("cold_plan", "pipeline.plan_cache.hit_rate"), "<=", 0.01),
        ("cold_plan time under pipeline.prepare >= 0.5",
         value("cold_plan", "pipeline.prepare.share"), ">=", 0.5),
        ("scan_agg time under pipeline.prepare <= 0.05",
         value("scan_agg", "pipeline.prepare.share"), "<=", 0.05),
        ("scan_agg time under executor.execute >= 0.9",
         value("scan_agg", "executor.execute.share"), ">=", 0.9),
        ("mixed_rw seals >= 1", value("mixed_rw", "storage.seals"), ">=", 1),
        ("mixed_rw plan-cache invalidations > 0",
         value("mixed_rw", "pipeline.plan_cache.invalidations"), ">=", 1),
    ]
    for workload in WORKLOADS:
        if workload != "mixed_rw":
            checks.append((
                "%s seals and invalidations == 0" % workload,
                (value(workload, "storage.seals") or 0) + (value(
                    workload, "pipeline.plan_cache.invalidations") or 0),
                "<=", 0))
            checks.append((
                "%s executor work equal in all three replays" % workload,
                work_repeats(workload), ">=", 1))
        checks.append(("%s unattributed share <= 0.2" % workload,
                       value(workload, "trace.unattributed_share"),
                       "<=", 0.2))
    out = []
    for text, got, op, want in checks:
        if got is None:
            verdict = "unknown"
        else:
            verdict = "ok" if (got >= want if op == ">=" else
                               got <= want) else "NOT MET"
        out.append({"check": text, "value": got, "verdict": verdict})
    return out


def run_all(args, scrubbed):
    """Interleaved rounds of every workload, then the traced runs."""
    from layers import LAYER_METRICS

    rounds, seconds = (1, 0.3) if args.smoke else (ROUNDS, args.seconds)
    os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
    measured = {w: [] for w in WORKLOADS}
    if not args.traced:
        for r in range(rounds):
            for w in WORKLOADS:
                print("round %d/%d %s" % (r + 1, rounds, w),
                      file=sys.stderr)
                measured[w].append(child(args, w, seconds, 0))
    traced = {}
    for w in WORKLOADS:
        print("traced %s" % w, file=sys.stderr)
        try:
            traced[w] = child(args, w, seconds, 1)
        except Exception as exc:  # boundary: the trace reads internals
            # that a later refactor may move; the measured rounds stand.
            print("traced run of %s failed (%s); its per-layer metrics "
                  "read null" % (w, exc), file=sys.stderr)
            traced[w] = {
                "failed": 0, "attempted": 0, "detail": {},
                "metrics": {name: {"value": None, "unit": unit}
                            for name, unit, __, __ in LAYER_METRICS}}

    report = {
        "provenance": provenance(
            args, scrubbed, rounds=rounds, round_seconds=seconds,
            slice_seconds=SLICE_SECONDS, smoke=args.smoke,
            clients={w: (measured[w] or [traced[w]])[0]["detail"].get(
                "clients") for w in WORKLOADS}),
        "workloads": {},
    }
    failed = attempted = 0
    for w in WORKLOADS:
        runs = measured[w] + [traced[w]]
        w_failed = sum(r["failed"] for r in runs)
        w_attempted = sum(r["attempted"] for r in runs)
        failed += w_failed
        attempted += w_attempted
        entry = {
            "per_layer": summarise([traced[w]]),
            "failed_share": w_failed / max(w_attempted, 1),
            "attempted": w_attempted,
            "samples": {
                "rounds": len(measured[w]),
                "per_round": [r["detail"].get("samples")
                              for r in measured[w]],
                "traced": traced[w]["detail"].get("samples"),
            },
            "missing_layers": traced[w]["detail"].get("missing_layers"),
        }
        if measured[w]:
            entry["end_to_end"] = summarise(measured[w])
            entry["end_to_end_raw"] = summarise(measured[w], raw=True)
        report["workloads"][w] = entry
    report["purpose"] = purpose_checks(
        {w: report["workloads"][w]["per_layer"] for w in WORKLOADS},
        {w: traced[w]["detail"] for w in WORKLOADS})

    print("# provenance: " + json.dumps(report["provenance"]))
    fmt = "%-11s %-36s %-7s %12s %12s %12s  n=%d"
    for section in ("end_to_end", "per_layer"):
        print("# %s: workload, metric, unit, median, min, max, rounds" %
              section)
        for w in WORKLOADS:
            for name, s in report["workloads"][w].get(section, {}).items():
                cells = ["null" if s[k] is None else "%.6g" % s[k]
                         for k in ("median", "min", "max")]
                print(fmt % ((w, name, s["unit"]) + tuple(cells)
                             + (len(s["rounds"]),)))
    print("# failed_share: errors, shed statements and oracle mismatches "
          "over statements attempted (must be 0)")
    for w in WORKLOADS:
        e = report["workloads"][w]
        print("%-11s %-36s %-7s %12.6g  n=%d" % (
            w, "failed_share", "share", e["failed_share"], e["attempted"]))
    print("# purpose: does the trace bear out why each workload exists?")
    for check in report["purpose"]:
        print("%-8s %s (got %s)" % (
            check["verdict"], check["check"],
            "null" if check["value"] is None else "%.4g" % check["value"]))
    with open(args.out, "w") as fh:
        json.dump(report, fh, indent=1)
    print("# wrote %s" % os.path.relpath(args.out))
    return 1 if failed else 0


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=WORKLOADS,
                   help="run one round of this workload (default: all)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=4.0,
                   help="timed seconds per round")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0,
                   help="1: traced replay, per-layer metrics")
    p.add_argument("--spans-out", help="write the spans here as JSON lines")
    p.add_argument("--traced", action="store_true",
                   help="all workloads: only the traced runs")
    p.add_argument("--smoke", action="store_true",
                   help="tiny sizes: 0.3 s, 1 round, 50-statement trace")
    p.add_argument("--out", default=None,
                   help="all workloads: where the JSON report goes")
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    if args.out is None:
        args.out = os.path.join(OUT_DIR, "result-seed%d.json" % args.seed)
    return args


def main(argv=None):
    args = parse_args(argv)
    scrubbed = bootstrap()
    if args.workload:
        return run_round(args, scrubbed)
    return run_all(args, scrubbed)


if __name__ == "__main__":
    sys.exit(main())
