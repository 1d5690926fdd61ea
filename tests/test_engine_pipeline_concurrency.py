"""Thread-safety stress tests for the PR 2 plan cache and pipeline.

The plan cache is shared by every thread that calls ``Database.execute``.
These tests hammer it from N query threads while a mutation thread bumps
table versions (INSERT + ANALYZE on a *different* table, so the queried
data never changes), asserting:

* no thread ever observes a wrong result (a stale plan served after a
  version bump would still be correct here by construction — what we check
  is that nothing crashes, results stay exact, and invalidations are
  actually recorded);
* the cache's counters stay consistent with the operations performed
  (``hits + misses == lookups``), which the pre-lock implementation could
  violate via its lookup-then-delete race;
* concurrent execution works: all query threads share the database's
  one ``Executor``, whose per-run state is thread-local.

Synchronization discipline (PR 8): all threads release from one
``threading.Barrier`` so the race window opens simultaneously, and query
threads wait on a ``first_mutation`` event before their final rounds —
the overlap is *proven* by events, never assumed from sleeps. Tier-1
sizes stay small; the ``slow``-marked variants turn the same harness up
for ``make test-concurrency``.
"""

import sys
import threading

import pytest

from repro.common import CatalogError
from repro.engine import Database
from repro.engine.plancache import PlanCache

N_THREADS = 4
ROUNDS_PER_THREAD = 20
#: Rounds every query thread runs *after* the first epoch bump has
#: provably happened (it waits on the mutator's event).
POST_MUTATION_ROUNDS = 3

HEAVY_THREADS = 8
HEAVY_ROUNDS = 100


def _build_db():
    db = Database()
    db.execute("CREATE TABLE a (id INT, k INT, v FLOAT)")
    db.catalog.table("a").insert_rows(
        [(i, i % 7, float(i % 11)) for i in range(400)]
    )
    db.execute("CREATE TABLE b (id INT)")
    db.catalog.table("b").insert_rows([(i,) for i in range(10)])
    db.execute("ANALYZE")
    return db


QUERIES = [
    ("SELECT COUNT(*) FROM a", [(400,)]),
    ("SELECT COUNT(*) FROM a WHERE k = 3", [(57,)]),
    ("SELECT k, COUNT(*) FROM a WHERE k < 2 GROUP BY k ORDER BY k",
     [(0, 58), (1, 57)]),
]


def _race_queries_against_mutator(db, n_threads, rounds):
    """Race ``n_threads`` query loops against a version-bumping mutator.

    Every thread starts from one barrier; the mutator sets
    ``first_mutation`` after its first INSERT+ANALYZE and keeps mutating
    until the query threads finish, and each query thread waits for that
    event before running its last ``POST_MUTATION_ROUNDS`` rounds — so
    mutation provably overlaps querying in every run, no sleeps involved.

    Returns the number of query rounds executed (all threads combined).
    """
    errors = []
    stop = threading.Event()
    first_mutation = threading.Event()
    barrier = threading.Barrier(n_threads + 1)

    def query_loop():
        try:
            barrier.wait()
            for i in range(rounds):
                sql, expected = QUERIES[i % len(QUERIES)]
                res = db.execute(sql)
                assert res.rows == expected, (sql, res.rows)
            # The provably-raced phase: these rounds run strictly after
            # at least one version bump, while bumps keep coming.
            assert first_mutation.wait(timeout=30.0), "mutator never ran"
            for i in range(POST_MUTATION_ROUNDS):
                sql, expected = QUERIES[i % len(QUERIES)]
                res = db.execute(sql)
                assert res.rows == expected, (sql, res.rows)
        except BaseException as exc:  # noqa: BLE001 - reported below
            errors.append(exc)

    def mutation_loop():
        # Bump versions via a table the queries never touch: writes race
        # the queries without changing any expected result.
        try:
            barrier.wait()
            while not stop.is_set():
                db.catalog.table("b").insert_rows([(999,)])
                db.execute("ANALYZE b")
                first_mutation.set()
        except BaseException as exc:  # noqa: BLE001 - reported below
            errors.append(exc)
            first_mutation.set()  # never leave query threads waiting

    threads = [threading.Thread(target=query_loop)
               for __ in range(n_threads)]
    mutator = threading.Thread(target=mutation_loop)
    mutator.start()
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    stop.set()
    mutator.join()
    assert not errors, errors[0]
    assert first_mutation.is_set()
    return n_threads * (rounds + POST_MUTATION_ROUNDS)


class TestConcurrentExecution:
    def test_queries_with_concurrent_epoch_bumps(self):
        db = _build_db()
        _race_queries_against_mutator(db, N_THREADS, ROUNDS_PER_THREAD)
        stats = db.pipeline.plan_cache.stats()
        # The mutator provably raced the queries (the event-ordered
        # post-mutation rounds), so stale plans were really invalidated.
        assert stats["invalidations"] + stats["misses"] >= len(QUERIES)
        assert stats["hits"] + stats["misses"] > 0

    @pytest.mark.slow
    def test_heavy_epoch_bump_race(self):
        db = _build_db()
        total = _race_queries_against_mutator(
            db, HEAVY_THREADS, HEAVY_ROUNDS
        )
        stats = db.pipeline.plan_cache.stats()
        assert stats["hits"] + stats["misses"] == total

    def test_no_stale_result_after_mutation_barrier(self):
        """Sequential check the stress test can't do: after the mutation
        thread is quiesced, a fresh query must see the new data."""
        db = _build_db()
        assert db.query("SELECT COUNT(*) FROM a")[0][0] == 400

        done = threading.Event()

        def mutate():
            db.catalog.table("a").insert_rows([(1000, 3, 1.0)])
            db.execute("ANALYZE a")
            done.set()

        t = threading.Thread(target=mutate)
        t.start()
        done.wait()
        t.join()
        assert db.query("SELECT COUNT(*) FROM a")[0][0] == 401


class TestPerTableIsolation:
    """The PR 7 contract: a writer hammering table ``b`` must never evict
    cached plans for queries that touch only table ``a``."""

    def _race_warm(self, db, n_threads, rounds):
        # Warm every a-only plan, then zero the counters so the assertion
        # window covers exactly the raced phase.
        for sql, __ in QUERIES:
            db.execute(sql)
        db.pipeline.plan_cache.reset_counters()
        return _race_queries_against_mutator(db, n_threads, rounds)

    def test_writer_on_b_never_evicts_plans_for_a(self):
        db = _build_db()
        total = self._race_warm(db, N_THREADS, ROUNDS_PER_THREAD)
        stats = db.pipeline.plan_cache.stats()
        # Every raced query ran against a warm plan: the writer on b bumps
        # only b's version, so a-scoped tokens never drift.
        assert stats["invalidations"] == 0, stats
        assert stats["misses"] == 0, stats
        assert stats["hits"] == total, stats

    @pytest.mark.slow
    def test_heavy_writer_isolation(self):
        db = _build_db()
        total = self._race_warm(db, HEAVY_THREADS, HEAVY_ROUNDS)
        stats = db.pipeline.plan_cache.stats()
        assert stats["invalidations"] == 0, stats
        assert stats["misses"] == 0, stats
        assert stats["hits"] == total, stats


class TestPlanCacheHammer:
    """Raw PlanCache under concurrent get/put/clear from many threads."""

    def _hammer_counters(self, n_threads, n_ops):
        cache = PlanCache(capacity=8)
        lookups = []
        lock = threading.Lock()
        barrier = threading.Barrier(n_threads)
        errors = []

        def worker(wid):
            try:
                barrier.wait()
                local_lookups = 0
                for i in range(n_ops):
                    key = "q%d" % (i % 12)
                    epoch = (i // 50) % 3  # epochs drift => invalidations
                    if cache.get(key, epoch) is None:
                        cache.put(key, "plan-%d-%d" % (wid, i), epoch)
                    local_lookups += 1
                    if i % 97 == 0:
                        cache.clear()
                with lock:
                    lookups.append(local_lookups)
            except BaseException as exc:  # noqa: BLE001 - reported below
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(w,))
                   for w in range(n_threads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors, errors[0]
        stats = cache.stats()
        assert stats["hits"] + stats["misses"] == sum(lookups)
        assert stats["invalidations"] >= 1
        assert len(cache) <= cache.capacity

    def test_counters_stay_consistent(self):
        self._hammer_counters(n_threads=8, n_ops=400)

    @pytest.mark.slow
    def test_counters_stay_consistent_heavy(self):
        self._hammer_counters(n_threads=16, n_ops=4000)

    def test_concurrent_epoch_churn_never_serves_stale(self):
        """Entries stored under one epoch must never be returned under
        another, no matter how the threads interleave."""
        cache = PlanCache(capacity=32)
        errors = []
        n_threads = 6
        barrier = threading.Barrier(n_threads)

        def worker(wid):
            try:
                barrier.wait()
                for i in range(300):
                    epoch = i % 5
                    value = ("v", epoch)
                    got = cache.get("shared", epoch)
                    if got is not None:
                        # The entry must have been stored under this epoch.
                        assert got[1] == epoch, got
                    else:
                        cache.put("shared", value, epoch)
            except BaseException as exc:  # noqa: BLE001 - reported below
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(w,))
                   for w in range(n_threads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors, errors[0]


class TestShapeBindingUnderDDL:
    """Threads bind one statement shape while another thread drops and
    re-creates its two tables, moving the column ``v`` from ``s`` to
    ``r`` and back in turn (the unqualified ``v`` resolves in either
    schema; the lowered query carries the table that owns it). Whenever
    no DDL ran during a call, the query must carry the owner in the
    schema that stood throughout — a template lowered against an earlier
    schema would carry the other one.

    The DDL thread starts a generation only once a template has been
    hit since the last one, and ``first_ddl`` fires on the first DDL
    that follows such a hit: that hit's template is then stale, so the
    bind threads' later rounds must invalidate it — the race yields at
    least one hit and one invalidation by construction."""

    SQL = "SELECT v FROM s, r WHERE id = %d AND v > %d"
    #: The two schemas, by generation parity: ``v`` lives in ``s``
    #: (even) or in ``r`` (odd).
    SCHEMAS = (("s (id INT, v INT)", "r (rid INT)"),
               ("s (id INT)", "r (rid INT, v INT)"))

    def _race(self, n_threads, rounds):
        db = Database()
        for table in self.SCHEMAS[0]:
            db.execute("CREATE TABLE " + table)
        # DDL generations begun / finished; generation g moves the
        # column "v" to table "r" when g is odd.
        ddl = {"begun": 0, "done": 0}
        errors = []
        stop = threading.Event()
        first_ddl = threading.Event()
        barrier = threading.Barrier(n_threads + 1)

        def bind_loop(seed):
            try:
                barrier.wait()
                for i in range(rounds):
                    if i == rounds // 2:
                        assert first_ddl.wait(timeout=30.0), "no DDL ran"
                    done = ddl["done"]
                    stable = ddl["begun"] == done
                    try:
                        query = db.pipeline.lower_sql(
                            self.SQL % (seed * 100_000 + i, i % 7))
                    except CatalogError:  # between the drop and create
                        continue
                    if stable and ddl["begun"] == done:
                        owner = "r" if done % 2 else "s"
                        assert query.projections == [(owner, "v")], (
                            done, query.projections)
                        assert query.predicates[1].table == owner
            except BaseException as exc:  # noqa: BLE001 - reported below
                errors.append(exc)

        def ddl_loop():
            cache = db.pipeline.shape_cache
            try:
                barrier.wait()
                while not stop.is_set():
                    generation = ddl["begun"] + 1
                    ddl["begun"] = generation
                    # Both go before either returns, so no schema in
                    # between holds "v" twice or not at all.
                    db.catalog.drop_table("s")
                    db.catalog.drop_table("r")
                    for table in self.SCHEMAS[generation % 2]:
                        db.execute("CREATE TABLE " + table)
                    ddl["done"] = generation
                    if cache.hits:
                        first_ddl.set()
                    # The next generation waits for a template to be hit
                    # under this one.
                    hits = cache.hits
                    while cache.hits == hits and not stop.wait(0.001):
                        pass
            except BaseException as exc:  # noqa: BLE001 - reported below
                errors.append(exc)
                first_ddl.set()

        threads = [threading.Thread(target=bind_loop, args=(seed,))
                   for seed in range(n_threads)]
        mutator = threading.Thread(target=ddl_loop)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # interleave the threads finely
        try:
            mutator.start()
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60.0)
            stop.set()
            mutator.join(timeout=60.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads + [mutator])
        assert not errors, errors[0]
        stats = db.pipeline.shape_cache.stats()
        assert ddl["done"] >= 1
        assert stats["hits"] > 0 and stats["invalidations"] > 0, stats

    def test_no_thread_binds_a_template_of_the_old_schema(self):
        self._race(N_THREADS, 200)

    @pytest.mark.slow
    def test_no_thread_binds_a_template_of_the_old_schema_heavy(self):
        self._race(HEAVY_THREADS, 2_000)


class TestGenericPlansUnderWrites:
    """Threads run one statement shape — sampling, deciding and binding
    its generic plan — while a writer inserts into the shape's table
    (rows no statement matches, so every result is known): each result
    must equal a serial replay of its text on an unwritten twin. A row
    alone stays inside the table's row-count band and keeps the shape's
    generic plan; with every other row, the first included, the writer
    also ANALYZEs the table, which restarts the shape's sampling. After
    each write, the writer
    waits for a generic statement before the next one, and readers wait
    for the first write before their last rounds, so generic plans
    provably run between writes."""

    SQL = ("SELECT COUNT(*), SUM(a.v) FROM a, b WHERE a.k = b.id "
           "AND a.id >= %d AND a.v < %d")

    def _race(self, n_threads, rounds):
        db, twin = _build_db(), _build_db()
        errors, seen = [], []
        stop = threading.Event()
        first_write = threading.Event()
        barrier = threading.Barrier(n_threads + 1)

        def routes():
            return db.pipeline.stats()["plan_routes"]["generic"]

        def read_loop(seed):
            try:
                barrier.wait()
                for i in range(rounds):
                    if i == rounds // 2:
                        assert first_write.wait(timeout=30.0), "no write"
                    # Literals whose plans all share one structure, so
                    # the shape goes generic after its samples.
                    sql = self.SQL % ((seed * rounds + i) % 200, i % 10 + 1)
                    res = db.execute(sql)
                    seen.append((sql, res.rows, res.trace.plan_route))
            except BaseException as exc:  # noqa: BLE001 - reported below
                errors.append(exc)

        def write_loop():
            try:
                barrier.wait()
                analyze = True
                while not stop.is_set():
                    # a.k = 99 joins no row of b: every result stays.
                    db.catalog.table("a").insert_rows([(1000, 99, 0.0)])
                    if analyze:
                        db.catalog.analyze("a")
                    analyze = not analyze
                    first_write.set()
                    generic = routes()
                    while routes() == generic and not stop.wait(0.001):
                        pass
            except BaseException as exc:  # noqa: BLE001 - reported below
                errors.append(exc)
                first_write.set()

        threads = [threading.Thread(target=read_loop, args=(seed,))
                   for seed in range(n_threads)]
        writer = threading.Thread(target=write_loop)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # interleave the threads finely
        try:
            writer.start()
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60.0)
            stop.set()
            writer.join(timeout=60.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads + [writer])
        assert not errors, errors[0]
        assert len(seen) == n_threads * rounds
        for sql, rows, __ in seen:
            assert rows == twin.execute(sql).rows, sql
        assert {route for __, __, route in seen} == {"custom", "generic"}
        # Every statement is counted under exactly one route.
        assert sum(db.pipeline.stats()["plan_routes"].values()) == len(seen)
        assert db.pipeline.shape_plans.invalidations > 0

    def test_generic_results_match_a_serial_replay(self):
        self._race(N_THREADS, 40)

    @pytest.mark.slow
    def test_generic_results_match_a_serial_replay_heavy(self):
        self._race(HEAVY_THREADS, 300)


class TestReadersTakeTheLocks:
    """``stats()``/``reset_stats()`` read and zero what ``_accumulate``
    mutates under ``_stats_lock``, and ``len(cache)``/``key in cache``
    read what ``put`` mutates under the cache lock — each must wait for
    that lock, or it can see a half-applied update."""

    @pytest.mark.parametrize("lock_of,reader", [
        (lambda db: db.pipeline._stats_lock, lambda db: db.pipeline.stats()),
        (lambda db: db.pipeline._stats_lock,
         lambda db: db.pipeline.reset_stats()),
        (lambda db: db.pipeline.plan_cache._lock,
         lambda db: len(db.pipeline.plan_cache)),
        (lambda db: db.pipeline.plan_cache._lock,
         lambda db: "k" in db.pipeline.plan_cache),
    ], ids=["stats", "reset_stats", "len", "contains"])
    def test_reader_waits_for_the_writer_lock(self, lock_of, reader):
        db = _build_db()
        done = threading.Event()

        def read():
            reader(db)
            done.set()

        with lock_of(db):
            thread = threading.Thread(target=read)
            thread.start()
            assert not done.wait(0.05)  # blocked while the lock is held
        thread.join(5)
        assert done.is_set()
