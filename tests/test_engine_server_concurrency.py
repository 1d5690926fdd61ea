"""Concurrency battery for the query server: the no-torn-reads invariant.

The server pins every read snapshot **under the commit lock** and logs
the per-table version vector after every commit. Together those give a
property a test can check exactly, under real thread interleaving:

    every version vector a read observes is one the commit log records —
    a catalog state that actually existed between two commits, never a
    torn mix of half-applied writes.

These tests race barrier-synchronized writer and reader threads (through
server sessions — the only supported write path), then check:

* every read's ``telemetry.catalog_versions`` is a member of
  ``QueryServer.committed_vectors()``;
* per reader, observed vectors are monotonically non-decreasing
  (statement isolation never travels back in time);
* data agrees with the vector in the same result: each writer commit
  appends a fixed row count, so ``COUNT(*)`` is a pure function of the
  table's observed version;
* pinned (``isolation="session"``) readers observe one single committed
  vector for their whole lifetime (repeatable read), and every read
  they make equals the same statement on a never-written twin.

Everything is seeded and event-synchronized — no sleeps; thread
interleaving is the only nondeterminism, and the assertions hold for
*any* interleaving. The tier-1 sizes keep the suite fast; the ``slow``
variant turns the same harness up for ``make test-concurrency``.
"""

import random
import threading

import pytest

from repro.engine import Database, QueryServer

#: Rows every writer commit appends — what binds COUNT(*) to the version.
ROWS_PER_COMMIT = 3

TABLES = ("t0", "t1", "t2")

#: Reads whose rows do not depend on the plan (aggregates, ORDER BY,
#: single-table float folds), so a pinned session's answer can be
#: compared row for row with a never-written twin's.
PINNED_READS = (
    "SELECT COUNT(*) FROM t0",
    "SELECT COUNT(*) FROM t1 WHERE k = 3",
    "SELECT k, COUNT(*) FROM t2 GROUP BY k ORDER BY k",
    "SELECT k, SUM(v) FROM t0 GROUP BY k ORDER BY k",
    "SELECT COUNT(*) FROM t1, t2 WHERE t1.id = t2.id AND t1.k < 3",
)


def _server_db():
    db = Database()
    for name in TABLES:
        db.execute("CREATE TABLE %s (id INT, k INT, v FLOAT)" % name)
        db.catalog.table(name).insert_rows(
            [(i, i % 5, float(i)) for i in range(60)]
        )
    db.execute("ANALYZE")
    return db


def _run_race(n_writers, commits_per_writer, n_readers, reads_per_reader,
              seed=0):
    """Race writers and readers through one server; return observations.

    Returns ``(server, base_versions, reader_obs)`` where ``reader_obs``
    maps reader index to its ordered ``[(vector_dict, table, count)]``
    observations.
    """
    db = _server_db()
    server = QueryServer(db, tenant_quota=1e12, quota_refill_rate=0.0)
    base_versions = dict(db.catalog.version_vector())
    base_counts = {name: db.catalog.table(name).n_rows for name in TABLES}

    barrier = threading.Barrier(n_writers + n_readers)
    first_commit = threading.Event()
    errors = []
    reader_obs = {i: [] for i in range(n_readers)}

    def writer(idx):
        try:
            rng = random.Random(seed * 7919 + idx)
            with server.session(tenant="writer%d" % idx) as sess:
                barrier.wait()
                for c in range(commits_per_writer):
                    table = TABLES[rng.randrange(len(TABLES))]
                    sess.insert_rows(table, [
                        (10_000 + idx * 1000 + c * 10 + r,
                         rng.randrange(5), 0.0)
                        for r in range(ROWS_PER_COMMIT)
                    ])
                    first_commit.set()
        except BaseException as exc:  # noqa: BLE001 - reported below
            errors.append(exc)

    def reader(idx):
        try:
            rng = random.Random(seed * 104729 + idx)
            with server.session(tenant="reader%d" % idx) as sess:
                barrier.wait()

                def observe(table):
                    result = sess.execute("SELECT COUNT(*) FROM %s" % table)
                    reader_obs[idx].append((
                        dict(result.telemetry.catalog_versions),
                        table,
                        result.rows[0][0],
                    ))

                for __ in range(reads_per_reader):
                    observe(TABLES[rng.randrange(len(TABLES))])
                # Guarantee the race is observable for *every*
                # interleaving: once at least one commit has landed, one
                # more read must pin a post-base snapshot. The extra
                # observation flows through the same torn-read
                # assertions as all the others.
                first_commit.wait(timeout=60)
                observe(TABLES[rng.randrange(len(TABLES))])
        except BaseException as exc:  # noqa: BLE001 - reported below
            errors.append(exc)

    threads = [threading.Thread(target=writer, args=(i,))
               for i in range(n_writers)]
    threads += [threading.Thread(target=reader, args=(i,))
                for i in range(n_readers)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert not errors, errors[0]
    # All commits landed in the log, in sequence order.
    history = server.commit_history()
    assert len(history) == 1 + n_writers * commits_per_writer
    assert [seq for seq, __ in history] == list(range(len(history)))
    return server, base_versions, base_counts, reader_obs


def _assert_no_torn_reads(server, base_versions, base_counts, reader_obs):
    committed = server.committed_vectors()
    for idx, observations in reader_obs.items():
        assert observations, "reader %d observed nothing" % idx
        prev = None
        for vector, table, count in observations:
            key = tuple(sorted(vector.items()))
            # The heart of the invariant: this exact vector was committed.
            assert key in committed, (
                "reader %d observed a torn vector %r" % (idx, vector)
            )
            # Statement isolation never travels backwards.
            if prev is not None:
                assert all(vector[t] >= prev[t] for t in vector), (
                    "reader %d went back in time: %r -> %r"
                    % (idx, prev, vector)
                )
            prev = vector
            # Data is a pure function of the observed version: each bump
            # past the base appended exactly ROWS_PER_COMMIT rows.
            expected = (base_counts[table] + ROWS_PER_COMMIT
                        * (vector[table] - base_versions[table]))
            assert count == expected, (
                "reader %d: %s count %d disagrees with version %d"
                % (idx, table, count, vector[table])
            )


class TestNoTornReads:
    def test_statement_reads_see_only_committed_vectors(self):
        server, base_v, base_c, obs = _run_race(
            n_writers=2, commits_per_writer=12,
            n_readers=4, reads_per_reader=15,
        )
        _assert_no_torn_reads(server, base_v, base_c, obs)
        # The race was real: someone read a post-base vector.
        assert any(
            vec != base_v
            for observations in obs.values()
            for vec, __, __ in observations
        )

    @pytest.mark.slow
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_heavy_race(self, seed):
        server, base_v, base_c, obs = _run_race(
            n_writers=4, commits_per_writer=40,
            n_readers=8, reads_per_reader=50, seed=seed,
        )
        _assert_no_torn_reads(server, base_v, base_c, obs)

    def test_pinned_sessions_are_repeatable_read(self):
        """Eight session-isolation readers racing a live writer observe
        exactly one committed vector, forever, and every read equals the
        same statement on a never-written twin, row for row."""
        db = _server_db()
        twin = _server_db()
        server = QueryServer(db, tenant_quota=1e12, quota_refill_rate=0.0)
        n_readers, n_commits = 8, 21
        expected = [twin.execute(sql).rows for sql in PINNED_READS]
        start = threading.Barrier(n_readers + 1)
        errors = []
        observations = {i: [] for i in range(n_readers)}

        def reader(idx):
            try:
                with server.session(tenant="r%d" % idx,
                                    isolation="session") as sess:
                    start.wait()
                    for __ in range(2):
                        for sql, rows in zip(PINNED_READS, expected):
                            result = sess.execute(sql)
                            assert result.rows == rows, (idx, sql)
                            observations[idx].append(
                                dict(result.telemetry.catalog_versions))
            except BaseException as exc:  # noqa: BLE001 - reported below
                errors.append(exc)

        def writer():
            try:
                with server.session(tenant="w") as sess:
                    start.wait()
                    for c in range(n_commits):
                        sess.insert_rows(
                            TABLES[c % len(TABLES)],
                            [(20_000 + c, c % 5, float(c))]
                        )
            except BaseException as exc:  # noqa: BLE001 - reported below
                errors.append(exc)

        threads = [threading.Thread(target=reader, args=(i,))
                   for i in range(n_readers)]
        threads.append(threading.Thread(target=writer))
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors, errors[0]
        committed = server.committed_vectors()
        for idx, obs in observations.items():
            vectors = {tuple(sorted(vec.items())) for vec in obs}
            # One vector, and the vector was committed.
            assert len(obs) == 2 * len(PINNED_READS)
            assert len(vectors) == 1, (idx, vectors)
            assert vectors.pop() in committed
        # Meanwhile the live tables really did move under them.
        for name in TABLES:
            assert db.catalog.table(name).n_rows == 60 + n_commits // 3

    def test_commit_log_linearizes_interleaved_writers(self):
        """Two writer sessions interleave commits; the log's vectors must
        be totally ordered (pointwise non-decreasing, strictly growing in
        total) — the single-writer path never interleaves two commits."""
        db = _server_db()
        server = QueryServer(db, tenant_quota=1e12, quota_refill_rate=0.0)
        barrier = threading.Barrier(3)
        errors = []

        def writer(idx):
            try:
                rng = random.Random(idx)
                with server.session(tenant="w%d" % idx) as sess:
                    barrier.wait()
                    for __ in range(25):
                        table = TABLES[rng.randrange(len(TABLES))]
                        sess.insert_rows(table, [(0, 0, 0.0)])
            except BaseException as exc:  # noqa: BLE001 - reported below
                errors.append(exc)

        threads = [threading.Thread(target=writer, args=(i,))
                   for i in range(3)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors, errors[0]
        history = server.commit_history()
        assert len(history) == 1 + 3 * 25
        for (__, before), (__, after) in zip(history, history[1:]):
            assert all(after[t] >= before[t] for t in after)
            assert sum(after.values()) == sum(before.values()) + 1
