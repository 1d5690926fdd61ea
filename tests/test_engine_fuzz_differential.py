"""Randomized differential query fuzzer across all executor modes.

A seeded generator produces random catalogs (2–4 tables with INT/FLOAT/
TEXT and nullable-TEXT columns) and random conjunctive queries over them
(equi-joins, predicates, GROUP BY, aggregates, ORDER BY, LIMIT — including
LIMIT 0 — and DISTINCT). Every query runs under ``mode="row"`` and
``mode="vectorized"``, each with operator fusion **on and off** — four
mode×fusion configurations — and twice per configuration, so the
suite asserts:

* identical rows in identical order across all four configurations,
* bit-identical ``work`` and ``operator_work`` (the mode- and
  fusion-independence invariant the cost-gap experiments rely on),
* identical per-operator **actual_rows** (the executor's per-node output
  counters, preorder over the unfused plan) — fused pipelines must
  attribute counts to the original nodes they replace,
* cold vs. warm plan cache parity (the second run must be a cache hit and
  observationally identical),
* encoded-segment storage vs a plain-encoding twin database (small
  ``segment_rows`` so every table seals several row groups): rows, order,
  ``work`` and per-node counts must be bit-identical — zone-map pruning
  and encoded-space predicate evaluation are pure optimizations.

Everything is deterministic: catalogs and queries derive from fixed seeds,
so a failure reproduces with its printed ``(catalog_seed, case_index)``.
``REPRO_FUZZ_CASES`` scales the number of generated cases (default ~200;
``make fuzz`` raises it).

Value-generation rules that keep the oracle honest (not workarounds —
engine-level NULL contracts): INT/FLOAT columns are never NULL (int64
arrays cannot hold None; float NaN breaks equality), so NULLs live in a
dedicated nullable TEXT column, which *is* exercised as a group-by /
distinct / join key. Predicates, sort keys, and aggregate arguments stick
to non-nullable columns, matching the comparison semantics both executors
implement.
"""

import os
import random
import threading

import pytest

from repro.engine import Database
from repro.engine.executor import EXECUTOR_MODES
from repro.engine.query import Aggregate, ConjunctiveQuery, JoinEdge, Predicate

#: Total fuzz budget, split across catalog seeds.
N_CASES = int(os.environ.get("REPRO_FUZZ_CASES", "200"))
CATALOG_SEEDS = list(range(8))
CASES_PER_CATALOG = max(1, N_CASES // len(CATALOG_SEEDS))

#: Engine seed (``REPRO_SEED``): threaded into every Database the fuzzer
#: builds and offset into the query-stream rngs, so one knob diversifies
#: the whole campaign while the default stays byte-reproducible.
FUZZ_SEED = int(os.environ.get("REPRO_SEED", "0"))

#: Small segments so every fuzz table seals multiple row groups and the
#: zone-map/encoding machinery is exercised by every case.
SEGMENT_ROWS = 32

#: Configs raced a third time against a plain-encoding twin database.
#: Same segment boundaries, so even float aggregation is bit-identical —
#: the twin runs are compared exactly, not approximately.
ENCODING_RACE_CONFIGS = [("vectorized", False), ("vectorized", True)]

#: Every executor mode raced with operator fusion off and on.  The
#: (row, fusion-off) configuration is the oracle everything else must match.
CONFIGS = [
    (mode, fusion) for mode in EXECUTOR_MODES for fusion in (False, True)
]
BASE_CONFIG = ("row", False)

AGG_FUNCS = ("count", "sum", "avg", "min", "max")
CMP_OPS = ("=", "!=", "<", "<=", ">", ">=")


# ----------------------------------------------------------------------
# Random catalog + query generation (pure functions of the seed)
# ----------------------------------------------------------------------
def _make_schema(rng):
    """Random table specs: name -> (n_rows, k_domain)."""
    n_tables = rng.randint(2, 4)
    return {
        "t%d" % i: (rng.randint(40, 150), rng.randint(3, 12))
        for i in range(n_tables)
    }


def _build_db(mode, seed, fusion=True, segment_encodings=None,
              plan_selector=None):
    """One database per (mode, fusion, seed); data identical across all."""
    kwargs = {
        "executor_mode": mode,
        "fusion_enabled": fusion,
        "segment_rows": SEGMENT_ROWS,
        "seed": FUZZ_SEED,
    }
    if segment_encodings is not None:
        kwargs["segment_encodings"] = segment_encodings
    if plan_selector is not None:
        kwargs["plan_selector"] = plan_selector
    db = Database(**kwargs)
    rng = random.Random(seed)
    schema = _make_schema(rng)
    for name, (n_rows, k_domain) in schema.items():
        db.execute(
            "CREATE TABLE %s (id INT, k INT, v FLOAT, tag TEXT, ntag TEXT)"
            % name
        )
        rows = []
        for i in range(n_rows):
            rows.append((
                i,
                rng.randrange(k_domain),
                round(rng.uniform(-10.0, 10.0), 6),
                "tag%d" % rng.randrange(5),
                None if rng.random() < 0.3 else "n%d" % rng.randrange(3),
            ))
        db.catalog.table(name).insert_rows(rows)
    db.execute("ANALYZE")
    return db, sorted(schema)


def _random_query(rng, tables):
    """One random conjunctive query over a connected subset of ``tables``."""
    n = rng.randint(1, min(3, len(tables)))
    chosen = rng.sample(tables, n)
    edges = []
    for prev, nxt in zip(chosen, chosen[1:]):
        col = rng.choice(["k", "id"])
        edges.append(JoinEdge(prev, col, nxt, col))
    predicates = []
    for __ in range(rng.randint(0, 2)):
        t = rng.choice(chosen)
        col, value = rng.choice([
            ("k", rng.randrange(12)),
            ("v", round(rng.uniform(-8.0, 8.0), 3)),
            ("id", rng.randrange(150)),
            ("tag", "tag%d" % rng.randrange(5)),
        ])
        predicates.append(Predicate(t, col, rng.choice(CMP_OPS), value))
    shape = rng.random()
    group_by, aggregates, projections = [], [], []
    order_by, limit, distinct = None, None, False
    if shape < 0.4:
        # Aggregation query; ~half the time grouped, sometimes on the
        # nullable column (the latent all-NULL-group-key class).
        if rng.random() < 0.75:
            t = rng.choice(chosen)
            key = rng.choice(["k", "tag", "ntag", "ntag"])
            group_by.append((t, key))
        for __ in range(rng.randint(1, 3)):
            func = rng.choice(AGG_FUNCS)
            if func == "count":
                aggregates.append(Aggregate("count"))
            else:
                t = rng.choice(chosen)
                col = rng.choice(["k", "v", "id"])
                aggregates.append(Aggregate(func, t, col))
    else:
        # Projection query over 1–3 random columns; DISTINCT may include
        # the nullable column.
        for __ in range(rng.randint(1, 3)):
            t = rng.choice(chosen)
            projections.append((t, rng.choice(["id", "k", "v", "tag", "ntag"])))
        distinct = rng.random() < 0.4
        if rng.random() < 0.5:
            t, col = rng.choice(projections)
            if col != "ntag":  # sort keys must be totally ordered
                order_by = ((t, col), rng.random() < 0.5)
        if rng.random() < 0.35:
            limit = rng.choice([0, 1, 3, 10, 500])
    return ConjunctiveQuery(
        tables=chosen,
        join_edges=edges,
        predicates=predicates,
        projections=projections,
        aggregates=aggregates,
        group_by=group_by,
        order_by=order_by,
        limit=limit,
        distinct=distinct,
    )


def _node_counts(result):
    """Preorder ``(op, actual_rows)`` pairs from the execution telemetry."""
    return [
        (e["op"], e["actual_rows"]) for e in result.telemetry.node_stats
    ]


def _approx_equal_rows(rows_a, rows_b):
    """Row-list equality with float tolerance (sum association differs)."""
    if len(rows_a) != len(rows_b):
        return False
    for ra, rb in zip(rows_a, rows_b):
        if len(ra) != len(rb):
            return False
        for x, y in zip(ra, rb):
            if isinstance(x, float) and isinstance(y, float):
                if x != pytest.approx(y, rel=1e-9, abs=1e-12):
                    return False
            elif x != y:
                return False
    return True


# ----------------------------------------------------------------------
# The fuzz loop
# ----------------------------------------------------------------------
@pytest.mark.parametrize("catalog_seed", CATALOG_SEEDS)
def test_fuzz_differential(catalog_seed):
    dbs = {}
    plain_dbs = {}
    tables = None
    for cfg in CONFIGS:
        dbs[cfg], tables = _build_db(cfg[0], catalog_seed, fusion=cfg[1])
    for cfg in ENCODING_RACE_CONFIGS:
        plain_dbs[cfg], __ = _build_db(
            cfg[0], catalog_seed, fusion=cfg[1], segment_encodings=("plain",)
        )
    rng = random.Random(10_000 + catalog_seed + 1_000_003 * FUZZ_SEED)
    for case in range(CASES_PER_CATALOG):
        query = _random_query(rng, tables)
        label = "catalog_seed=%d case=%d query=%r" % (
            catalog_seed, case, query
        )
        cold, warm = {}, {}
        for cfg in CONFIGS:
            cold[cfg] = dbs[cfg].run_query_object(query)
            warm[cfg] = dbs[cfg].run_query_object(query)
            # Cold vs. warm: second run must hit the plan cache and be
            # observationally identical (same executor => exact equality).
            assert warm[cfg].pipeline_telemetry.cache_hit is True, label
            assert warm[cfg].rows == cold[cfg].rows, label
            assert warm[cfg].work == cold[cfg].work, label
            assert warm[cfg].operator_work == cold[cfg].operator_work, label
        base = cold[BASE_CONFIG]
        base_counts = _node_counts(base)
        # The oracle must have counted every node it executed.
        assert base_counts, label
        assert all(n is not None for __, n in base_counts), (
            "%s: uncounted plan node(s) in %r" % (label, base_counts)
        )
        for cfg in CONFIGS:
            if cfg == BASE_CONFIG:
                continue
            mode, fusion = cfg
            res = cold[cfg]
            assert res.columns == base.columns, label
            # Per-operator actual output cardinalities are part of the
            # observational contract: every mode×fusion config must count
            # the same rows out of the same (unfused) plan nodes.
            assert _node_counts(res) == base_counts, (
                "%s: %s/fusion=%s per-node actual_rows diverge\n"
                "base=%r\nthis=%r"
                % (label, mode, fusion, base_counts, _node_counts(res))
            )
            if mode == "row":
                # Same interpreter, same fold order: fusion must be
                # bit-identical, not just approximately equal.
                assert res.rows == base.rows, (
                    "%s: row-mode fusion diverges\nbase=%r\nfused=%r"
                    % (label, base.rows[:10], res.rows[:10])
                )
            else:
                assert _approx_equal_rows(res.rows, base.rows), (
                    "%s: %s/fusion=%s rows diverge from row mode\n"
                    "row=%r\n%s=%r"
                    % (label, mode, fusion, base.rows[:10], mode,
                       res.rows[:10])
                )
            assert res.work == base.work, label
            assert res.operator_work == base.operator_work, label
        # Encoded segments vs a plain-encoding twin: identical segment
        # boundaries, so the comparison is exact — rows, order, work,
        # per-node counts.
        for cfg in ENCODING_RACE_CONFIGS:
            enc = cold[cfg]
            plain = plain_dbs[cfg].run_query_object(query)
            assert plain.columns == enc.columns, label
            assert plain.rows == enc.rows, (
                "%s: %s/fusion=%s encoded vs plain rows diverge\n"
                "plain=%r\nencoded=%r"
                % (label, cfg[0], cfg[1], plain.rows[:10], enc.rows[:10])
            )
            assert plain.work == enc.work, label
            assert plain.operator_work == enc.operator_work, label
            assert _node_counts(plain) == _node_counts(enc), label


# ----------------------------------------------------------------------
# Plan-selector axis: cost vs bandit vs pessimistic must agree on results
# ----------------------------------------------------------------------
#: Catalog seeds and cases for the selector race (candidate generation
#: fans out several plans per cold query, so the budget is smaller).
SELECTOR_RACE_SEEDS = (0, 1)
SELECTOR_RACE_CASES = max(10, CASES_PER_CATALOG // 2)
PLAN_SELECTORS = ("cost", "bandit", "pessimistic")


def _canonical_rows(rows):
    """An order-independent, float-tolerant row-multiset fingerprint.

    Different join orders legitimately reorder unordered output and
    change float fold order, so selector parity is a multiset property
    (rounded to 6 decimals) rather than exact list equality.
    """
    return sorted(
        repr(tuple(round(x, 6) if isinstance(x, float) else x for x in r))
        for r in rows
    )


def _unlimited(query):
    """The query with a row-limiting LIMIT dropped.

    LIMIT n over unordered output is a pick-any-n contract: different
    join orders may legitimately return different subsets, so the
    selector race compares only fully-determined result multisets.
    LIMIT 0 stays (its result is exactly empty under every plan).
    """
    if query.limit in (None, 0):
        return query
    return ConjunctiveQuery(
        tables=query.tables,
        join_edges=query.join_edges,
        predicates=query.predicates,
        projections=query.projections,
        aggregates=query.aggregates,
        group_by=query.group_by,
        order_by=query.order_by,
        limit=None,
        distinct=query.distinct,
    )


def _assert_cost_route_is_the_planner(db, query, order, label):
    """The ``cost`` selector's plan stage is a one-arm run of the general
    route: what it caches for ``(query, order)`` is bit-identical to
    ``Planner.plan(query, order)``, under exactly one cache entry, and a
    warm lookup hits it."""
    expected = db.planner.plan(query, order=order)
    cold = db.pipeline.prepare_query(query, order=order)
    warm = db.pipeline.prepare_query(query, order=order)
    for prepared in (cold, warm):
        assert prepared.plan.pretty() == expected.pretty(), label
        assert prepared.plan.est_cost == expected.est_cost, label
        assert prepared.telemetry.arm == "default", label
    assert warm.telemetry.cache_outcome == "hit", label
    key = (query.signature(),
           None if order is None else tuple(t.lower() for t in order))
    entries = [k for k in db.pipeline.plan_cache._entries if k[:2] == key]
    assert entries == [key + ("default",)], label


@pytest.mark.parametrize("catalog_seed", SELECTOR_RACE_SEEDS)
def test_fuzz_selector_race(catalog_seed, monkeypatch):
    """The three plan selectors race on identical data: whichever arm
    each one picks, the *results* may never diverge from the cost
    selector's (rows as a multiset, same columns) — measured work may
    differ (that is the point of racing plans), correctness may not.
    Warm reruns must hit the per-arm plan cache under every selector.

    All three take the same plan stage, so the race also pins the
    collapsed route: the cost selector's cached plan is the planner's,
    with and without an explicit join order, and only the bandit ever
    computes ``plan_features``.
    """
    from repro.engine.optimizer import selection

    feature_calls = []
    real_plan_features = selection.plan_features

    def spy(query, estimator):
        feature_calls.append(query)
        return real_plan_features(query, estimator)

    monkeypatch.setattr(selection, "plan_features", spy)
    mode, fusion = BASE_CONFIG
    dbs, tables = {}, None
    for sel in PLAN_SELECTORS:
        dbs[sel], tables = _build_db(
            mode, catalog_seed, fusion=fusion, plan_selector=sel
        )
    rng = random.Random(55_000 + catalog_seed + 1_000_003 * FUZZ_SEED)
    order_rng = random.Random(56_000 + catalog_seed)
    for case in range(SELECTOR_RACE_CASES):
        query = _unlimited(_random_query(rng, tables))
        label = "catalog_seed=%d case=%d query=%r" % (
            catalog_seed, case, query
        )
        explicit = list(query.tables)
        order_rng.shuffle(explicit)
        for order in (None, explicit):
            _assert_cost_route_is_the_planner(
                dbs["cost"], query, order, "%s order=%r" % (label, order))
        cold = {}
        for sel in PLAN_SELECTORS:
            seen = len(feature_calls)
            cold[sel] = dbs[sel].run_query_object(query)
            assert (len(feature_calls) > seen) == (sel == "bandit"), label
        oracle = cold["cost"]
        oracle_rows = _canonical_rows(oracle.rows)
        assert oracle.pipeline_telemetry.arm == "default", label
        assert oracle.pipeline_telemetry.cache_outcome == "hit", label
        for sel in ("bandit", "pessimistic"):
            res = cold[sel]
            assert res.columns == oracle.columns, label
            assert _canonical_rows(res.rows) == oracle_rows, (
                "%s: %s selector rows diverge from cost oracle\n"
                "cost=%r\n%s=%r"
                % (label, sel, oracle.rows[:10], sel, res.rows[:10])
            )
            # Selection ran: the run is attributed to a named arm.
            assert res.pipeline_telemetry.arm is not None, label
            warm = dbs[sel].run_query_object(query)
            assert warm.pipeline_telemetry.cache_outcome == "hit", label
            assert _canonical_rows(warm.rows) == oracle_rows, label
    # The bandit must actually have explored: every arm it races has
    # been pulled at least once over the campaign.
    stats = dbs["bandit"].plan_selector.stats()
    assert stats["selections"] >= SELECTOR_RACE_CASES
    assert all(st["picks"] > 0 for st in stats["arms"].values()), stats


#: Queries per config in the snapshot-isolation race below.
SNAPSHOT_RACE_CASES = 12


@pytest.mark.parametrize("config", CONFIGS)
def test_fuzz_snapshot_isolation(config):
    """A reader pinned to a snapshot races a writer appending to every
    table; its results must be bit-identical to a frozen copy.

    The frozen copy is an identically-seeded twin database that is never
    written — same data, same statistics, same segment boundaries, so
    within one mode×fusion config the comparison is exact, not
    approximate. The exact leg executes one shared plan against both the
    pinned snapshot and the twin (rows, work, and per-node counts must
    match bit-for-bit); the full-pipeline leg runs through
    ``snapshot.run_query_object`` and compares row *multisets*, since the
    planner reads live table sizes and may legitimately pick a different
    join order mid-race — the values it returns still may not drift.
    """
    mode, fusion = config
    db, tables = _build_db(mode, 0, fusion=fusion)
    frozen, __ = _build_db(mode, 0, fusion=fusion)
    snap = db.snapshot()
    stop = threading.Event()
    errors = []

    def writer():
        try:
            wrng = random.Random(777)
            while not stop.is_set():
                t = wrng.choice(tables)
                db.catalog.table(t).insert_rows([(
                    wrng.randrange(10_000),
                    wrng.randrange(12),
                    round(wrng.uniform(-10.0, 10.0), 6),
                    "tag%d" % wrng.randrange(5),
                    None if wrng.random() < 0.3 else "n%d" % wrng.randrange(3),
                ) for __ in range(5)])
        except BaseException as exc:  # noqa: BLE001 - reported below
            errors.append(exc)

    wt = threading.Thread(target=writer)
    wt.start()
    try:
        rng = random.Random(31_337)
        for case in range(SNAPSHOT_RACE_CASES):
            query = _random_query(rng, tables)
            label = "config=%r case=%d query=%r" % (config, case, query)
            # Exact leg: one plan, two catalogs (pinned vs frozen twin).
            plan = db.planner.plan(query)
            pinned = db.executor.execute(plan, catalog=snap.catalog)
            oracle = frozen.executor.execute(plan)
            assert pinned.rows == oracle.rows, (
                "%s: pinned vs frozen rows diverge\npinned=%r\nfrozen=%r"
                % (label, pinned.rows[:10], oracle.rows[:10])
            )
            assert pinned.work == oracle.work, label
            assert _node_counts(pinned) == _node_counts(oracle), label
            # Pipeline leg: plan may differ (live stats move), values not.
            piped = snap.run_query_object(query)
            assert (sorted(map(repr, piped.rows))
                    == sorted(map(repr, oracle.rows))), label
    finally:
        stop.set()
        wt.join()
    assert not errors, errors[0]
    # The writer must actually have raced the reader, and the snapshot's
    # row counts must have stayed pinned at the frozen copy's.
    assert sum(db.catalog.table(t).n_rows for t in tables) > sum(
        frozen.catalog.table(t).n_rows for t in tables
    )
    for t in tables:
        assert (snap.catalog.table(t).n_rows
                == frozen.catalog.table(t).n_rows), t


#: Server-mode fuzz sizes: concurrent sessions and statements per session.
SERVER_SESSIONS = 4
SERVER_OPS = 10


def _add_private_tables(db, n_sessions, seed):
    """Identically-seeded per-session private tables, in db and twin."""
    for i in range(n_sessions):
        name = "priv%d" % i
        db.execute(
            "CREATE TABLE %s (id INT, k INT, v FLOAT, tag TEXT, ntag TEXT)"
            % name
        )
        prng = random.Random(seed * 31 + i)
        db.catalog.table(name).insert_rows([
            (
                j,
                prng.randrange(12),
                round(prng.uniform(-10.0, 10.0), 6),
                "tag%d" % prng.randrange(5),
                None if prng.random() < 0.3 else "n%d" % prng.randrange(3),
            )
            for j in range(40)
        ])
    db.execute("ANALYZE")


def _session_script(seed, idx, shared_tables, n_ops):
    """One session's deterministic statement mix (pure function of seed).

    Reads are random conjunctive queries over the shared tables plus the
    session's own private table; writes append seeded rows to that
    private table only. Because no session ever writes a table another
    session reads, a serial replay of the same script must observe
    bit-identical results — the property the server-mode fuzz asserts.
    """
    rng = random.Random(seed * 7001 + idx)
    private = "priv%d" % idx
    ops = []
    for __ in range(n_ops):
        if rng.random() < 0.3:
            rows = [
                (
                    rng.randrange(100_000),
                    rng.randrange(12),
                    round(rng.uniform(-10.0, 10.0), 6),
                    "tag%d" % rng.randrange(5),
                    None if rng.random() < 0.3 else "n%d" % rng.randrange(3),
                )
                for __ in range(rng.randint(1, 4))
            ]
            ops.append(("write", rows))
        else:
            ops.append(("read", _random_query(rng, shared_tables + [private])))
    return ops


def _replay_session(server, idx, ops):
    """Run one session's script; return its observable outcomes."""
    out = []
    with server.session(tenant="s%d" % idx) as sess:
        for kind, payload in ops:
            if kind == "write":
                sess.insert_rows("priv%d" % idx, payload)
                out.append(("write", len(payload)))
            else:
                res = sess.run_query_object(payload)
                out.append((
                    "read", res.rows, res.telemetry.total_work,
                    _node_counts(res),
                ))
    return out


@pytest.mark.parametrize("config", CONFIGS)
def test_fuzz_server_mode_matches_serial_oracle(config):
    """N sessions replay seeded statement mixes through the QueryServer
    concurrently; each session's results must be **bit-identical** to an
    identically-seeded serial replay on a frozen twin server.

    Sessions share read-only tables and privately own one writable table
    each, so per-session outcomes are deterministic even under real
    concurrency: plans, rows, ``total_work``, and per-node actual_rows
    must all match the serial oracle exactly, in every mode×fusion
    config. Admission is configured generously so scheduling never
    sheds or reorders anything — this isolates the snapshot-execution
    and single-writer-commit machinery.
    """
    from repro.engine import QueryServer

    mode, fusion = config
    db, shared = _build_db(mode, 0, fusion=fusion)
    twin, __ = _build_db(mode, 0, fusion=fusion)
    _add_private_tables(db, SERVER_SESSIONS, seed=0)
    _add_private_tables(twin, SERVER_SESSIONS, seed=0)

    scripts = [
        _session_script(0, idx, shared, SERVER_OPS)
        for idx in range(SERVER_SESSIONS)
    ]
    # The mix must actually exercise both paths.
    kinds = {kind for ops in scripts for kind, __ in ops}
    assert kinds == {"read", "write"}

    live = QueryServer(db, tenant_quota=1e15, quota_refill_rate=0.0)
    frozen = QueryServer(twin, tenant_quota=1e15, quota_refill_rate=0.0)

    concurrent_results = {}
    errors = []
    barrier = threading.Barrier(SERVER_SESSIONS)

    def worker(idx):
        try:
            barrier.wait()
            concurrent_results[idx] = _replay_session(live, idx, scripts[idx])
        except BaseException as exc:  # noqa: BLE001 - reported below
            errors.append(exc)

    threads = [threading.Thread(target=worker, args=(i,))
               for i in range(SERVER_SESSIONS)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert not errors, errors[0]

    for idx in range(SERVER_SESSIONS):
        oracle = _replay_session(frozen, idx, scripts[idx])
        label = "config=%r session=%d" % (config, idx)
        assert len(concurrent_results[idx]) == len(oracle), label
        for op_i, (got, want) in enumerate(
            zip(concurrent_results[idx], oracle)
        ):
            assert got == want, (
                "%s op=%d diverges from serial oracle\nconcurrent=%r\n"
                "serial=%r" % (label, op_i, got, want)
            )
        # Both replicas applied the same writes.
        name = "priv%d" % idx
        assert (db.catalog.table(name).n_rows
                == twin.catalog.table(name).n_rows), label
    # Every server write went through the single-writer commit log.
    writes = sum(
        1 for ops in scripts for kind, __ in ops if kind == "write"
    )
    assert live.commit_history()[-1][0] == writes


# ----------------------------------------------------------------------
# Agent-session arm: random scripts under random policies vs serial oracle
# ----------------------------------------------------------------------
#: Scripts per mode×fusion config in the agent-session arm.
AGENT_CASES = 6

AGENT_POLICY_KINDS = ("SELECT", "INSERT", "CREATE TABLE", "ANALYZE")


def _random_policy(rng):
    """A random session policy (or None for an audit-only session)."""
    from repro.engine import Policy

    roll = rng.random()
    if roll < 0.25:
        return None
    if roll < 0.45:
        return Policy.read_only()
    if roll < 0.60:
        return Policy(deny_tables=("t0",))
    if roll < 0.80:
        return Policy(max_rows=rng.choice([1, 3, 25]))
    kinds = tuple(k for k in AGENT_POLICY_KINDS if rng.random() < 0.7)
    return Policy(statement_kinds=kinds or ("SELECT",))


def _agent_script(rng, tables, case):
    """A random multi-statement SQL script (pure function of the rng).

    Mixes shared-table inserts, scratch DDL + inserts, reads, ANALYZE,
    and the occasional statement that is guaranteed to fail — the mix a
    misbehaving agent would produce. Scratch names embed ``case`` so a
    committed case never collides with the next one.
    """
    stmts = []
    scratch = []
    for __ in range(rng.randint(4, 9)):
        roll = rng.random()
        t = rng.choice(tables)
        if roll < 0.30:
            rows = ", ".join(
                "(%d, %d, %.3f, 'tag%d', 'n%d')" % (
                    rng.randrange(100_000), rng.randrange(12),
                    rng.uniform(-10.0, 10.0), rng.randrange(5),
                    rng.randrange(3))
                for __ in range(rng.randint(1, 3))
            )
            stmts.append("INSERT INTO %s VALUES %s" % (t, rows))
        elif roll < 0.45:
            name = "s%d_%d" % (case, len(scratch))
            scratch.append(name)
            stmts.append("CREATE TABLE %s (a INT, b TEXT)" % name)
        elif roll < 0.55 and scratch:
            stmts.append("INSERT INTO %s VALUES (%d, 'b%d')" % (
                rng.choice(scratch), rng.randrange(100),
                rng.randrange(4)))
        elif roll < 0.80:
            stmts.append(rng.choice([
                "SELECT COUNT(*) FROM %s" % t,
                "SELECT id, k FROM %s WHERE k < %d" % (t, rng.randrange(12)),
                "SELECT MIN(v), MAX(v) FROM %s" % t,
            ]))
        elif roll < 0.90:
            stmts.append("ANALYZE %s" % t)
        else:
            stmts.append("SELECT * FROM no_such_%d" % rng.randrange(10))
    return stmts


def _run_gated_statements(session, stmts):
    """Execute ``stmts`` one by one; return the observable outcomes."""
    from repro.engine import EngineError

    out = []
    for sql in stmts:
        try:
            res = session.execute(sql)
            raw = res.raw
            out.append((
                "ok", res.kind,
                raw.rows if hasattr(raw, "rows") else raw,
            ))
        except EngineError as exc:
            out.append(("error", type(exc).__name__))
    return out


def _full_state(db):
    """Bit-identity probe: every table's rows + the full version vector."""
    state = {
        name: db.query("SELECT * FROM %s" % name)
        for name in sorted(db.catalog.table_names())
    }
    return state, dict(db.catalog.version_vector())


@pytest.mark.parametrize("config", CONFIGS)
def test_fuzz_agent_session_rollback_matches_serial_oracle(config):
    """Random scripts under random policies through :class:`AgentSession`:

    * ``rollback()`` restores bit-identical state (all tables' rows and
      the version vector) in every mode×fusion config, regardless of
      how far the script got before failing or being denied;
    * re-running the same script and committing produces the **same
      per-statement outcomes** (rows, status strings, error classes,
      policy denials) as a serial gated-session oracle on a frozen
      twin, and leaves both databases bit-identical;
    * the audit log records every statement plus BEGIN/ROLLBACK.
    """
    mode, fusion = config
    db, tables = _build_db(mode, 3, fusion=fusion)
    twin, __ = _build_db(mode, 3, fusion=fusion)
    rng = random.Random(90_000 + 17 * CONFIGS.index(config))
    for case in range(AGENT_CASES):
        policy = _random_policy(rng)
        stmts = _agent_script(rng, tables, case)
        label = "config=%r case=%d policy=%r stmts=%r" % (
            config, case, policy and policy.describe(), stmts)
        before = _full_state(db)

        # Leg 1: run inside a transaction, then roll everything back.
        agent = db.agent_session(policy=policy)
        agent.begin()
        live = _run_gated_statements(agent, stmts)
        agent.rollback()
        assert _full_state(db) == before, label
        assert len(agent.audit) == len(stmts) + 2, label  # BEGIN/ROLLBACK
        assert [r.kind for r in agent.audit][0] == "BEGIN"
        assert [r.kind for r in agent.audit][-1] == "ROLLBACK"

        # Leg 2: serial oracle — same script, same policy, plain gated
        # session on the twin (no transaction machinery at all).
        oracle = _run_gated_statements(twin.session(policy=policy), stmts)
        assert live == oracle, (
            "%s\nagent=%r\noracle=%r" % (label, live, oracle))

        # Leg 3: replay + commit; outcomes repeat and states converge.
        with db.agent_session(policy=policy) as agent2:
            committed = _run_gated_statements(agent2, stmts)
        assert committed == live, label
        assert _full_state(db) == _full_state(twin), label


class TestEdgeCases:
    """Targeted regressions for the edge cases the fuzzer hunts.

    Two were real latent bugs fixed in this PR (both from sort-based
    ``np.unique`` on object arrays containing ``None``): vectorized
    group-by/DISTINCT/join on all-NULL or mixed-NULL keys crashed with
    ``TypeError``, and ANALYZE on a nullable TEXT column crashed in
    ``ColumnStats.build``. The rest pin down behaviour that must stay
    identical across modes.
    """

    def _mode_dbs(self, build):
        dbs = {}
        for mode, fusion in CONFIGS:
            db = Database(executor_mode=mode, fusion_enabled=fusion)
            build(db)
            dbs[(mode, fusion)] = db
        return dbs

    def _assert_parity(self, dbs, query):
        base = dbs[BASE_CONFIG].run_query_object(query)
        for cfg in CONFIGS:
            if cfg == BASE_CONFIG:
                continue
            res = dbs[cfg].run_query_object(query)
            assert res.columns == base.columns, cfg
            assert _approx_equal_rows(res.rows, base.rows), cfg
            assert res.work == base.work, cfg
            assert res.operator_work == base.operator_work, cfg
        return base

    @staticmethod
    def _null_build(db):
        db.execute("CREATE TABLE e (id INT, k INT, ntag TEXT)")
        db.catalog.table("e").insert_rows(
            [(i, i % 3, None) for i in range(60)]
        )
        db.execute("CREATE TABLE f (id INT, k INT)")
        db.execute("ANALYZE")

    def test_empty_relation_join(self):
        dbs = self._mode_dbs(self._null_build)
        q = ConjunctiveQuery(
            tables=["e", "f"],
            join_edges=[JoinEdge("e", "k", "f", "k")],
        )
        base = self._assert_parity(dbs, q)
        assert base.rows == []

    def test_all_null_group_keys(self):
        """Regression: all-NULL TEXT group key grouped via hash equality
        (sort-based factorization used to raise TypeError)."""
        dbs = self._mode_dbs(self._null_build)
        q = ConjunctiveQuery(
            tables=["e"],
            group_by=[("e", "ntag")],
            aggregates=[Aggregate("count"), Aggregate("sum", "e", "k")],
        )
        base = self._assert_parity(dbs, q)
        assert base.rows == [(None, 60, 60)]

    def test_distinct_over_all_null_column(self):
        dbs = self._mode_dbs(self._null_build)
        q = ConjunctiveQuery(
            tables=["e"], projections=[("e", "ntag")], distinct=True
        )
        base = self._assert_parity(dbs, q)
        assert base.rows == [(None,)]

    def test_mixed_null_group_and_join_keys(self):
        def build(db):
            db.execute("CREATE TABLE g (id INT, ntag TEXT)")
            db.catalog.table("g").insert_rows(
                [(i, None if i % 2 else "x%d" % (i % 4)) for i in range(80)]
            )
            db.execute("CREATE TABLE h (id INT, ntag TEXT)")
            db.catalog.table("h").insert_rows(
                [(i, None if i % 3 else "x%d" % (i % 4)) for i in range(60)]
            )
            db.execute("ANALYZE")

        dbs = self._mode_dbs(build)
        q = ConjunctiveQuery(
            tables=["g", "h"],
            join_edges=[JoinEdge("g", "ntag", "h", "ntag")],
            group_by=[("g", "ntag")],
            aggregates=[Aggregate("count")],
        )
        base = self._assert_parity(dbs, q)
        assert len(base.rows) > 0  # NULL == NULL joins, like the interpreter

    def test_limit_zero_identical_in_all_modes(self):
        dbs = self._mode_dbs(self._null_build)
        q = ConjunctiveQuery(tables=["e"], projections=[("e", "id")], limit=0)
        base = self._assert_parity(dbs, q)
        assert base.rows == []

    def test_raw_limit_zero_plan_node(self):
        """LIMIT 0 as a raw plan node too (the planner usually folds it
        into EmptyResult before the executor ever sees it)."""
        from repro.engine import plans as P
        from repro.engine.executor import Executor

        dbs = self._mode_dbs(self._null_build)
        results = {}
        for cfg, db in dbs.items():
            ex = db.executor
            plan = P.Limit(P.SeqScan("e"), 0)
            results[cfg] = ex.execute(plan)
        for cfg, res in results.items():
            assert res.rows == [], cfg
            assert res.work == results[BASE_CONFIG].work, cfg

    def test_analyze_nullable_text_column(self):
        """Regression: ANALYZE over a nullable TEXT column must not crash
        and must exclude NULLs from NDV/MCV stats."""
        db = Database()
        db.execute("CREATE TABLE n (id INT, ntag TEXT)")
        db.catalog.table("n").insert_rows(
            [(i, None if i % 2 else "v%d" % (i % 3)) for i in range(40)]
        )
        db.execute("ANALYZE")
        stats = db.catalog.stats("n").column("ntag")
        assert stats.n_distinct == 3
        assert None not in stats.top_values
        assert "None" not in stats.top_values


def test_fusion_actually_fires_on_fuzz_workload():
    """Meta-check: the generated queries include fusible tails, so the
    fusion=True half of the matrix is not vacuously equal to fusion=False."""
    fused_hits = 0
    for mode in EXECUTOR_MODES:
        db, tables = _build_db(mode, 0, fusion=True)
        rng = random.Random(4242)
        for __ in range(20):
            res = db.run_query_object(_random_query(rng, tables))
            fused_hits += res.telemetry.fused_ops
    assert fused_hits > 0
