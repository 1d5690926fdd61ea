"""The planning-scoped estimate memo and the bisect histogram lookups.

One planning call asks its estimator each distinct induced sub-query once
(:class:`~repro.engine.optimizer.cardinality.EstimateMemo`), and the
traditional estimator's per-table factors come from that memo. Neither may
move a plan: these tests count the questions that reach the estimator,
race memoized planning against a pass-through stand-in on the fuzz
catalogs, and race the bisect histogram against the bucket walk it
replaced.
"""

import math
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.ai4db.optimization.estimators import SamplingEstimator
from repro.ai4db.optimization.feedback import FeedbackLoop
from repro.engine import Database
from repro.engine.optimizer.cardinality import (
    CardinalityEstimator,
    EstimateMemo,
    TraditionalEstimator,
)
from repro.engine.query import ConjunctiveQuery, JoinEdge, Predicate
from repro.engine.stats import ColumnStats, EquiDepthHistogram
from test_engine_fuzz_differential import (
    CATALOG_SEEDS,
    JOIN_ORDERERS,
    _build_db,
    _random_query,
    _render_sql,
)


def _induced(query, tables):
    """The induced sub-query's identity: tables in ``query.tables``
    order, their predicate keys in order, and the edges inside them."""
    names = {t.lower() for t in tables}
    inside = [t.lower() for t in query.tables if t.lower() in names]
    return (
        tuple(inside),
        tuple(tuple(p.key() for p in query.predicates_on(t)) for t in inside),
        tuple(e.key() for e in query.join_edges
              if e.left_table.lower() in names
              and e.right_table.lower() in names),
    )


class _CountingEstimator(CardinalityEstimator):
    """Records every question that reaches it, then asks ``inner``."""

    def __init__(self, inner):
        self.inner = inner
        self.calls = []

    def estimate_table(self, query, table):
        self.calls.append(("table", _induced(query, [table])))
        return self.inner.estimate_table(query, table)

    def estimate_subset(self, query, tables):
        self.calls.append(("subset", _induced(query, tables)))
        return self.inner.estimate_subset(query, tables)


# ----------------------------------------------------------------------
# Each distinct question reaches the estimator once per planning call
# ----------------------------------------------------------------------
@pytest.mark.parametrize("orderer", JOIN_ORDERERS)
def test_each_induced_subquery_reaches_the_estimator_once(orderer):
    """On DP's route and on the explicit-order route alike."""
    for seed in CATALOG_SEEDS[:4]:
        db, tables = _build_db(seed)
        counter = _CountingEstimator(db.planner.estimator)
        db.planner.estimator = counter
        rng = random.Random(seed)
        asked = 0
        for case in range(15):
            query = _random_query(rng, tables)
            order = JOIN_ORDERERS[orderer](db, query)
            counter.calls.clear()
            db.planner.plan(query, order=order)
            label = "seed=%d case=%d %r" % (seed, case, query)
            assert len(counter.calls) == len(set(counter.calls)), label
            asked += len(counter.calls)
            # The memo is dropped with the call: the next call asks again.
            if query.limit != 0 and len(query.tables) > 1:
                counter.calls.clear()
                db.planner.plan(query, order=order)
                assert counter.calls, label
        assert asked > 0


def test_memo_caches_no_exceptions():
    class Flaky(CardinalityEstimator):
        calls = 0

        def estimate_table(self, query, table):
            Flaky.calls += 1
            if Flaky.calls == 1:
                raise RuntimeError("transient")
            return 7.0

    query = ConjunctiveQuery(tables=["t"])
    memo = Flaky().planning_scope(query)
    assert isinstance(memo, EstimateMemo)
    with pytest.raises(RuntimeError):
        memo.estimate_table(query, "t")
    assert memo.estimate_table(query, "t") == 7.0
    assert memo.estimate_table(query, "t") == 7.0
    assert Flaky.calls == 2


def test_table_and_subset_answers_are_separate():
    class Distinct(CardinalityEstimator):
        def estimate_table(self, query, table):
            return 1.0

        def estimate_subset(self, query, tables):
            return 2.0

    query = ConjunctiveQuery(tables=["t"])
    memo = Distinct().planning_scope(query)
    assert memo.estimate_table(query, "t") == 1.0
    assert memo.estimate_subset(query, ["t"]) == 2.0


# ----------------------------------------------------------------------
# A cold_plan-like 4-table chain: each predicate's selectivity is asked
# a bounded number of times per plan
# ----------------------------------------------------------------------
def test_four_table_chain_asks_each_selectivity_at_most_twice(monkeypatch):
    db = Database()
    for name in ("d1", "d2", "d3", "d4"):
        db.execute("CREATE TABLE %s (id INT, a INT, b INT)" % name)
        db.catalog.table(name).insert_rows(
            [(i, (i * 7) % 100, i % 10) for i in range(300)])
    db.execute("ANALYZE")
    calls = []
    original = ColumnStats.selectivity

    def counted(self, op, value):
        calls.append((self.name, op, value))
        return original(self, op, value)

    monkeypatch.setattr(ColumnStats, "selectivity", counted)
    for u in range(12):
        calls.clear()
        result = db.execute(
            "SELECT COUNT(*), SUM(d4.b) FROM d1, d2, d3, d4 "
            "WHERE d1.a = d2.id AND d2.a = d3.id AND d3.a = d4.id "
            "AND d1.id >= %d AND d1.a >= %d AND d1.a < %d AND d4.b <= %d"
            % (u, u * 37 % 100, u * 37 % 100 + 10, u % 10))
        assert result.trace.cache_outcome == "miss"
        assert 4 <= len(calls) <= 8, calls


# ----------------------------------------------------------------------
# Plans do not move: memo vs a pass-through stand-in
# ----------------------------------------------------------------------
class _PassThrough:
    """Stand-in for the memo: every question reaches the estimator."""

    def __init__(self, estimator):
        self.estimator = estimator

    def estimate_table(self, query, table):
        return self.estimator.estimate_table(query, table)

    def estimate_subset(self, query, tables):
        return self.estimator.estimate_subset(query, tables)


def _node_estimates(plan):
    return [(type(n).__name__, repr(n.est_rows), repr(n.est_cost))
            for n in plan.walk()]


def _observe(seed, config):
    """Each join orderer's plan, then the executed statement's EXPLAIN,
    for 12 random queries on fuzz catalog ``seed`` (under ``feedback``
    the statement runs through a :class:`FeedbackLoop`, which feeds it)."""
    db, tables = _build_db(seed)
    run = db.run_query_object
    if config == "feedback":
        run = FeedbackLoop(db).run
    if config == "sampling":
        db.planner.estimator = SamplingEstimator(
            db.catalog, sample_size=30, seed=seed)
    rng = random.Random(seed)
    seen = []
    for __ in range(12):
        query = _random_query(rng, tables)
        for name, orderer in JOIN_ORDERERS.items():
            plan = db.planner.plan(query, order=orderer(db, query))
            seen.append((name, plan.pretty(), _node_estimates(plan)))
        run(query)
        sql = _render_sql(query)
        explain = db.explain(sql)
        seen.append((str(explain), _node_estimates(explain.plan)))
    return seen


@pytest.mark.parametrize("config", ["traditional", "feedback", "sampling"])
def test_memo_plans_equal_pass_through_plans(config, monkeypatch):
    memoized = {seed: _observe(seed, config) for seed in CATALOG_SEEDS}
    for cls in (CardinalityEstimator, TraditionalEstimator):
        monkeypatch.setattr(cls, "planning_scope",
                            lambda self, query: _PassThrough(self))
    for seed in CATALOG_SEEDS:
        assert _observe(seed, config) == memoized[seed], seed


# ----------------------------------------------------------------------
# Histogram lookups: bisect vs the bucket walk they replaced
# ----------------------------------------------------------------------
class _WalkHistogram(EquiDepthHistogram):
    """Reference: the bucket-by-bucket lookups before bisect."""

    def _resid_fraction_below(self, x, inclusive):
        edges = np.asarray(self.edges, dtype=float)
        if self._resid_total == 0:
            return 0.0
        if x < edges[0]:
            return 0.0
        if x > edges[-1] or (inclusive and x == edges[-1]):
            return 1.0
        acc = 0.0
        for i in range(len(self.counts)):
            lo, hi = edges[i], edges[i + 1]
            if x >= hi:
                acc += self.counts[i]
                continue
            if x <= lo:
                break
            span = hi - lo
            frac = (x - lo) / span if span > 0 else 0.5
            acc += self.counts[i] * frac
            break
        return min(1.0, acc / self._resid_total)

    def _fraction_below(self, x, inclusive):
        if self.total == 0:
            return 0.0
        mcv_below = sum(
            c for v, c in self.mcv.items()
            if v < x or (inclusive and v == x)
        )
        resid = self._resid_fraction_below(x, inclusive) * self._resid_total
        return min(1.0, (mcv_below + resid) / self.total)


_POOL = [-5.0, -1.0, 0.0, 0.5, 1.0, 2.0, 3.25, 10.0]
_OUTSIDE = [-1e9, 1e9, math.inf, -math.inf, math.nan]


@st.composite
def _histogram_args(draw):
    """``(edges, counts, n_distinct, mcv)``: duplicate edges, ``[lo, lo]``
    histograms, fractional counts and MCV-only columns included."""
    edges = sorted(draw(st.lists(st.sampled_from(_POOL), min_size=1,
                                 max_size=7)))
    if len(edges) == 1:
        edges *= 2
    counts = draw(st.lists(
        st.one_of(st.integers(0, 50).map(float),
                  st.floats(0.0, 100.0, allow_nan=False)),
        min_size=len(edges) - 1, max_size=len(edges) - 1))
    mcv = draw(st.dictionaries(st.sampled_from(_POOL + [-2.5, 7.0]),
                               st.integers(1, 40), max_size=4))
    if mcv and draw(st.booleans()):
        counts = [0.0] * len(counts)  # MCV-only
    return edges, counts, draw(st.integers(1, 30)), mcv


def _same(a, b):
    return (type(a) is type(b) and repr(a) == repr(b)
            and (a == b or (a != a and b != b)))


def _assert_lookups_match(new, ref, probes):
    for x in probes:
        for op in ("=", "!=", "<", "<=", ">", ">="):
            got, want = new.selectivity(op, x), ref.selectivity(op, x)
            assert _same(got, want), (op, x, got, want)
        for y in probes:
            got, want = new.range_selectivity(x, y), ref.range_selectivity(x, y)
            assert _same(got, want), (x, y, got, want)


@settings(max_examples=300, deadline=None)
@given(args=_histogram_args(),
       extra=st.lists(st.floats(-20.0, 20.0, allow_nan=False), max_size=3))
def test_bisect_lookups_equal_the_bucket_walk(args, extra):
    edges, counts, ndv, mcv = args
    new = EquiDepthHistogram(edges, counts, ndv, mcv=mcv)
    ref = _WalkHistogram(edges, counts, ndv, mcv=mcv)
    _assert_lookups_match(new, ref, sorted(set(edges) | set(mcv))
                          + _OUTSIDE + extra)


@settings(max_examples=150, deadline=None)
@given(values=st.lists(st.sampled_from(_POOL + [4.0, 6.5, 8.0]),
                       min_size=1, max_size=60),
       buckets=st.integers(1, 8),
       extra=st.lists(st.floats(-20.0, 20.0, allow_nan=False), max_size=3))
def test_built_histogram_lookups_equal_the_bucket_walk(values, buckets, extra):
    built = EquiDepthHistogram.build(values, n_buckets=buckets)
    args = (built.edges, built.counts, built.n_distinct)
    new = EquiDepthHistogram(*args, mcv=built.mcv)
    ref = _WalkHistogram(*args, mcv=built.mcv)
    _assert_lookups_match(new, ref, sorted(set(values)) + _OUTSIDE + extra)


def test_traditional_estimator_unchanged_by_its_memo():
    db, tables = _build_db(0)
    est = TraditionalEstimator(db.catalog)
    query = ConjunctiveQuery(
        tables=tables[:2],
        join_edges=[JoinEdge(tables[0], "k", tables[1], "k")],
        predicates=[Predicate(tables[0], "v", "<", 1.5),
                    Predicate(tables[1], "id", ">=", 20)])
    memo = est.planning_scope(query)
    for subset in ([tables[0]], [tables[1]], tables[:2], tables[1::-1]):
        assert repr(memo.estimate_subset(query, subset)) == repr(
            est.estimate_subset(query, subset))
    assert memo.estimate_table(query, tables[0]) == est.estimate_table(
        query, tables[0])
