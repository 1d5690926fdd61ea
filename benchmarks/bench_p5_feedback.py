"""P5 benchmark: the closed cardinality-feedback loop.

Two experiments quantify what executing queries teaches the optimizer:

1. **Learned-estimator correction.** A learned estimator trained only on
   single-predicate queries (marginal selectivities) faces a skewed
   workload of correlated conjunctions it systematically underestimates.
   Each execution's per-node actual cardinalities are ingested into a
   :class:`~repro.engine.optimizer.feedback.QueryFeedbackStore`;
   ``refit_from_feedback`` then retrains on base + observed pairs. The
   benchmark records the workload's median/p95 q-error before and after —
   the after numbers must be strictly better.

2. **Join-order replanning.** A three-table join whose cheapest order
   hinges on a join cardinality the traditional estimator gets badly
   wrong (disjoint key domains it assumes are contained). The cold plan
   joins the wrong pair first; feedback observes the empty join, the
   drifted feedback version invalidates the cached plan, and the re-plan
   flips the join order. The benchmark records both plans, both measured
   ``work`` values, and the win ratio.

Run standalone to (re)generate ``BENCH_P5.json``::

    PYTHONPATH=src python benchmarks/bench_p5_feedback.py

``REPRO_BENCH_FAST=1`` shrinks tables and training epochs.
"""

import json
import os
import statistics

from repro.engine import plans as P
from repro.engine.catalog import Catalog
from repro.engine.database import Database
from repro.engine.executor import count_join_rows
from repro.engine.optimizer.feedback import QueryFeedbackStore
from repro.engine.query import ConjunctiveQuery, JoinEdge, Predicate
from repro.engine.telemetry import q_error
from repro.sim import datagen

FAST = os.environ.get("REPRO_BENCH_FAST", "0") == "1"


# ----------------------------------------------------------------------
# Experiment 1: learned-estimator q-error before/after feedback
# ----------------------------------------------------------------------
def measure_learned_feedback(fast, seed=0):
    """Median/p95 q-error of the learned estimator, cold vs refit."""
    from repro.ai4db.optimization.cardinality import (
        LearnedCardinalityEstimator,
        QueryFeaturizer,
        generate_training_queries,
    )

    n_rows = 2_000 if fast else 8_000
    catalog = Catalog()
    datagen.make_correlated_table(
        catalog, "facts", n_rows=n_rows, n_values=40, correlation=0.9,
        seed=seed,
    )
    featurizer = QueryFeaturizer(catalog, ["facts"], [])
    base_q, base_c = generate_training_queries(
        catalog, "facts", ["a", "b"],
        n_queries=100 if fast else 300, n_values=40, seed=seed + 1,
        max_predicates=1,
    )
    est = LearnedCardinalityEstimator(
        featurizer, hidden=(32,), epochs=60 if fast else 120, seed=seed
    ).fit(base_q, base_c)

    # The skewed workload: correlated conjunctions the marginal-only
    # training set never exhibited.
    workload = [
        ConjunctiveQuery(
            tables=["facts"],
            predicates=[Predicate("facts", "a", op, k),
                        Predicate("facts", "b", op, k)],
        )
        for op in ("<", "<=")
        for k in (5, 8, 10, 12, 15, 20, 25, 30)
    ]
    truths = [count_join_rows(catalog, q, ["facts"]) for q in workload]

    def q_errors():
        return [
            q_error(est.estimate_table(q, "facts"), t)
            for q, t in zip(workload, truths)
        ]

    cold = q_errors()
    store = QueryFeedbackStore()
    for q, t in zip(workload, truths):
        store.observe(q, ["facts"], est.estimate_table(q, "facts"), t)
    used = est.refit_from_feedback(store)
    warm = q_errors()
    return {
        "workload_queries": len(workload),
        "feedback_pairs_used": used,
        "median_q_error_before": statistics.median(cold),
        "median_q_error_after": statistics.median(warm),
        "p95_q_error_before": sorted(cold)[int(0.95 * (len(cold) - 1))],
        "p95_q_error_after": sorted(warm)[int(0.95 * (len(warm) - 1))],
    }


# ----------------------------------------------------------------------
# Experiment 2: stale estimate → drift → replanned join order
# ----------------------------------------------------------------------
def _scan_order(plan):
    return [n.table for n in plan.walk()
            if isinstance(n, (P.SeqScan, P.IndexScan))]


def build_replan_db(fast):
    """Fact table whose f⋈b join is empty but estimated 4x bigger than
    the (real) f⋈a join — the stale-estimate trap."""
    n_f = 4_000 if fast else 40_000
    db = Database(feedback_enabled=True)
    db.execute("CREATE TABLE f (id INT, fk_a INT, fk_b INT)")
    db.catalog.table("f").insert_rows(
        [(i, i % 100, i % 10) for i in range(n_f)]
    )
    db.execute("CREATE TABLE a (id INT)")
    db.catalog.table("a").insert_rows([(i,) for i in range(100)])
    db.execute("CREATE TABLE b (id INT)")
    db.catalog.table("b").insert_rows(
        [(1000 + (j % 50),) for j in range(200)]
    )
    db.execute("ANALYZE")
    return db


def measure_replan(fast):
    """Cold vs feedback-replanned work on the three-way join."""
    db = build_replan_db(fast)
    q3 = ConjunctiveQuery(
        tables=["f", "a", "b"],
        join_edges=[JoinEdge("f", "fk_a", "a", "id"),
                    JoinEdge("f", "fk_b", "b", "id")],
    )
    qfb = ConjunctiveQuery(
        tables=["f", "b"],
        join_edges=[JoinEdge("f", "fk_b", "b", "id")],
    )
    cold_plan = db.planner.plan(q3)
    cold = db.run_query_object(q3)
    # The pair query exposes the empty f⋈b; its huge q-error bumps the
    # feedback version, invalidating q3's cached plan.
    db.run_query_object(qfb)
    warm_plan = db.planner.plan(q3)
    warm = db.run_query_object(q3)
    assert warm.rows == cold.rows
    return {
        "cold_join_order": _scan_order(cold_plan),
        "replanned_join_order": _scan_order(warm_plan),
        "join_order_changed": _scan_order(cold_plan) != _scan_order(warm_plan),
        "replanned_cache_hit": bool(warm.trace.cache_hit),
        "feedback": db.feedback.stats(),
        "cold_work": cold.work,
        "replanned_work": warm.work,
        "work_ratio": cold.work / max(warm.work, 1e-12),
    }


def measure(fast):
    return {
        "fast": fast,
        "learned_feedback": measure_learned_feedback(fast),
        "join_order_replan": measure_replan(fast),
    }


# ----------------------------------------------------------------------
# pytest entry points
# ----------------------------------------------------------------------
def test_p5_learned_q_error_improves():
    """Feedback refit must drop the skewed workload's median q-error."""
    result = measure_learned_feedback(fast=True)
    assert result["feedback_pairs_used"] == result["workload_queries"]
    assert (result["median_q_error_after"]
            < result["median_q_error_before"])


def test_p5_drift_replans_to_cheaper_order():
    """The stale join estimate must replan to a cheaper join order."""
    result = measure_replan(fast=True)
    assert result["join_order_changed"] is True
    assert result["replanned_cache_hit"] is False
    assert result["replanned_work"] < result["cold_work"]
    assert result["feedback"]["drifts"] >= 1


def test_p5_feedback_benchmark(benchmark):
    """Times one full feedback round trip (execute → ingest → replan)."""
    result = benchmark.pedantic(
        measure_replan, args=(True,), rounds=1, iterations=1
    )
    assert result["work_ratio"] > 1.0


if __name__ == "__main__":
    payload = {"bench": "P5 cardinality feedback", "results": []}
    for fast in (True, False):
        result = measure(fast)
        payload["results"].append(result)
        lf, jr = result["learned_feedback"], result["join_order_replan"]
        print("%s: learned median q-error %.2f -> %.2f (p95 %.1f -> %.1f)"
              % ("fast" if fast else "full",
                 lf["median_q_error_before"], lf["median_q_error_after"],
                 lf["p95_q_error_before"], lf["p95_q_error_after"]))
        print("  replan: %s -> %s, work %.0f -> %.0f (%.1fx win)"
              % (jr["cold_join_order"], jr["replanned_join_order"],
                 jr["cold_work"], jr["replanned_work"], jr["work_ratio"]))
    out_path = os.path.join(os.path.dirname(__file__), "..", "BENCH_P5.json")
    with open(os.path.abspath(out_path), "w") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")
    print("wrote BENCH_P5.json")
