"""P9 benchmark: plan selection — who wins where, and what the bandit learns.

The plan-selection layer's acceptance experiment. A skewed + correlated
workload is built so the estimate-driven arms are *deceived*:

* a correlated predicate pair on the probe table (``b.p = 1 AND b.q = 1``
  holds for every heavy row) makes independence-multiplied selectivities
  underestimate the filtered size ~17x;
* a heavy-hitter join key (``k = 99``) is inserted *after* ANALYZE, so
  histogram-driven join estimates still describe the benign world while
  the true ``b ⋈ c`` fan-out is quadratic in the burst size.

The UES arm is immune by construction — its order comes from exact
max-frequency upper bounds, not estimates — so on the explosive template
the estimate-driven arms do >5x the work of UES, while on the benign
templates they win slightly (UES ignores predicates). That asymmetry is
exactly what the bandit has to learn: four strategies race the same
query sequence and ``BENCH_P9.json`` records who wins where.

* **optimal** — per-query minimum work over every arm (the oracle the
  learned selector is chasing; unreachable in one pass).
* **learned** — a live ``plan_selector="bandit"`` database running the
  sequence online, training only on its own measured work.
* **pessimistic** — the UES arm everywhere (``plan_selector=
  "pessimistic"``): safe on the explosive template, a constant small tax
  on the benign ones.
* **heuristic** — the greedy arm everywhere: the single-path baseline
  this PR's refactor replaced.

Acceptance gates (PR 10): the bandit's total work beats the heuristic
arm's, while its p95 per-query work stays within ``REGRET_CAP`` x the
UES arm's p95 — it may explore, but the regret guard and strike-demotion
keep the tail bounded.

Run standalone to (re)generate ``BENCH_P9.json``::

    PYTHONPATH=src python benchmarks/bench_p9_plansel.py

``REPRO_BENCH_FAST=1`` shrinks the workload. The acceptance gates run at
full size and are marked slow (PR 3 convention); a fast-size headline
gate covers the total-work win.
"""

import json
import os
import random

import pytest

from repro.engine import Database
from repro.engine.optimizer.hints import default_arms
from repro.engine.optimizer.selection import REGRET_CAP
from repro.engine.telemetry import percentile

FAST = os.environ.get("REPRO_BENCH_FAST", "0") == "1"

#: The heavy-hitter join key inserted after ANALYZE (outside the benign
#: key domain 0..39, so only burst rows collide on it).
HEAVY_K = 99

#: Workload mix: (template name, weight).
MIX = (("explosive", 0.35), ("benign3", 0.30),
       ("twoway", 0.20), ("groupby", 0.15))


def _sizes(fast):
    """(a_rows, b_and_c_rows, heavy_burst, workload_queries)."""
    return (300, 1_000, 300, 160) if fast else (600, 2_500, 700, 400)


def build_db(fast, seed=0, **config):
    """The skewed + correlated catalog with deliberately stale statistics.

    ``a`` holds only benign keys; ``b`` and ``c`` get a post-ANALYZE
    burst of ``heavy`` rows on :data:`HEAVY_K` (with ``p = q = 1`` on
    ``b``, the correlation). Feedback stays off so the estimate-driven
    arms keep planning from the benign-world statistics — the deception
    under test is the planner's, and only plan *selection* may route
    around it.
    """
    n_a, n_bc, heavy, __ = _sizes(fast)
    rng = random.Random(seed)
    db = Database(seed=seed, **config)
    db.execute("CREATE TABLE a (id INT, k INT, v INT)")
    db.execute("CREATE TABLE b (id INT, k INT, p INT, q INT)")
    db.execute("CREATE TABLE c (id INT, k INT, w INT)")
    db.catalog.table("a").insert_rows([
        (i, rng.randrange(40), rng.randrange(1000)) for i in range(n_a)
    ])
    db.catalog.table("b").insert_rows([
        (i, rng.randrange(40), rng.randrange(8), rng.randrange(8))
        for i in range(n_bc)
    ])
    db.catalog.table("c").insert_rows([
        (i, rng.randrange(40), rng.randrange(1000)) for i in range(n_bc)
    ])
    db.execute("ANALYZE")
    db.catalog.table("b").insert_rows([
        (n_bc + i, HEAVY_K, 1, 1) for i in range(heavy)
    ])
    db.catalog.table("c").insert_rows([
        (n_bc + i, HEAVY_K, rng.randrange(1000)) for i in range(heavy)
    ])
    return db


def _template_sql(name, rng):
    """One concrete SQL string for a template (literals from small pools,
    so the plan cache sees repeats)."""
    v = rng.choice((300, 400, 500, 600))
    if name == "explosive":
        # b filtered by the correlated pair: its true size includes the
        # whole heavy burst, its estimate does not. The only join edges
        # are a-c and b-c, so an order that starts from the
        # "small-looking" b must pay the b >< c heavy-key fan-out.
        return ("SELECT COUNT(*) FROM a, b, c "
                "WHERE a.k = c.k AND b.k = c.k "
                "AND b.p = 1 AND b.q = 1 AND a.v < %d" % v)
    if name == "benign3":
        # Same join shape, but the predicate excludes the burst
        # (heavy rows all have p = 1): every order is safe, and the
        # estimate-driven arms slightly beat UES (which ignores filters).
        return ("SELECT COUNT(*) FROM a, b, c "
                "WHERE a.k = c.k AND b.k = c.k "
                "AND b.p = %d AND a.v < %d" % (rng.choice((2, 4, 6)), v))
    if name == "twoway":
        return ("SELECT COUNT(*) FROM a, c "
                "WHERE a.k = c.k AND a.v < %d" % v)
    if name == "groupby":
        return "SELECT k, COUNT(*) FROM c GROUP BY k"
    raise ValueError(name)


def make_workload(fast, seed=0):
    """The query sequence: ``[(template_name, sql), ...]``, MIX-weighted."""
    __, __, __, n_queries = _sizes(fast)
    rng = random.Random(seed * 7919 + 17)
    names = [name for name, __w in MIX]
    weights = [w for __n, w in MIX]
    return [
        (name, _template_sql(name, rng))
        for name in rng.choices(names, weights=weights, k=n_queries)
    ]


def arm_work_table(db, sqls):
    """Measured work per (sql, arm): ``{sql: {arm: total_work}}``.

    Plans each distinct statement once per arm via
    ``Planner.plan_candidates`` and executes on the database's executor —
    the ground truth the *optimal*, *heuristic*, and *pessimistic*
    strategies are scored from (the workload is read-only, so per-arm
    work is deterministic and independent of sequence position).
    """
    table = {}
    for sql in sqls:
        query = db.pipeline.lower_sql(sql)
        per_arm = {}
        for hints in default_arms():
            cand = db.planner.plan_candidates(query, [hints])[0]
            result = db.executor.execute(cand.plan)
            per_arm[hints.name] = result.telemetry.total_work
        table[sql] = per_arm
    return table


def _series_stats(works):
    return {
        "total_work": sum(works),
        "mean_work": sum(works) / max(len(works), 1),
        "p50_work": percentile(works, 0.50),
        "p95_work": percentile(works, 0.95),
        "max_work": max(works) if works else 0.0,
    }


def run_strategies(fast, seed=0):
    """Race the four strategies over one workload; the P9 result dict."""
    workload = make_workload(fast, seed=seed)
    distinct = sorted({sql for __name, sql in workload})

    oracle_db = build_db(fast, seed=seed)
    table = arm_work_table(oracle_db, distinct)

    optimal = [min(table[sql].values()) for __name, sql in workload]
    heuristic = [table[sql]["greedy"] for __name, sql in workload]
    pessimistic = [table[sql]["ues"] for __name, sql in workload]

    # The learned strategy runs live: selection, online training, and
    # per-arm plan caching all exercised end to end.
    bandit_db = build_db(fast, seed=seed, plan_selector="bandit")
    learned, arm_picks = [], {}
    for __name, sql in workload:
        result = bandit_db.execute(sql)
        learned.append(result.telemetry.total_work)
        arm = result.trace.arm
        arm_picks[arm] = arm_picks.get(arm, 0) + 1

    # Who wins where: per template, each arm's mean work and the winner.
    who_wins = {}
    for tname in sorted({name for name, __sql in workload}):
        sqls = sorted({sql for name, sql in workload if name == tname})
        per_arm = {
            arm: sum(table[sql][arm] for sql in sqls) / len(sqls)
            for arm in table[sqls[0]]
        }
        who_wins[tname] = {
            "mean_work_per_arm": per_arm,
            "winner": min(per_arm, key=per_arm.get),
        }

    strategies = {
        "optimal": _series_stats(optimal),
        "learned": _series_stats(learned),
        "pessimistic": _series_stats(pessimistic),
        "heuristic": _series_stats(heuristic),
    }
    return {
        "fast": fast,
        "queries": len(workload),
        "distinct_statements": len(distinct),
        "mix": dict(MIX),
        "regret_cap": REGRET_CAP,
        "strategies": strategies,
        "who_wins_where": who_wins,
        "bandit_arm_picks": dict(sorted(arm_picks.items())),
        "bandit_selector": bandit_db.plan_selector.stats(),
        "gates": {
            "learned_total_lt_heuristic": (
                strategies["learned"]["total_work"]
                < strategies["heuristic"]["total_work"]
            ),
            "learned_p95_le_cap_x_ues_p95": (
                strategies["learned"]["p95_work"]
                <= REGRET_CAP * strategies["pessimistic"]["p95_work"]
            ),
        },
    }


def measure(fast, seed=0):
    return run_strategies(fast, seed=seed)


# ----------------------------------------------------------------------
# pytest entry points
# ----------------------------------------------------------------------
def test_p9_who_wins_where():
    """The workload separates the arms as designed: UES wins the
    explosive template, an estimate-driven arm wins the benign 3-way."""
    result = run_strategies(fast=True)
    wins = result["who_wins_where"]
    assert wins["explosive"]["winner"] == "ues", wins["explosive"]
    assert wins["benign3"]["winner"] != "ues", wins["benign3"]
    per_arm = wins["explosive"]["mean_work_per_arm"]
    assert per_arm["greedy"] > 5.0 * per_arm["ues"], per_arm


def test_p9_bandit_beats_heuristic():
    """Headline gate at fast size: online bandit total work beats the
    greedy arm, and every arm got explored at least once."""
    result = run_strategies(fast=True)
    strategies = result["strategies"]
    assert (strategies["learned"]["total_work"]
            < strategies["heuristic"]["total_work"]), strategies
    assert strategies["optimal"]["total_work"] <= min(
        s["total_work"] for name, s in strategies.items() if name != "optimal"
    ), strategies
    assert result["bandit_arm_picks"].get("ues", 0) > 0, result


def test_p9_plansel_benchmark(benchmark):
    """Times the full FAST-aware four-strategy race."""
    payload = benchmark.pedantic(
        measure, args=(FAST,), rounds=1, iterations=1,
    )
    assert payload["gates"]["learned_total_lt_heuristic"], payload["gates"]


@pytest.mark.slow
def test_p9_gates_full_size():
    """Acceptance gates at full size: the bandit beats the heuristic arm
    on total work while its p95 stays within REGRET_CAP x the UES arm's
    p95."""
    result = run_strategies(fast=False)
    gates = result["gates"]
    assert gates["learned_total_lt_heuristic"], result["strategies"]
    assert gates["learned_p95_le_cap_x_ues_p95"], result["strategies"]


if __name__ == "__main__":
    payload = {"bench": "P9 plan selection (hint-set arms)", "results": []}
    for fast in (True, False):
        result = measure(fast)
        payload["results"].append(result)
        strategies = result["strategies"]
        print("%s: %d queries | total work: optimal %.0f, learned %.0f, "
              "pessimistic %.0f, heuristic %.0f | gates: %s" % (
                  "fast" if fast else "full", result["queries"],
                  strategies["optimal"]["total_work"],
                  strategies["learned"]["total_work"],
                  strategies["pessimistic"]["total_work"],
                  strategies["heuristic"]["total_work"],
                  result["gates"],
              ))
        for tname, entry in result["who_wins_where"].items():
            print("  %-10s winner=%s" % (tname, entry["winner"]))
    out_path = os.path.join(os.path.dirname(__file__), "..", "BENCH_P9.json")
    with open(os.path.abspath(out_path), "w") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")
    print("wrote BENCH_P9.json")
