"""Self-driving database demo: the AI4DB components working together.

On a star-schema warehouse with an analytical workload, this example runs
the full learned-configuration loop the tutorial describes:

1. the **SQL rewriter** simplifies the workload's queries,
2. the **index advisor** picks indexes under a budget,
3. the **view advisor** materializes views under a space budget,
4. the **knob tuner** (pretrained CDBTune-lite) tunes the simulated server,
5. the **monitoring** stack forecasts load and diagnoses an incident.

Run:  python examples/self_driving_db.py
"""

import numpy as np

from repro.ai4db.config.index_advisor import (
    GreedyIndexAdvisor,
    realize_indexes,
    workload_cost,
)
from repro.ai4db.config.knob_tuning import CDBTuneLite, DefaultConfigTuner
from repro.ai4db.config.sql_rewriter import FixedOrderRewriter
from repro.ai4db.config.view_advisor import GreedyViewAdvisor
from repro.ai4db.monitoring.forecast import AutoregressiveForecaster
from repro.ai4db.monitoring.root_cause import ClusterDiagnoser
from repro.engine import Database
from repro.sim import datagen
from repro.sim.knobs import KnobResponseSimulator, standard_workloads
from repro.sim.traces import arrival_trace, kpi_episodes


def main():
    print("== Building the warehouse ==")
    db = Database()
    datagen.make_star_schema(db.catalog, n_customers=800, n_products=150,
                             n_dates=120, n_sales=12000, seed=0)
    workload = datagen.star_workload(n_queries=25, seed=1)
    base_cost = workload_cost(db.catalog, workload)
    print("Workload: %d analytical queries, base cost %.3g" %
          (len(workload), base_cost))

    print("\n== 1. SQL rewriting ==")
    rewriter = FixedOrderRewriter()
    rewritten = []
    n_applied = 0
    for q in workload:
        new_q, applied = rewriter.rewrite(q, db.catalog)
        rewritten.append(new_q)
        n_applied += len(applied)
    print("Applied %d rule rewrites across the workload" % n_applied)

    print("\n== 2. Index advisor (budget: 3 indexes) ==")
    picks, cost_after_idx = GreedyIndexAdvisor().recommend(
        db.catalog, rewritten, budget=3
    )
    realize_indexes(db.catalog, picks)
    print("Chose:", ", ".join("%s.%s" % p.key() for p in picks))
    print("Estimated workload cost: %.3g -> %.3g (%.0f%%)" %
          (base_cost, cost_after_idx, 100 * cost_after_idx / base_cost))

    print("\n== 3. View advisor (budget: 50 MB) ==")
    views, cost_after_views = GreedyViewAdvisor().recommend(
        db, rewritten, space_budget_bytes=50_000_000
    )
    print("Materialized %d views; cost now %.3g (%.0f%% of base)" %
          (len(views), cost_after_views, 100 * cost_after_views / base_cost))

    print("\n== 4. Knob tuning (simulated server) ==")
    sim = KnobResponseSimulator(seed=7, noise=0.03)
    olap = standard_workloads()[1]
    default_tps = DefaultConfigTuner().tune(sim, olap, 1).best_throughput
    tuner = CDBTuneLite(seed=0)
    tuner.pretrain(sim, standard_workloads(), budget_per_workload=120,
                   rounds=2)
    result = tuner.tune(sim, olap, budget=50)
    print("Default config: %.0f tps -> tuned: %.0f tps (%.1fx)" %
          (default_tps, result.best_throughput,
           result.best_throughput / default_tps))

    print("\n== 5. Monitoring ==")
    series, __ = arrival_trace(n_hours=24 * 21, seed=2)
    forecaster = AutoregressiveForecaster().fit(series[:-24])
    forecast = forecaster.predict(series[:-24], horizon=24)
    print("Next-24h arrival forecast: mean %.0f qph (actual %.0f qph)" %
          (float(np.mean(forecast)), float(np.mean(series[-24:]))))
    X, labels = kpi_episodes(n_episodes=200, seed=3)
    diagnoser = ClusterDiagnoser(seed=0).fit(X[:150], lambda i: labels[i])
    incident = X[150]
    print("Incident diagnosed as: %s (truth: %s, DBA labels used: %d)" %
          (diagnoser.diagnose_batch(incident.reshape(1, -1))[0], labels[150],
           diagnoser.labels_used_))

    print("\nSelf-driving loop complete: cost %.3g -> %.3g, server %.0f -> "
          "%.0f tps." % (base_cost, cost_after_views, default_tps,
                         result.best_throughput))


if __name__ == "__main__":
    main()
