"""Learned query optimization: estimator, join orderer, end-to-end.

Shows the three levels at which learning replaces the optimizer's
heuristics (paper §2.1, "learning-based database optimization"):

1. a learned **cardinality estimator** fixes the independence assumption
   on correlated data,
2. **MCTS join ordering** matches DP plan quality without exhaustive
   enumeration,
3. the **end-to-end NEO-lite optimizer** learns from executed latency and
   beats the misestimating analytic optimizer.

Run:  python examples/learned_query_optimizer.py
"""

import numpy as np

from repro.ai4db.optimization.cardinality import (
    LearnedCardinalityEstimator,
    QueryFeaturizer,
    generate_training_queries,
)
from repro.ai4db.optimization.end_to_end import NeoLiteOptimizer
from repro.ai4db.optimization.join_order import (
    MCTSJoinOrderer,
    dp_left_deep,
    greedy_order,
)
from repro.engine import Database
from repro.engine.catalog import Catalog
from repro.engine.optimizer.cardinality import TraditionalEstimator
from repro.engine.optimizer.cost import CostModel
from repro.ml import q_error_summary
from repro.sim import datagen


def main():
    print("== 1. Learned cardinality estimation ==")
    catalog = Catalog()
    datagen.make_correlated_table(catalog, "facts", n_rows=8000, n_values=50,
                                  correlation=0.9, seed=0)
    queries, cards = generate_training_queries(
        catalog, "facts", ["a", "b", "c"], n_queries=400, n_values=50, seed=1
    )
    split = 320
    featurizer = QueryFeaturizer(catalog, ["facts"], [])
    learned = LearnedCardinalityEstimator(featurizer, epochs=100, seed=0)
    learned.fit(queries[:split], cards[:split])
    traditional = TraditionalEstimator(catalog)
    trad_preds = [traditional.estimate_subset(q, q.tables)
                  for q in queries[split:]]
    for name, preds in (("histogram", trad_preds),
                        ("learned", learned.predict(queries[split:]))):
        s = q_error_summary(cards[split:], preds)
        print("  %-10s q50=%.2f q95=%.1f q99=%.1f max=%.1f" %
              (name, s["q50"], s["q95"], s["q99"], s["max"]))

    print("\n== 2. MCTS join ordering on an 8-table clique ==")
    cat2 = Catalog()
    names, edges = datagen.make_join_graph_schema(
        cat2, "clique", n_tables=8, rows_per_table=600, seed=2
    )
    join_queries = datagen.join_graph_workload(names, edges, n_queries=5,
                                               seed=3, min_tables=7)
    estimator = TraditionalEstimator(cat2)
    cost_model = CostModel()
    mcts = MCTSJoinOrderer(estimator, cost_model, n_iterations=250, seed=0)
    for i, q in enumerate(join_queries):
        __, dp_cost = dp_left_deep(q, estimator, cost_model)
        __, greedy_cost = greedy_order(q, estimator, cost_model)
        __, mcts_cost = mcts.order(q)
        print("  query %d (%d tables): dp=%.3g greedy=%.3g mcts=%.3g" %
              (i, len(q.tables), dp_cost, greedy_cost, mcts_cost))

    print("\n== 3. End-to-end optimizer learning from latency ==")
    db = Database()
    nnames, nedges = datagen.make_join_graph_schema(
        db.catalog, "clique", n_tables=5, rows_per_table=600, seed=3,
        prefix="n", correlated=True,
    )
    workload = datagen.join_graph_workload(nnames, nedges, n_queries=16,
                                           seed=4, min_tables=4)
    train, test = workload[:8], workload[8:]
    neo = NeoLiteOptimizer(db, nnames, epochs=100, seed=0)
    neo.bootstrap(train, extra_random_orders=2).train()
    analytic_work, neo_work = [], []
    for q in test:
        analytic_work.append(db.executor.execute(db.planner.plan(q)).work)
        result, order = neo.execute(q, learn=False)
        neo_work.append(result.work)
    print("  mean executed work: analytic=%.3g  neo-lite=%.3g (%.2fx)" %
          (float(np.mean(analytic_work)), float(np.mean(neo_work)),
           float(np.mean(analytic_work)) / float(np.mean(neo_work))))


if __name__ == "__main__":
    main()
