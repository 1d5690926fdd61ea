"""Experiment definitions F1, E1–E17 (see DESIGN.md §5).

Each experiment is a registered function ``(seed, fast) -> [ResultTable]``.
``fast=True`` shrinks data/budget for CI-speed runs; the benchmark suite
uses the full settings. Everything is seeded, so tables are reproducible.
"""

import numpy as np

from repro.common import ResultTable, ensure_rng
from repro.harness.registry import register_experiment


# ----------------------------------------------------------------------
# F1 — the taxonomy (Figure 1)
# ----------------------------------------------------------------------
@register_experiment(
    "F1",
    "Figure 1 taxonomy coverage",
    "every box in the paper's Figure 1 maps to an implemented module",
)
def f1_taxonomy(seed=0, fast=False):
    """Experiment f1_taxonomy (see the register_experiment metadata above)."""
    import importlib

    boxes = [
        # (Figure-1 box, implementing module, key public symbol)
        ("Knob Tuning", "repro.ai4db.config.knob_tuning", "CDBTuneLite"),
        ("Index Advisor", "repro.ai4db.config.index_advisor", "RLIndexAdvisor"),
        ("View Advisor", "repro.ai4db.config.view_advisor", "RLViewAdvisor"),
        ("SQL Rewriter", "repro.ai4db.config.sql_rewriter", "LearnedRewriter"),
        ("Database Partition", "repro.ai4db.config.partitioner", "RLPartitioner"),
        ("Cardinality Estimation", "repro.ai4db.optimization.cardinality",
         "LearnedCardinalityEstimator"),
        ("Cost Estimation", "repro.ai4db.optimization.cost", "LearnedCostModel"),
        ("Join Order Selection", "repro.ai4db.optimization.join_order",
         "MCTSJoinOrderer"),
        ("End-to-end Optimizer", "repro.ai4db.optimization.end_to_end",
         "NeoLiteOptimizer"),
        ("Learned Indexes", "repro.ai4db.design.learned_index", "RMIIndex"),
        ("Learned Data Structures", "repro.ai4db.design.learned_kv",
         "DesignContinuumSearch"),
        ("Transaction Management", "repro.ai4db.design.txn_mgmt",
         "LearnedScheduler"),
        ("Health Monitor", "repro.ai4db.monitoring.root_cause",
         "ClusterDiagnoser"),
        ("Activity Monitor", "repro.ai4db.monitoring.activity_monitor",
         "BanditAuditPolicy"),
        ("Performance Prediction", "repro.ai4db.monitoring.perf_pred",
         "GraphEmbeddingPredictor"),
        ("Workload Forecasting", "repro.ai4db.monitoring.forecast",
         "EnsembleForecaster"),
        ("Data Discovery (security)", "repro.ai4db.security.discovery",
         "LearnedSensitiveDiscovery"),
        ("Access Control", "repro.ai4db.security.access_control",
         "LearnedAccessController"),
        ("SQL Injection", "repro.ai4db.security.sql_injection",
         "LearnedInjectionDetector"),
        ("Declarative Language Model", "repro.db4ai.declarative.aisql",
         "AISQLExtension"),
        ("Data Discovery (DB4AI)", "repro.db4ai.governance.discovery",
         "EnterpriseKnowledgeGraph"),
        ("Data Cleaning", "repro.db4ai.governance.cleaning",
         "ActiveCleanSession"),
        ("Data Labeling", "repro.db4ai.governance.labeling", "DawidSkene"),
        ("Data Lineage", "repro.db4ai.governance.lineage", "LineageTracker"),
        ("Feature Selection", "repro.db4ai.training.features",
         "FeatureComputeEngine"),
        ("Model Selection", "repro.db4ai.training.model_select",
         "successive_halving"),
        ("Model Management", "repro.db4ai.training.registry", "ModelRegistry"),
        ("Hardware Acceleration", "repro.db4ai.training.hardware",
         "crossover_table"),
        ("Operator Support", "repro.db4ai.inference.operators",
         "ModelScanOperator"),
        ("Operator Selection", "repro.db4ai.inference.operators",
         "select_operator"),
        ("Execution Acceleration", "repro.db4ai.inference.pushdown",
         "CascadeStrategy"),
    ]
    table = ResultTable(
        "F1: Figure-1 box -> module coverage",
        ["figure1_box", "module", "symbol", "present"],
    )
    for box, module, symbol in boxes:
        mod = importlib.import_module(module)
        table.add_row(box, module, symbol, hasattr(mod, symbol))
    return [table]


# ----------------------------------------------------------------------
# E1 — knob tuning
# ----------------------------------------------------------------------
@register_experiment(
    "E1",
    "Learned knob tuning vs. search baselines (CDBTune/QTune/OtterTune)",
    "pretrained RL tuners and BO beat grid/random within the online budget; "
    "all beat the vendor default",
)
def e1_knob_tuning(seed=0, fast=False):
    """Experiment e1_knob_tuning (see the register_experiment metadata above)."""
    from repro.ai4db.config.knob_tuning import (
        BayesianOptimizationTuner,
        CDBTuneLite,
        DefaultConfigTuner,
        GridSearchTuner,
        QTuneLite,
        RandomSearchTuner,
        run_tuning_session,
    )
    from repro.sim.knobs import KnobResponseSimulator, standard_workloads

    budget = 30 if fast else 60
    pretrain_budget = 60 if fast else 200
    rounds = 1 if fast else 3
    workloads = standard_workloads()
    sim = KnobResponseSimulator(seed=7, noise=0.03)
    cdb = CDBTuneLite(seed=seed)
    cdb.pretrain(sim, workloads, budget_per_workload=pretrain_budget,
                 rounds=rounds)
    qt = QTuneLite(seed=seed)
    qt.pretrain(sim, workloads, budget_per_workload=pretrain_budget,
                rounds=rounds)
    table = ResultTable(
        "E1: best throughput (tps) after %d online observations" % budget,
        ["workload", "default", "random", "grid", "bo", "cdbtune", "qtune"],
    )
    for wl in workloads:
        baselines = [
            DefaultConfigTuner(),
            RandomSearchTuner(seed=seed),
            GridSearchTuner(),
            BayesianOptimizationTuner(seed=seed),
        ]
        res = run_tuning_session(baselines, sim, wl, budget)
        res["cdbtune"] = cdb.tune(sim, wl, budget)
        res["qtune"] = qt.tune(sim, wl, budget)
        table.add_row(
            wl.name,
            res["default"].best_throughput,
            res["random"].best_throughput,
            res["grid"].best_throughput,
            res["bo"].best_throughput,
            res["cdbtune"].best_throughput,
            res["qtune"].best_throughput,
        )
    return [table]


# ----------------------------------------------------------------------
# E2 — index advisor
# ----------------------------------------------------------------------
def _star_db(seed, fast):
    from repro.engine.database import Database
    from repro.sim import datagen

    db = Database()
    scale = 0.4 if fast else 1.0
    datagen.make_star_schema(
        db.catalog,
        n_customers=int(1000 * scale),
        n_products=int(200 * scale),
        n_dates=120,
        n_sales=int(15000 * scale),
        seed=seed,
    )
    return db


@register_experiment(
    "E2",
    "Index advisors: greedy what-if vs. RL vs. classifier",
    "all advisors recover most of the achievable cost reduction; the "
    "classifier needs no what-if calls at recommendation time",
)
def e2_index_advisor(seed=0, fast=False):
    """Experiment e2_index_advisor (see the register_experiment metadata above)."""
    from repro.ai4db.config.index_advisor import (
        ClassifierIndexAdvisor,
        GreedyIndexAdvisor,
        RLIndexAdvisor,
        workload_cost,
    )
    from repro.sim import datagen

    db = _star_db(seed, fast)
    workload = datagen.star_workload(n_queries=15 if fast else 30, seed=seed + 1)
    base = workload_cost(db.catalog, workload)
    budget = 3
    table = ResultTable(
        "E2: workload cost under a %d-index budget" % budget,
        ["advisor", "workload_cost", "cost_vs_base", "indexes"],
    )
    table.add_row("none", base, 1.0, "-")
    g_picks, g_cost = GreedyIndexAdvisor().recommend(db.catalog, workload, budget)
    table.add_row("greedy-whatif", g_cost, g_cost / base,
                  ", ".join("%s.%s" % c.key() for c in g_picks))
    r_picks, r_cost = RLIndexAdvisor(
        episodes=30 if fast else 120, seed=seed
    ).recommend(db.catalog, workload, budget)
    table.add_row("rl", r_cost, r_cost / base,
                  ", ".join("%s.%s" % c.key() for c in r_picks))
    train = [
        datagen.star_workload(n_queries=10 if fast else 20, seed=seed + s)
        for s in (2, 3)
    ]
    clf = ClassifierIndexAdvisor(seed=seed).fit(db.catalog, train)
    c_picks, c_cost = clf.recommend(db.catalog, workload, budget)
    table.add_row("classifier", c_cost, c_cost / base,
                  ", ".join("%s.%s" % c.key() for c in c_picks))
    return [table]


# ----------------------------------------------------------------------
# E3 — view advisor
# ----------------------------------------------------------------------
@register_experiment(
    "E3",
    "Materialized-view advisors under a space budget",
    "both advisors cut workload cost substantially vs. no views; greedy "
    "benefit-per-byte is a strong static baseline",
)
def e3_view_advisor(seed=0, fast=False):
    """Experiment e3_view_advisor (see the register_experiment metadata above)."""
    from repro.ai4db.config.view_advisor import (
        GreedyViewAdvisor,
        RLViewAdvisor,
        workload_cost_with_views,
    )
    from repro.sim import datagen

    table = ResultTable(
        "E3: workload cost under a 50 MB view budget",
        ["advisor", "workload_cost", "cost_vs_base", "views_chosen"],
    )
    budget_bytes = 50_000_000

    db = _star_db(seed, fast)
    workload = datagen.star_workload(n_queries=15 if fast else 30, seed=seed + 1)
    base = workload_cost_with_views(db, workload, [])
    table.add_row("none", base, 1.0, 0)
    gv, g_cost = GreedyViewAdvisor().recommend(db, workload, budget_bytes)
    table.add_row("greedy", g_cost, g_cost / base, len(gv))

    db2 = _star_db(seed, fast)
    rv, r_cost = RLViewAdvisor(
        episodes=30 if fast else 120, seed=seed
    ).recommend(db2, workload, budget_bytes)
    table.add_row("rl", r_cost, r_cost / base, len(rv))
    return [table]


# ----------------------------------------------------------------------
# E4 — SQL rewriter
# ----------------------------------------------------------------------
@register_experiment(
    "E4",
    "SQL rewriting: learned rule ordering vs. fixed order vs. none",
    "learned ordering >= fixed order >= none on final plan cost, with "
    "fewer rule applications",
)
def e4_sql_rewriter(seed=0, fast=False):
    """Experiment e4_sql_rewriter (see the register_experiment metadata above)."""
    from repro.ai4db.config.sql_rewriter import (
        FixedOrderRewriter,
        LearnedRewriter,
        make_rewrite_corpus,
        plan_cost,
    )
    from repro.sim import datagen
    from repro.engine.database import Database

    db = Database()
    names, edges = datagen.make_join_graph_schema(
        db.catalog, "star", n_tables=4,
        rows_per_table=800 if fast else 2000, seed=seed,
    )
    # Hub is names[0]; corpus filters the spokes and joins back to the hub.
    corpus = make_rewrite_corpus(
        db.catalog, names[1], [(names[0], "fk", "id")], None,
        n_queries=10 if fast else 25, n_values=200, seed=seed + 1,
    )
    fixed = FixedOrderRewriter()
    learned = LearnedRewriter(n_iterations=25 if fast else 60, seed=seed)
    rows = {"none": [], "fixed": [], "learned": []}
    apps = {"fixed": 0, "learned": 0}
    for q in corpus:
        rows["none"].append(plan_cost(db.catalog, q))
        qf, af = fixed.rewrite(q, db.catalog)
        rows["fixed"].append(plan_cost(db.catalog, qf))
        apps["fixed"] += len(af)
        ql, al = learned.rewrite(q, db.catalog)
        rows["learned"].append(plan_cost(db.catalog, ql))
        apps["learned"] += len(al)
    table = ResultTable(
        "E4: mean plan cost after rewriting (%d queries)" % len(corpus),
        ["rewriter", "mean_plan_cost", "cost_vs_none", "rule_applications"],
    )
    base = float(np.mean(rows["none"]))
    table.add_row("none", base, 1.0, 0)
    table.add_row("fixed-order", float(np.mean(rows["fixed"])),
                  float(np.mean(rows["fixed"])) / base, apps["fixed"])
    table.add_row("learned-mcts", float(np.mean(rows["learned"])),
                  float(np.mean(rows["learned"])) / base, apps["learned"])
    return [table]


# ----------------------------------------------------------------------
# E5 — partitioning
# ----------------------------------------------------------------------
@register_experiment(
    "E5",
    "Partition-key advisor: RL vs. most-filtered-column heuristic",
    "RL discovers co-partitioning on join keys and beats the heuristic "
    "when shuffles dominate",
)
def e5_partitioner(seed=0, fast=False):
    """Experiment e5_partitioner (see the register_experiment metadata above)."""
    from repro.ai4db.config.partitioner import (
        HeuristicPartitioner,
        PartitioningCostModel,
        RLPartitioner,
    )
    from repro.sim import datagen

    db = _star_db(seed, fast)
    workload = datagen.star_workload(n_queries=10 if fast else 20, seed=seed + 4)
    tables = ["sales", "customer", "product", "dates"]
    cost_model = PartitioningCostModel(db.catalog, n_nodes=4)
    table = ResultTable(
        "E5: distributed workload cost, 4 nodes",
        ["method", "workload_cost", "cost_vs_heuristic", "assignment"],
    )
    hp, hp_cost = HeuristicPartitioner().recommend(cost_model, tables, workload)
    table.add_row("heuristic", hp_cost, 1.0,
                  ", ".join("%s->%s" % kv for kv in sorted(hp.items())))
    rp, rp_cost = RLPartitioner(
        episodes=80 if fast else 300, seed=seed
    ).recommend(cost_model, tables, workload)
    table.add_row("rl", rp_cost, rp_cost / hp_cost,
                  ", ".join("%s->%s" % kv for kv in sorted(rp.items())))
    return [table]


# ----------------------------------------------------------------------
# E6 — cardinality estimation
# ----------------------------------------------------------------------
@register_experiment(
    "E6",
    "Cardinality estimation on correlated data (MSCN-lite)",
    "learned tail q-error (q95/q99/max) is far below the histogram "
    "estimator's on correlated columns; sampling sits in between",
)
def e6_cardinality(seed=0, fast=False):
    """Experiment e6_cardinality (see the register_experiment metadata above)."""
    from repro.ai4db.optimization.cardinality import (
        LearnedCardinalityEstimator,
        QueryFeaturizer,
        generate_training_queries,
    )
    from repro.sim import datagen
    from repro.engine.catalog import Catalog
    from repro.ai4db.optimization.estimators import SamplingEstimator
    from repro.engine.optimizer.cardinality import TraditionalEstimator
    from repro.ml import q_error_summary

    catalog = Catalog()
    n_rows = 4000 if fast else 10000
    datagen.make_correlated_table(
        catalog, "facts", n_rows=n_rows, n_values=50, correlation=0.9,
        seed=seed,
    )
    n_q = 250 if fast else 600
    queries, cards = generate_training_queries(
        catalog, "facts", ["a", "b", "c"], n_queries=n_q, n_values=50,
        seed=seed + 1, max_predicates=3,
    )
    split = int(n_q * 0.8)
    featurizer = QueryFeaturizer(catalog, ["facts"], [])
    learned = LearnedCardinalityEstimator(
        featurizer, hidden=(64, 32), epochs=60 if fast else 150, seed=seed
    )
    learned.fit(queries[:split], cards[:split])
    test_q, test_c = queries[split:], cards[split:]
    estimators = {
        "histogram": TraditionalEstimator(catalog),
        "sampling": SamplingEstimator(catalog, sample_size=500, seed=seed),
    }
    table = ResultTable(
        "E6: q-error on held-out queries (correlation = 0.9)",
        ["estimator", "q50", "q90", "q95", "q99", "max"],
    )
    for name, est in estimators.items():
        preds = [est.estimate_subset(q, q.tables) for q in test_q]
        s = q_error_summary(test_c, preds)
        table.add_row(name, s["q50"], s["q90"], s["q95"], s["q99"], s["max"])
    s = q_error_summary(test_c, learned.predict(test_q))
    table.add_row("learned-mscn", s["q50"], s["q90"], s["q95"], s["q99"],
                  s["max"])

    # Ablation: correlation sweep for the histogram estimator's q95.
    sweep = ResultTable(
        "E6b: histogram q95 vs. column correlation (ablation)",
        ["correlation", "histogram_q95", "learned_q95"],
    )
    for corr in (0.0, 0.5, 0.9):
        cat2 = Catalog()
        datagen.make_correlated_table(
            cat2, "facts", n_rows=n_rows // 2, n_values=50,
            correlation=corr, seed=seed + 2,
        )
        qs, cs = generate_training_queries(
            cat2, "facts", ["a", "b", "c"], n_queries=120 if fast else 300,
            n_values=50, seed=seed + 3, max_predicates=3,
        )
        sp = int(len(qs) * 0.8)
        feat2 = QueryFeaturizer(cat2, ["facts"], [])
        le2 = LearnedCardinalityEstimator(
            feat2, hidden=(64, 32), epochs=50 if fast else 120, seed=seed
        ).fit(qs[:sp], cs[:sp])
        tr = TraditionalEstimator(cat2)
        tp = [tr.estimate_subset(q, q.tables) for q in qs[sp:]]
        sweep.add_row(
            corr,
            q_error_summary(cs[sp:], tp)["q95"],
            q_error_summary(cs[sp:], le2.predict(qs[sp:]))["q95"],
        )
    return [table, sweep]


# ----------------------------------------------------------------------
# E7 — join ordering
# ----------------------------------------------------------------------
@register_experiment(
    "E7",
    "Join ordering: DP vs. greedy vs. random vs. MCTS vs. DQN",
    "DP is optimal but enumeration time explodes with table count; "
    "MCTS/DQN stay near DP cost at bounded optimization time",
)
def e7_join_order(seed=0, fast=False):
    """Experiment e7_join_order (see the register_experiment metadata above)."""
    from repro.ai4db.optimization.join_order import (
        DQNJoinOrderer,
        compare_orderers,
    )
    from repro.sim import datagen
    from repro.engine.catalog import Catalog
    from repro.engine.optimizer.cardinality import TraditionalEstimator
    from repro.engine.optimizer.cost import CostModel

    sizes = (5, 7) if fast else (5, 8, 11)
    tables = []
    main = ResultTable(
        "E7: mean plan cost (relative to DP) and optimization time",
        ["n_tables", "method", "cost_vs_dp", "mean_opt_time_s"],
    )
    for n in sizes:
        catalog = Catalog()
        names, edges = datagen.make_join_graph_schema(
            catalog, "clique", n_tables=n,
            rows_per_table=500 if fast else 800,
            seed=seed, prefix="c%d_" % n,
        )
        queries = datagen.join_graph_workload(
            names, edges, n_queries=4 if fast else 8, seed=seed + 1,
            min_tables=n,
        )
        estimator = TraditionalEstimator(catalog)
        cost_model = CostModel()
        dqn = DQNJoinOrderer(
            names, estimator, cost_model,
            episodes_per_query=4 if fast else 8,
            epochs=2 if fast else 6, seed=seed,
        )
        dqn.fit(queries)
        results = compare_orderers(
            queries, estimator, cost_model,
            mcts_iterations=100 if fast else 300, dqn=dqn, seed=seed,
        )
        dp_cost = np.mean(results["dp"]["cost"])
        for method in ("dp", "greedy", "random", "mcts", "dqn"):
            main.add_row(
                n,
                method,
                float(np.mean(results[method]["cost"]) / dp_cost),
                float(np.mean(results[method]["time"])),
            )
    tables.append(main)

    # Ablation: MCTS exploration constant (DESIGN.md §4).
    from repro.ai4db.optimization.join_order import (
        MCTSJoinOrderer,
        dp_left_deep,
    )

    catalog = Catalog()
    names, edges = datagen.make_join_graph_schema(
        catalog, "clique", n_tables=6, rows_per_table=400, seed=seed + 7,
        prefix="uct_",
    )
    queries = datagen.join_graph_workload(
        names, edges, n_queries=3 if fast else 6, seed=seed + 8, min_tables=6
    )
    estimator = TraditionalEstimator(catalog)
    cost_model = CostModel()
    dp_costs = [dp_left_deep(q, estimator, cost_model)[1] for q in queries]
    ablation = ResultTable(
        "E7b: MCTS exploration-constant sweep (ablation, 6-table clique)",
        ["c_uct", "cost_vs_dp"],
    )
    for c_uct in (0.1, 0.7, 1.4, 3.0):
        orderer = MCTSJoinOrderer(
            estimator, cost_model, n_iterations=80 if fast else 200,
            c_uct=c_uct, seed=seed,
        )
        ratios = [
            orderer.order(q)[1] / dp for q, dp in zip(queries, dp_costs)
        ]
        ablation.add_row(c_uct, float(np.mean(ratios)))
    tables.append(ablation)
    return tables


# ----------------------------------------------------------------------
# E8 — end-to-end optimizer
# ----------------------------------------------------------------------
@register_experiment(
    "E8",
    "End-to-end learned optimizer (NEO-lite) on executed work",
    "NEO-lite's executed work approaches the true-cardinality optimum and "
    "beats the misestimating analytic optimizer on correlated schemas",
)
def e8_end_to_end(seed=0, fast=False):
    """Experiment e8_end_to_end (see the register_experiment metadata above)."""
    from repro.ai4db.optimization.end_to_end import NeoLiteOptimizer
    from repro.sim import datagen
    from repro.engine.database import Database
    from repro.engine.optimizer.join_enum import dp_order
    from repro.ai4db.optimization.estimators import (
        TrueCardinalityEstimator,
        count_join_rows,
    )

    db = Database()
    names, edges = datagen.make_join_graph_schema(
        db.catalog, "clique", n_tables=5,
        rows_per_table=400 if fast else 600, seed=seed + 3, prefix="n",
        correlated=True,
    )
    workload = datagen.join_graph_workload(
        names, edges, n_queries=12 if fast else 18, seed=seed + 4,
        min_tables=4,
    )
    train, test = workload[: len(workload) // 2], workload[len(workload) // 2:]
    neo = NeoLiteOptimizer(db, names, epochs=60 if fast else 150,
                           seed=seed)
    neo.bootstrap(train, extra_random_orders=1 if fast else 2).train()

    oracle = TrueCardinalityEstimator(
        lambda q, ts: count_join_rows(db.catalog, q, ts),
        catalog=db.catalog,
    )
    rows = {"analytic": [], "neo": [], "oracle-dp": []}
    for q in test:
        plan = db.planner.plan(q)
        rows["analytic"].append(db.executor.execute(plan).work)
        result, __ = neo.execute(q, learn=False)
        rows["neo"].append(result.work)
        order = dp_order(q, oracle, db.cost_model)
        rows["oracle-dp"].append(db.run_query_object(q, order=order).work)
    table = ResultTable(
        "E8: mean executed work on held-out queries",
        ["optimizer", "mean_work", "vs_oracle"],
    )
    oracle_mean = float(np.mean(rows["oracle-dp"]))
    for name in ("analytic", "neo", "oracle-dp"):
        mean = float(np.mean(rows[name]))
        table.add_row(name, mean, mean / oracle_mean)

    # Pipeline phase split: replay the held-out workload cold vs. warm
    # through the staged pipeline. The warm pass hits the plan cache
    # (keyed on query signature + table versions), so its planning phase
    # collapses while execution work stays identical.
    split = ResultTable(
        "E8b: pipeline planning-vs-execution split (plan cache cold/warm)",
        ["pass", "planning_s", "execution_s", "cache_hits", "cache_misses",
         "total_work"],
    )
    db.pipeline.invalidate()
    for phase in ("cold", "warm"):
        db.pipeline.reset_stats()
        work = sum(db.run_query_object(q).work for q in test)
        s = db.pipeline.stats()
        split.add_row(phase, s["planning_seconds"], s["execution_seconds"],
                      s["plan_cache"]["hits"], s["plan_cache"]["misses"],
                      work)
    return [table, split]


# ----------------------------------------------------------------------
# E9 — learned index
# ----------------------------------------------------------------------
@register_experiment(
    "E9",
    "Learned indexes vs. B+Tree / binary search",
    "learned indexes are 10-1000x smaller than the B+Tree at comparable "
    "or better probe cost; ALEX-lite additionally supports inserts",
)
def e9_learned_index(seed=0, fast=False):
    """Experiment e9_learned_index (see the register_experiment metadata above)."""
    from repro.ai4db.design.btree import BPlusTree
    from repro.ai4db.design.learned_index import (
        ALEXLiteIndex,
        BinarySearchIndex,
        PGMIndex,
        RMIIndex,
        evaluate_index,
    )

    rng = ensure_rng(seed)
    n_keys = 20000 if fast else 100000
    distributions = {
        "uniform": np.unique(rng.uniform(0, 1e9, n_keys)),
        "lognormal": np.unique(rng.lognormal(10, 1.5, n_keys)),
    }
    tables = []
    for dist_name, keys in distributions.items():
        probe = keys[rng.choice(len(keys), 2000, replace=False)]
        gaps = keys[:-1] + np.diff(keys) / 2
        absent = gaps[rng.choice(len(gaps), 2000, replace=False)]
        table = ResultTable(
            "E9: probe cost and size, %s keys (n=%d)" % (dist_name, len(keys)),
            ["index", "mean_comparisons", "max_comparisons", "size_bytes",
             "hit_accuracy"],
        )
        indexes = [
            BinarySearchIndex(keys),
            RMIIndex(keys, n_models=max(64, len(keys) // 200)),
            PGMIndex(keys, epsilon=32),
            ALEXLiteIndex(keys),
        ]
        for idx in indexes:
            m = evaluate_index(idx, probe, absent)
            table.add_row(idx.name, m["mean_hit_comparisons"],
                          m["max_hit_comparisons"], m["size_bytes"],
                          m["hit_accuracy"])
        btree = BPlusTree.bulk_load(
            [(float(k), i) for i, k in enumerate(keys)]
        )
        # B+Tree probe cost: height * log2(order) comparisons per level.
        btree_comps = btree.height * int(np.ceil(np.log2(btree.order)))
        table.add_row("b+tree", float(btree_comps), btree_comps,
                      btree.size_bytes(), 1.0)
        tables.append(table)

    # Ablation: RMI second-stage model count.
    ablation = ResultTable(
        "E9b: RMI size/speed trade (lognormal keys)",
        ["n_models", "mean_comparisons", "size_bytes", "max_error"],
    )
    keys = distributions["lognormal"]
    probe = keys[rng.choice(len(keys), 1000, replace=False)]
    for n_models in (16, 64, 256, 1024):
        rmi = RMIIndex(keys, n_models=n_models)
        m = evaluate_index(rmi, probe, probe[:10])
        ablation.add_row(n_models, m["mean_hit_comparisons"], m["size_bytes"],
                         rmi.max_error())
    return tables + [ablation]


# ----------------------------------------------------------------------
# E10 — learned KV design
# ----------------------------------------------------------------------
@register_experiment(
    "E10",
    "KV-store design continuum search (data-structure alchemy)",
    "the searched design beats every fixed classic design on each "
    "workload mix; the best fixed design changes with the mix",
)
def e10_learned_kv(seed=0, fast=False):
    """Experiment e10_learned_kv (see the register_experiment metadata above)."""
    from repro.ai4db.design.learned_kv import (
        DesignContinuumSearch,
        KVCostModel,
        KVWorkload,
        classic_designs,
    )

    workloads = [
        KVWorkload("read-heavy", 0.85, 0.10, 0.05),
        KVWorkload("write-heavy", 0.15, 0.80, 0.05),
        KVWorkload("scan-heavy", 0.25, 0.15, 0.60),
        KVWorkload("balanced", 0.45, 0.45, 0.10),
    ]
    cost_model = KVCostModel()
    search = DesignContinuumSearch(cost_model)
    fixed = classic_designs()
    table = ResultTable(
        "E10: workload cost (I/O units/op) per design",
        ["workload", "btree-like", "lsm-leveling", "lsm-tiering",
         "searched", "searched_vs_best_fixed"],
    )
    for wl in workloads:
        fixed_costs = {
            name: cost_model.total_cost(d, wl) for name, d in fixed.items()
        }
        best_design, cost, __ = search.search(wl)
        table.add_row(
            wl.name,
            fixed_costs["btree-like"],
            fixed_costs["lsm-leveling"],
            fixed_costs["lsm-tiering"],
            cost,
            cost / min(fixed_costs.values()),
        )
    return [table]


# ----------------------------------------------------------------------
# E11 — transaction scheduling
# ----------------------------------------------------------------------
@register_experiment(
    "E11",
    "Learned transaction scheduling vs. FIFO / cost-ordered",
    "conflict-aware scheduling lowers makespan, lock waits, and aborts on "
    "hotspot workloads",
)
def e11_txn_scheduling(seed=0, fast=False):
    """Experiment e11_txn_scheduling (see the register_experiment metadata above)."""
    from repro.ai4db.design.txn_mgmt import (
        ConflictClassifier,
        evaluate_schedulers,
    )
    from repro.sim.txn import hotspot_workload

    n_txns = 120 if fast else 300
    train = hotspot_workload(n_txns=n_txns, hot_fraction=0.7, seed=seed + 1)
    classifier = ConflictClassifier(seed=seed).fit(
        train, n_pairs=800 if fast else 2000, seed=seed + 2
    )
    acc = classifier.accuracy(train, n_pairs=500, seed=seed + 3)
    table = ResultTable(
        "E11: hotspot batch, 4 workers (conflict-classifier acc %.2f)" % acc,
        ["scheduler", "makespan_ms", "total_wait_ms", "aborts",
         "avg_latency_ms"],
    )
    txns = hotspot_workload(n_txns=n_txns, hot_fraction=0.7, seed=seed)
    results = evaluate_schedulers(txns, n_workers=4, classifier=classifier)
    for name in ("fifo", "cost-ordered", "learned"):
        r = results[name]
        table.add_row(name, r.makespan, r.total_wait, r.aborts, r.avg_latency)
    return [table]


# ----------------------------------------------------------------------
# E12 — monitoring
# ----------------------------------------------------------------------
@register_experiment(
    "E12",
    "Learned monitoring: forecasting, perf prediction, root cause, auditing",
    "AR forecasting beats persistence; graph embedding beats plan-only "
    "under concurrency; clustering + few labels beats KPI rules; bandit "
    "auditing captures near-oracle risk",
)
def e12_monitoring(seed=0, fast=False):
    """Experiment e12_monitoring (see the register_experiment metadata above)."""
    from repro.ai4db.monitoring.forecast import (
        AutoregressiveForecaster,
        EnsembleForecaster,
        MovingAverageForecaster,
        NaiveForecaster,
        SeasonalNaiveForecaster,
        evaluate_forecasters,
    )
    from repro.ai4db.monitoring.perf_pred import (
        ConcurrentWorkloadGenerator,
        GraphEmbeddingPredictor,
        PlanOnlyPredictor,
    )
    from repro.ai4db.monitoring.root_cause import (
        ClusterDiagnoser,
        RuleBasedDiagnoser,
    )
    from repro.ai4db.monitoring.activity_monitor import (
        BanditAuditPolicy,
        RandomAuditPolicy,
        RoundRobinAuditPolicy,
        run_audit_simulation,
    )
    from repro.sim.traces import ACTIVITY_TYPES, arrival_trace, kpi_episodes
    from repro.ml import accuracy, mean_absolute_error

    tables = []
    # (a) forecasting
    series, __ = arrival_trace(n_hours=24 * (21 if fast else 28), seed=seed)
    fc_results = evaluate_forecasters(
        series,
        [NaiveForecaster(), SeasonalNaiveForecaster(),
         MovingAverageForecaster(), AutoregressiveForecaster(),
         EnsembleForecaster()],
    )
    t1 = ResultTable("E12a: arrival-rate forecasting (1h horizon)",
                     ["forecaster", "mae", "mape"])
    for name, metrics in fc_results.items():
        t1.add_row(name, metrics["mae"], metrics["mape"])
    tables.append(t1)

    # (b) concurrent performance prediction
    gen = ConcurrentWorkloadGenerator(seed=seed + 1, memory_budget=2.0)
    data = gen.generate_dataset(n_mixes=60 if fast else 140)
    split = int(len(data) * 0.8)
    plan_only = PlanOnlyPredictor(epochs=60 if fast else 120, seed=seed)
    plan_only.fit(data[:split])
    graph = GraphEmbeddingPredictor(epochs=80 if fast else 200, seed=seed)
    graph.fit(data[:split])
    t2 = ResultTable("E12b: concurrent-query latency prediction",
                     ["predictor", "mae"])
    for model in (plan_only, graph):
        errs = [
            mean_absolute_error(y, model.predict(g, f))
            for g, f, y in data[split:]
        ]
        t2.add_row(model.name, float(np.mean(errs)))
    tables.append(t2)

    # (c) root-cause diagnosis
    X, labels = kpi_episodes(n_episodes=150 if fast else 300, seed=seed + 2)
    split = int(len(X) * 0.66)
    rules = RuleBasedDiagnoser()
    cluster = ClusterDiagnoser(seed=seed).fit(
        X[:split], lambda i: labels[i]
    )
    t3 = ResultTable("E12c: root-cause diagnosis accuracy",
                     ["diagnoser", "accuracy", "dba_labels_used"])
    y_true = np.array(labels[split:], dtype=object)
    t3.add_row("kpi-rules",
               accuracy(y_true, np.array(rules.diagnose_batch(X[split:]),
                                         dtype=object)), 0)
    t3.add_row("cluster+label",
               accuracy(y_true, np.array(cluster.diagnose_batch(X[split:]),
                                         dtype=object)),
               cluster.labels_used_)
    tables.append(t3)

    # (d) bandit activity auditing
    means = np.array([m for __, m in ACTIVITY_TYPES])
    n_steps = 600 if fast else 2000
    t4 = ResultTable("E12d: audit-budget risk capture (%d audits)" % n_steps,
                     ["policy", "risk_captured", "regret_vs_oracle"])
    for policy in (RandomAuditPolicy(seed=seed), RoundRobinAuditPolicy(),
                   BanditAuditPolicy("ucb"),
                   BanditAuditPolicy("thompson", seed=seed)):
        r = run_audit_simulation(policy, means, n_steps=n_steps, seed=seed + 3)
        t4.add_row(policy.name, r["captured"], r["regret"])
    tables.append(t4)
    return tables


# ----------------------------------------------------------------------
# E13 — security
# ----------------------------------------------------------------------
@register_experiment(
    "E13",
    "Learned security: injection detection, sensitive discovery, access "
    "control",
    "learned detectors keep precision while recovering the recall rules "
    "lose on obfuscated/neutral-named/context-dependent cases",
)
def e13_security(seed=0, fast=False):
    """Experiment e13_security (see the register_experiment metadata above)."""
    from repro.ai4db.security.sql_injection import (
        InjectionCorpusGenerator,
        LearnedInjectionDetector,
        SignatureRuleDetector,
        evaluate_detector,
    )
    from repro.ai4db.security.discovery import (
        LearnedSensitiveDiscovery,
        RegexRuleDiscovery,
        SensitiveColumnGenerator,
        discovery_f1,
    )
    from repro.ai4db.security.access_control import (
        AccessRequestGenerator,
        LearnedAccessController,
        StaticACLBaseline,
        false_permit_rate,
    )
    from repro.ml import accuracy

    tables = []
    # (a) SQL injection
    gen = InjectionCorpusGenerator(seed=seed)
    train_x, train_y, __ = gen.generate(300 if fast else 600,
                                        150 if fast else 300)
    test_x, test_y, test_f = gen.generate(200 if fast else 400,
                                          100 if fast else 200)
    t1 = ResultTable("E13a: SQL-injection detection",
                     ["detector", "precision", "recall", "f1",
                      "obfuscated_recall"])
    detectors = [
        SignatureRuleDetector(),
        LearnedInjectionDetector("tree", seed=seed).fit(train_x, train_y),
        LearnedInjectionDetector("logistic", seed=seed).fit(train_x, train_y),
    ]
    for det in detectors:
        r = evaluate_detector(det, test_x, test_y, test_f)
        obf = [v for k, v in r["family_recall"].items() if k.endswith("+obf")]
        t1.add_row(det.name, r["precision"], r["recall"], r["f1"],
                   float(np.mean(obf)) if obf else 0.0)
    tables.append(t1)

    # (b) sensitive-data discovery
    sgen = SensitiveColumnGenerator(seed=seed)
    n1, v1, l1, __ = sgen.generate(80 if fast else 150)
    n2, v2, l2, __ = sgen.generate(60 if fast else 100)
    t2 = ResultTable("E13b: sensitive-column discovery",
                     ["method", "precision", "recall", "f1"])
    p, r, f1 = discovery_f1(RegexRuleDiscovery(), n2, v2, l2)
    t2.add_row("name-rules", p, r, f1)
    learned = LearnedSensitiveDiscovery(seed=seed).fit(n1, v1, l1)
    p, r, f1 = discovery_f1(learned, n2, v2, l2)
    t2.add_row("learned", p, r, f1)
    tables.append(t2)

    # (c) access control
    agen = AccessRequestGenerator(seed=seed)
    req_tr, y_tr = agen.generate(800 if fast else 2000)
    req_te, y_te = agen.generate(400 if fast else 800)
    t3 = ResultTable("E13c: purpose-based access control",
                     ["method", "accuracy", "false_permit_rate"])
    for method in (StaticACLBaseline(), LearnedAccessController(seed=seed)):
        method.fit(req_tr, y_tr)
        preds = method.predict(req_te)
        t3.add_row(method.name, accuracy(y_te, preds),
                   false_permit_rate(y_te, preds))
    tables.append(t3)
    return tables


# ----------------------------------------------------------------------
# E14 — governance
# ----------------------------------------------------------------------
@register_experiment(
    "E14",
    "Data governance: discovery EKG, ActiveClean, truth inference",
    "the EKG recovers true FK joins; ActiveClean reaches target accuracy "
    "with far fewer cleaned records; Dawid-Skene beats majority vote at "
    "every redundancy",
)
def e14_governance(seed=0, fast=False):
    """Experiment e14_governance (see the register_experiment metadata above)."""
    from repro.db4ai.governance.cleaning import (
        ActiveCleanSession,
        CorruptedDataset,
        RandomCleanSession,
        cleaning_curve,
    )
    from repro.db4ai.governance.discovery import EnterpriseKnowledgeGraph
    from repro.db4ai.governance.labeling import (
        DawidSkene,
        SimulatedCrowd,
        majority_vote,
    )
    from repro.sim import datagen
    from repro.engine.catalog import Catalog

    tables = []
    # (a) discovery: does the EKG find the star schema's FK joins?
    catalog = Catalog()
    datagen.make_star_schema(
        catalog, n_customers=500, n_products=120, n_dates=90,
        n_sales=2000 if fast else 5000, seed=seed,
    )
    ekg = EnterpriseKnowledgeGraph().build(catalog)
    truth = {
        ("sales.s_customer", "customer.c_id"),
        ("sales.s_product", "product.p_id"),
        ("sales.s_date", "dates.d_id"),
    }
    t1 = ResultTable("E14a: EKG joinable-column discovery (top-1 per FK)",
                     ["fk_column", "top_match", "overlap", "correct"])
    for fk, key in sorted(truth):
        table_name, col = fk.split(".")
        matches = ekg.joinable_columns(table_name, col)
        top, overlap = (matches[0] if matches else ("-", 0.0))
        t1.add_row(fk, top, overlap, top == key)
    tables.append(t1)

    # (b) ActiveClean
    dataset = CorruptedDataset(seed=seed)
    n_batches = 5 if fast else 10
    counts, acc_active = cleaning_curve(
        ActiveCleanSession, dataset, n_batches=n_batches, seed=seed
    )
    __, acc_random = cleaning_curve(
        RandomCleanSession, dataset, n_batches=n_batches, seed=seed
    )
    __, acc_residual = cleaning_curve(
        ActiveCleanSession, dataset, n_batches=n_batches, seed=seed,
        weighting="residual",
    )
    t2 = ResultTable(
        "E14b: model accuracy vs. cleaned records (+ weighting ablation)",
        ["records_cleaned", "activeclean", "residual_only", "random"],
    )
    for c, a, l, r in zip(counts, acc_active, acc_residual, acc_random):
        t2.add_row(int(c), float(a), float(l), float(r))
    tables.append(t2)

    # (c) truth inference
    crowd = SimulatedCrowd(seed=seed)
    rng = ensure_rng(seed + 1)
    truths = rng.integers(0, 3, 200 if fast else 500)
    t3 = ResultTable("E14c: truth-inference accuracy vs. redundancy",
                     ["votes_per_item", "majority_vote", "dawid_skene"])
    for redundancy in (3, 5, 7):
        votes = crowd.collect(truths, redundancy=redundancy)
        mv = majority_vote(votes, 3, seed=seed)
        ds = DawidSkene(3).fit(votes, crowd.n_workers)
        t3.add_row(
            redundancy,
            float(np.mean(mv == truths)),
            float(np.mean(ds.predict() == truths)),
        )
    tables.append(t3)
    return tables


# ----------------------------------------------------------------------
# E15 — training acceleration
# ----------------------------------------------------------------------
@register_experiment(
    "E15",
    "Training optimization: materialization, parallel search, offload",
    "materialization cuts feature-selection compute several-fold; task "
    "parallelism beats BSP under stragglers; halving finds the best "
    "config under budget; accelerator offload wins past the crossover",
)
def e15_training(seed=0, fast=False):
    """Experiment e15_training (see the register_experiment metadata above)."""
    from repro.db4ai.training.features import (
        FeatureComputeEngine,
        default_feature_library,
        greedy_forward_selection,
        make_regression_data,
    )
    from repro.db4ai.training.model_select import (
        grid_under_budget,
        make_search_space,
        simulate_parallel_search,
        successive_halving,
    )
    from repro.db4ai.training.hardware import best_device, training_time

    tables = []
    # (a) feature-selection materialization
    cols, y = make_regression_data(n_rows=1500 if fast else 3000, seed=seed)
    specs = default_feature_library()
    t1 = ResultTable("E15a: feature selection compute (greedy, k=4)",
                     ["policy", "compute_cost", "evaluations", "final_r2"])
    for materialize in (False, True):
        engine = FeatureComputeEngine(cols, y, specs, materialize=materialize)
        __, trajectory = greedy_forward_selection(engine, k=4)
        t1.add_row("materialize" if materialize else "recompute",
                   engine.compute_cost, engine.evaluations,
                   trajectory[-1] if trajectory else 0.0)
    tables.append(t1)

    # (b) parallel model search
    jobs = make_search_space(32 if fast else 64, seed=seed)
    t2 = ResultTable("E15b: model-search throughput, 8 workers, stragglers",
                     ["strategy", "makespan_s", "configs_per_hour",
                      "worker_utilization"])
    for strategy in ("task", "bsp", "ps"):
        r = simulate_parallel_search(jobs, n_workers=8, strategy=strategy,
                                     seed=seed + 1)
        t2.add_row(strategy, r["makespan"], r["throughput"], r["worker_busy"])
    tables.append(t2)

    # (c) budgeted search
    budget = 600 if fast else 1000
    t3 = ResultTable("E15c: best config quality under a %ds budget" % budget,
                     ["method", "best_quality", "configs_touched"])
    h = successive_halving(jobs, budget)
    g = grid_under_budget(jobs, budget)
    t3.add_row("grid-until-budget", g["best_quality"], g["configs_touched"])
    t3.add_row("successive-halving", h["best_quality"], h["configs_touched"])
    tables.append(t3)

    # (d) hardware offload crossover
    t4 = ResultTable("E15d: training time by device/layout (seconds)",
                     ["n_rows", "cpu_row", "cpu_col", "fpga_col", "gpu_col",
                      "best"])
    for n_rows in (10_000, 1_000_000, 100_000_000):
        cpu_row = training_time("cpu", n_rows, 6, layout="row")["total"]
        cpu_col = training_time("cpu", n_rows, 6, layout="column")["total"]
        fpga = training_time("fpga", n_rows, 6, layout="column")["total"]
        gpu = training_time("gpu", n_rows, 6, layout="column")["total"]
        best, __ = best_device(n_rows)
        t4.add_row(n_rows, cpu_row, cpu_col, fpga, gpu, best)
    tables.append(t4)
    return tables


# ----------------------------------------------------------------------
# E16 — inference + declarative
# ----------------------------------------------------------------------
@register_experiment(
    "E16",
    "In-database inference: operators, pushdown, cascades, AISQL",
    "vectorized operators beat per-row UDFs by orders of magnitude; "
    "pushdown + cascade cut expensive-model invocations with near-perfect "
    "answer quality",
)
def e16_inference(seed=0, fast=False):
    """Experiment e16_inference (see the register_experiment metadata above)."""
    from repro.db4ai.inference.operators import (
        udf_per_row_inference,
        vectorized_inference,
    )
    from repro.db4ai.inference.pushdown import (
        CascadeStrategy,
        HybridQuery,
        NaiveStrategy,
        PushdownStrategy,
        make_patients_database,
        run_hybrid_query,
        train_stay_models,
    )
    from repro.engine.query import Predicate
    from repro.ml import MLPRegressor

    tables = []
    # (a) operator support: UDF vs vectorized
    rng = ensure_rng(seed)
    model = MLPRegressor(hidden=(32,), epochs=20, seed=seed)
    model.fit(rng.random((300, 5)), rng.random(300))
    X = rng.random((2000 if fast else 10000, 5))
    __, t_udf = udf_per_row_inference(model, X)
    __, t_vec = vectorized_inference(model, X)
    t1 = ResultTable("E16a: inference operator execution (%d rows)" % len(X),
                     ["operator", "seconds", "speedup_vs_udf"])
    t1.add_row("udf-per-row", t_udf, 1.0)
    t1.add_row("vectorized", t_vec, t_udf / max(t_vec, 1e-9))
    tables.append(t1)

    # (b) the paper's hybrid "patients staying > 3 days" query
    db, features = make_patients_database(
        6000 if fast else 20000, seed=seed
    )
    models = train_stay_models(db, features,
                               n_train=1500 if fast else 4000, seed=seed)
    hybrid = HybridQuery(
        "patients", [Predicate("patients", "age", ">", 60)], features,
        threshold=5.0,
    )
    results = run_hybrid_query(
        db, models, hybrid,
        strategies=[NaiveStrategy(), PushdownStrategy(),
                    CascadeStrategy(low=0.1, high=0.9)],
    )
    t2 = ResultTable(
        'E16b: hybrid query "patients with predicted stay > 5 days, age > 60"',
        ["strategy", "expensive_model_rows", "seconds", "precision",
         "recall"],
    )
    for row in results:
        t2.add_row(row["strategy"], row["expensive_rows"], row["seconds"],
                   row["precision"], row["recall"])
    tables.append(t2)

    # (c) cascade threshold ablation
    t3 = ResultTable("E16c: cascade threshold sweep (ablation)",
                     ["low", "high", "expensive_model_rows", "precision",
                      "recall"])
    for low, high in ((0.02, 0.98), (0.1, 0.9), (0.3, 0.7)):
        r = run_hybrid_query(
            db, models, hybrid, strategies=[CascadeStrategy(low, high)]
        )[0]
        t3.add_row(low, high, r["expensive_rows"], r["precision"],
                   r["recall"])
    tables.append(t3)

    # (d) declarative AISQL end to end on the same database.
    from repro.db4ai.declarative import AISQLExtension

    ext = AISQLExtension().install(db)
    status = db.execute(
        "CREATE MODEL stay_aisql KIND regressor ON patients TARGET true_stay "
        "FEATURES (age, severity, comorbidities, emergency, ward) "
        "WITH (epochs = %d)" % (40 if fast else 100)
    )
    metrics = db.execute("EVALUATE stay_aisql ON patients")
    pred = db.execute("PREDICT stay_aisql ON patients WHERE age > 80 LIMIT 100")
    t4 = ResultTable(
        "E16d: AISQL end to end (train/evaluate/predict in the database)",
        ["statement", "result"],
    )
    t4.add_row("CREATE MODEL ... FEATURES (5 cols)", status)
    t4.add_row("EVALUATE stay_aisql ON patients",
               "r2 = %.4f" % metrics["r2"])
    t4.add_row("PREDICT ... WHERE age > 80 LIMIT 100",
               "%d rows, mean predicted stay %.2f days"
               % (len(pred.rows),
                  float(np.mean([r[-1] for r in pred.rows]))))
    tables.append(t4)
    return tables


# ----------------------------------------------------------------------
# E17 — the paper's §2.3 challenges, made concrete
# ----------------------------------------------------------------------
@register_experiment(
    "E17",
    "Challenges (paper §2.3): validation, convergence, drift, fault "
    "tolerance",
    "the validation gate only deploys a learned estimator when it wins; "
    "the convergence guard rescues a stalled learner; drift detection "
    "flags updated columns; checkpointed training resumes bit-exactly",
)
def e17_challenges(seed=0, fast=False):
    """Experiment e17_challenges (see the register_experiment metadata above)."""
    from repro.ai4db.optimization.cardinality import (
        LearnedCardinalityEstimator,
        QueryFeaturizer,
        generate_training_queries,
    )
    from repro.ai4db.validation import (
        ConvergenceGuard,
        DriftDetector,
        ValidatedEstimator,
    )
    from repro.ai4db.config.knob_tuning import (
        GridSearchTuner,
        TuningResult,
    )
    from repro.db4ai.training.fault_tolerance import (
        CheckpointableMLPTrainer,
        CheckpointedTrainer,
        SimulatedCrash,
    )
    from repro.sim import datagen
    from repro.engine.catalog import Catalog
    from repro.sim.knobs import KnobResponseSimulator, standard_workloads
    from repro.engine.optimizer.cardinality import TraditionalEstimator

    tables = []
    # (a) model validation: gate a good and a deliberately broken model.
    catalog = Catalog()
    n_rows = 2000 if fast else 6000
    datagen.make_correlated_table(catalog, "facts", n_rows=n_rows,
                                  n_values=40, correlation=0.9, seed=seed)
    queries, cards = generate_training_queries(
        catalog, "facts", ["a", "b", "c"],
        n_queries=200 if fast else 400, n_values=40, seed=seed + 1,
    )
    split = int(len(queries) * 0.75)
    featurizer = QueryFeaturizer(catalog, ["facts"], [])
    good = LearnedCardinalityEstimator(
        featurizer, epochs=50 if fast else 120, seed=seed
    ).fit(queries[:split], cards[:split])
    broken = LearnedCardinalityEstimator(
        featurizer, epochs=1, seed=seed
    ).fit(queries[:4], cards[:4])  # undertrained on 4 samples
    fallback = TraditionalEstimator(catalog)
    t1 = ResultTable(
        "E17a: validation gate (deploy only when the model wins)",
        ["candidate", "learned_q95", "fallback_q95", "deployed"],
    )
    for name, model in (("well-trained", good), ("undertrained", broken)):
        gate = ValidatedEstimator(model, fallback)
        report = gate.validate(queries[split:], cards[split:])
        t1.add_row(name, report["learned_q95"], report["fallback_q95"],
                   report["deployed"])
    tables.append(t1)

    # (b) convergence guard: a stalled learner vs. a healthy baseline.
    sim = KnobResponseSimulator(seed=7, noise=0.0)
    workload = standard_workloads()[0]

    class _StuckTuner:
        """A learner that never leaves the default config (diverged)."""

        name = "stuck-learner"

        def tune(self, simulator, wl, budget):
            x = simulator.default_vector()
            history = [simulator.throughput(x, wl) for __ in range(budget)]
            return TuningResult(x, max(history), history)

    budget = 40 if fast else 80
    stuck = _StuckTuner().tune(sim, workload, budget)
    guard = ConvergenceGuard(_StuckTuner(), GridSearchTuner(), patience=10)
    guarded = guard.tune(sim, workload, budget)
    t2 = ResultTable(
        "E17b: convergence guard on a diverged tuner",
        ["policy", "best_tps", "fell_back"],
    )
    t2.add_row("stuck learner alone", stuck.best_throughput, False)
    t2.add_row("guard(stuck, grid)", guarded.best_throughput,
               bool(guard.fell_back_))
    tables.append(t2)

    # (c) drift detection across data updates.
    detector = DriftDetector(threshold=0.5).fit(catalog, ["facts"])
    before = len(detector.check(catalog))
    table = catalog.table("facts")
    table.replace_column("a", table.column_array("a") + 200)  # simulated update
    after = detector.check(catalog)
    t3 = ResultTable(
        "E17c: drift detection across a data update",
        ["stage", "drifted_columns", "max_shift"],
    )
    t3.add_row("before update", before, 0.0)
    t3.add_row("after shifting facts.a", len(after),
               max(after.values()) if after else 0.0)
    tables.append(t3)

    # (d) fault-tolerant training: crash vs. no crash, identical models.
    rng = ensure_rng(seed)
    X = rng.normal(size=(300, 3))
    y = X[:, 0] - 0.5 * X[:, 1]
    steps = 120 if fast else 240
    clean = CheckpointableMLPTrainer(X, y, seed=seed)
    CheckpointedTrainer(clean, checkpoint_every=40).train(steps)
    crashed = CheckpointableMLPTrainer(X, y, seed=seed)
    harness = CheckpointedTrainer(crashed, checkpoint_every=40)
    try:
        harness.train(steps, crash_at=steps // 2 + 10)
    except SimulatedCrash:
        harness.recover_and_resume(steps)
    identical = bool(np.allclose(clean.predict(X), crashed.predict(X)))
    t4 = ResultTable(
        "E17d: checkpointed training under a mid-run crash",
        ["run", "steps", "recoveries", "model_identical_to_clean_run"],
    )
    t4.add_row("uninterrupted", steps, 0, True)
    t4.add_row("crash + resume", steps, harness.recoveries, identical)
    tables.append(t4)
    return tables
