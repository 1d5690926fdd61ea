"""Tests for learned configuration: tuners, advisors, rewriter, partitioner."""

import numpy as np
import pytest

from repro.ai4db.config.index_advisor import (
    ClassifierIndexAdvisor,
    GreedyIndexAdvisor,
    IndexCandidate,
    RLIndexAdvisor,
    enumerate_index_candidates,
    realize_indexes,
    workload_cost,
)
from repro.ai4db.config.knob_tuning import (
    BayesianOptimizationTuner,
    CDBTuneLite,
    DefaultConfigTuner,
    GridSearchTuner,
    QTuneLite,
    RandomSearchTuner,
    run_tuning_session,
)
from repro.ai4db.config.partitioner import (
    HeuristicPartitioner,
    PartitioningCostModel,
    RLPartitioner,
)
from repro.ai4db.config.sql_rewriter import (
    FixedOrderRewriter,
    LearnedRewriter,
    make_rewrite_corpus,
    plan_cost,
    rewrite_benefit,
)
from repro.ai4db.config.view_advisor import (
    GreedyViewAdvisor,
    RLViewAdvisor,
    enumerate_view_candidates,
    materialize_view,
    workload_cost_with_views,
)
from repro.engine import Database, Predicate
from repro.engine import plans as P
from repro.sim import datagen
from repro.sim.knobs import KnobResponseSimulator, standard_workloads


@pytest.fixture(scope="module")
def sim():
    return KnobResponseSimulator(seed=7, noise=0.0)


class TestKnobTuners:
    def test_default_uses_one_observation(self, sim):
        result = DefaultConfigTuner().tune(sim, standard_workloads()[0], 10)
        assert result.evaluations == 1

    def test_budgets_respected(self, sim):
        wl = standard_workloads()[0]
        for tuner in (RandomSearchTuner(seed=0), GridSearchTuner(),
                      BayesianOptimizationTuner(seed=0)):
            sim.evaluations = 0
            tuner.tune(sim, wl, 25)
            assert sim.evaluations <= 25

    def test_random_improves_over_default(self, sim):
        wl = standard_workloads()[0]
        default = DefaultConfigTuner().tune(sim, wl, 1).best_throughput
        random = RandomSearchTuner(seed=0).tune(sim, wl, 60).best_throughput
        assert random > default

    def test_bo_beats_random_at_equal_budget(self, sim):
        wl = standard_workloads()[1]
        random = RandomSearchTuner(seed=1).tune(sim, wl, 50).best_throughput
        bo = BayesianOptimizationTuner(seed=1).tune(sim, wl, 50).best_throughput
        assert bo >= random * 0.95  # BO should be at least competitive

    def test_best_so_far_monotone(self, sim):
        wl = standard_workloads()[0]
        result = RandomSearchTuner(seed=0).tune(sim, wl, 30)
        curve = result.best_so_far()
        assert np.all(np.diff(curve) >= 0)

    def test_pretrained_cdbtune_exploits_immediately(self):
        sim = KnobResponseSimulator(seed=7, noise=0.0)
        wls = standard_workloads()
        tuner = CDBTuneLite(seed=0)
        tuner.pretrain(sim, wls, budget_per_workload=120, rounds=2)
        default = DefaultConfigTuner().tune(sim, wls[0], 1).best_throughput
        result = tuner.tune(sim, wls[0], 15)
        assert result.best_throughput > default * 1.1

    def test_qtune_state_includes_workload(self):
        tuner = QTuneLite(seed=0)
        sim = KnobResponseSimulator(seed=0)
        state = tuner._state(sim, sim.default_vector(),
                             standard_workloads()[0])
        assert state.shape == (9,)

    def test_run_session_resets_counter(self, sim):
        wl = standard_workloads()[0]
        results = run_tuning_session(
            [RandomSearchTuner(seed=0), GridSearchTuner()], sim, wl, 20
        )
        assert set(results) == {"random", "grid"}


class TestIndexAdvisor:
    def test_candidate_enumeration_dedupes(self, star_workload):
        candidates = enumerate_index_candidates(star_workload)
        keys = [c.key() for c in candidates]
        assert len(keys) == len(set(keys))
        assert all(isinstance(c, IndexCandidate) for c in candidates)

    def test_greedy_reduces_cost(self, star_db, star_workload):
        base = workload_cost(star_db.catalog, star_workload)
        picks, cost = GreedyIndexAdvisor().recommend(
            star_db.catalog, star_workload, budget=2
        )
        assert cost <= base
        assert len(picks) <= 2
        # No hypothetical indexes left behind.
        assert all(not i.hypothetical for i in star_db.catalog.indexes())

    def test_greedy_stops_when_no_benefit(self, star_db):
        # Workload with no filter predicates -> no useful indexes.
        from repro.engine.query import Aggregate, ConjunctiveQuery

        workload = [ConjunctiveQuery(tables=["customer"],
                                     aggregates=[Aggregate("count")])]
        picks, __ = GreedyIndexAdvisor().recommend(star_db.catalog, workload,
                                                   budget=3)
        assert picks == []

    def test_rl_matches_greedy_cost(self, star_db, star_workload):
        __, greedy_cost = GreedyIndexAdvisor().recommend(
            star_db.catalog, star_workload, budget=2
        )
        __, rl_cost = RLIndexAdvisor(episodes=60, seed=0).recommend(
            star_db.catalog, star_workload, budget=2
        )
        assert rl_cost <= greedy_cost * 1.1

    def test_classifier_workflow(self, star_db, star_workload):
        train = [datagen.star_workload(n_queries=10, seed=s) for s in (5, 6)]
        advisor = ClassifierIndexAdvisor(seed=0).fit(star_db.catalog, train)
        picks, cost = advisor.recommend(star_db.catalog, star_workload,
                                        budget=2)
        base = workload_cost(star_db.catalog, star_workload)
        assert cost <= base * 1.01

    def test_classifier_unfitted_raises(self, star_db, star_workload):
        with pytest.raises(RuntimeError):
            ClassifierIndexAdvisor().recommend(star_db.catalog,
                                               star_workload, 2)

    def test_realize_indexes_builds_real_structures(self, star_db,
                                                    star_workload):
        picks, __ = GreedyIndexAdvisor().recommend(
            star_db.catalog, star_workload, budget=1
        )
        built = realize_indexes(star_db.catalog, picks)
        assert built
        for idx in built:
            assert not idx.hypothetical
            # A real index can be probed (a what-if one raises).
            key = star_db.catalog.table(idx.table).column_array(idx.column)[0]
            probe = P.IndexScan(idx.table, idx.name,
                                Predicate(idx.table, idx.column, "=", key))
            assert star_db.executor.execute(probe).rows


class TestViewAdvisor:
    def test_candidates_require_frequency(self, star_workload):
        candidates = enumerate_view_candidates(star_workload,
                                               min_frequency=2)
        assert all(c.frequency >= 2 for c in candidates)

    def test_materialize_registers_view(self, star_db, star_workload):
        cand = enumerate_view_candidates(star_workload)[0]
        view = materialize_view(star_db, cand)
        assert view.n_rows > 0
        assert view.name in [v.name for v in star_db.catalog.views()]

    def test_greedy_respects_budget(self, star_db, star_workload):
        chosen, cost = GreedyViewAdvisor().recommend(
            star_db, star_workload, space_budget_bytes=10_000_000
        )
        used = star_db.catalog.view_size_total()
        assert used <= 10_000_000

    def test_greedy_improves_cost(self, star_db, star_workload):
        base = workload_cost_with_views(star_db, star_workload, [])
        __, cost = GreedyViewAdvisor().recommend(
            star_db, star_workload, space_budget_bytes=100_000_000
        )
        assert cost < base

    def test_rl_improves_cost(self, star_db, star_workload):
        base = workload_cost_with_views(star_db, star_workload, [])
        __, cost = RLViewAdvisor(episodes=40, seed=0).recommend(
            star_db, star_workload, space_budget_bytes=100_000_000
        )
        assert cost <= base

    def test_zero_budget_chooses_nothing(self, star_db, star_workload):
        chosen, __ = GreedyViewAdvisor().recommend(
            star_db, star_workload, space_budget_bytes=0
        )
        assert chosen == []


class TestSQLRewriter:
    @pytest.fixture
    def rewrite_setup(self):
        db = Database()
        names, __ = datagen.make_join_graph_schema(
            db.catalog, "star", n_tables=3, rows_per_table=500, seed=0,
            prefix="rw_",
        )
        corpus = make_rewrite_corpus(
            db.catalog, names[1], [(names[0], "fk", "id")], None,
            n_queries=8, n_values=200, seed=1,
        )
        return db, corpus

    def test_fixed_order_rarely_hurts(self, rewrite_setup):
        # The traditional rewriter has no cost validation — the tutorial's
        # point is that fixed-order application "may derive suboptimal
        # queries". Allow tiny regressions but no large ones.
        db, corpus = rewrite_setup
        rewriter = FixedOrderRewriter()
        for q in corpus:
            out, __ = rewriter.rewrite(q, db.catalog)
            assert plan_cost(db.catalog, out) <= plan_cost(db.catalog, q) * 1.05

    def test_learned_never_worse_than_input(self, rewrite_setup):
        db, corpus = rewrite_setup
        rewriter = LearnedRewriter(n_iterations=30, seed=0)
        for q in corpus:
            out, __ = rewriter.rewrite(q, db.catalog)
            assert plan_cost(db.catalog, out) <= plan_cost(db.catalog, q) + 1e-6

    def test_learned_at_least_matches_fixed_on_average(self, rewrite_setup):
        db, corpus = rewrite_setup
        fixed = FixedOrderRewriter()
        learned = LearnedRewriter(n_iterations=40, seed=0)
        fixed_costs, learned_costs = [], []
        for q in corpus:
            qf, __ = fixed.rewrite(q, db.catalog)
            ql, __ = learned.rewrite(q, db.catalog)
            fixed_costs.append(plan_cost(db.catalog, qf))
            learned_costs.append(plan_cost(db.catalog, ql))
        assert np.mean(learned_costs) <= np.mean(fixed_costs) * 1.05

    def test_rewrites_preserve_semantics(self, rewrite_setup):
        db, corpus = rewrite_setup
        learned = LearnedRewriter(n_iterations=30, seed=0)
        for q in corpus[:4]:
            out, __ = learned.rewrite(q, db.catalog)
            before = db.run_query_object(q).rows
            after = db.run_query_object(out).rows
            assert sorted(before) == sorted(after)

    def test_rewrite_benefit_positive_for_redundant_query(self, rewrite_setup):
        db, corpus = rewrite_setup
        fixed = FixedOrderRewriter()
        q = corpus[0]
        out, __ = fixed.rewrite(q, db.catalog)
        assert rewrite_benefit(db.catalog, q, out) >= 0.0


class TestPartitioner:
    def test_cost_model_rewards_copartitioning(self, star_db, star_workload):
        cm = PartitioningCostModel(star_db.catalog, n_nodes=4)
        co_partitioned = {"sales": "s_customer", "customer": "c_id",
                          "product": "p_id", "dates": "d_id"}
        shuffling = {"sales": "s_quantity", "customer": "c_age",
                     "product": "p_price", "dates": "d_month"}
        q = next(q for q in star_workload if len(q.tables) >= 2)
        assert cm.query_cost(q, co_partitioned) < cm.query_cost(q, shuffling)

    def test_heuristic_picks_filtered_columns(self, star_db, star_workload):
        cm = PartitioningCostModel(star_db.catalog, n_nodes=4)
        assignment, __ = HeuristicPartitioner().recommend(
            cm, ["sales", "customer"], star_workload
        )
        assert set(assignment) == {"sales", "customer"}

    def test_rl_not_worse_than_heuristic(self, star_db, star_workload):
        cm = PartitioningCostModel(star_db.catalog, n_nodes=4)
        tables = ["sales", "customer", "product", "dates"]
        __, h_cost = HeuristicPartitioner().recommend(cm, tables,
                                                      star_workload)
        __, rl_cost = RLPartitioner(episodes=100, seed=0).recommend(
            cm, tables, star_workload
        )
        assert rl_cost <= h_cost * 1.02

    def test_skew_factor_penalizes_low_cardinality(self, star_db):
        cm = PartitioningCostModel(star_db.catalog, n_nodes=4)
        # c_segment has 4 distinct values; c_id is unique.
        assert cm._skew_factor("customer", "c_segment") >= cm._skew_factor(
            "customer", "c_id"
        )
