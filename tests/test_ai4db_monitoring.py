"""Tests for learned monitoring: forecasting, perf pred, root cause, audit."""

import numpy as np
import pytest

from repro.ai4db.monitoring.activity_monitor import (
    BanditAuditPolicy,
    RandomAuditPolicy,
    RoundRobinAuditPolicy,
    run_audit_simulation,
)
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
from repro.common import ModelError, NotFittedError
from repro.ml import accuracy, mean_absolute_error
from repro.sim.traces import ACTIVITY_TYPES, arrival_trace, kpi_episodes


class TestForecasters:
    @pytest.fixture(scope="class")
    def series(self):
        counts, __ = arrival_trace(n_hours=24 * 21, burst_prob=0.01, seed=0)
        return counts

    def test_naive_predicts_last(self, series):
        pred = NaiveForecaster().fit(series).predict(series, horizon=3)
        assert np.all(pred == series[-1])

    def test_seasonal_naive_one_day_back(self, series):
        pred = SeasonalNaiveForecaster(season=24).predict(series, horizon=1)
        assert pred[0] == series[-24]

    def test_moving_average_window(self, series):
        pred = MovingAverageForecaster(window=12).predict(series, horizon=1)
        assert pred[0] == pytest.approx(series[-12:].mean())

    def test_ar_beats_naive_on_diurnal_series(self, series):
        results = evaluate_forecasters(
            series, [NaiveForecaster(), AutoregressiveForecaster()]
        )
        assert results["autoregressive"]["mae"] < results["naive"]["mae"]

    def test_ensemble_reasonable(self, series):
        results = evaluate_forecasters(
            series, [SeasonalNaiveForecaster(), EnsembleForecaster()]
        )
        assert results["ensemble"]["mae"] <= results["seasonal-naive"]["mae"]

    def test_ar_multistep_nonnegative(self, series):
        forecaster = AutoregressiveForecaster().fit(series)
        pred = forecaster.predict(series, horizon=48)
        assert len(pred) == 48
        assert np.all(pred >= 0)

    def test_ar_short_series_rejected(self):
        with pytest.raises(ModelError):
            AutoregressiveForecaster().fit(np.ones(50))

    def test_ar_unfitted_rejected(self, series):
        with pytest.raises(NotFittedError):
            AutoregressiveForecaster().predict(series)


class TestPerfPrediction:
    @pytest.fixture(scope="class")
    def dataset(self):
        gen = ConcurrentWorkloadGenerator(seed=1, memory_budget=2.0)
        return gen.generate_dataset(n_mixes=80)

    def test_generator_shapes(self, dataset):
        g, feats, lat = dataset[0]
        assert feats.shape[0] == g.number_of_nodes() == len(lat)
        assert feats.shape[1] == 4

    def test_latencies_positive(self, dataset):
        for __, ___, lat in dataset:
            assert np.all(lat > 0)

    def test_graph_beats_plan_only(self, dataset):
        split = 64
        plan_only = PlanOnlyPredictor(epochs=80, seed=0).fit(dataset[:split])
        graph = GraphEmbeddingPredictor(epochs=120, seed=0).fit(dataset[:split])
        def err(model):
            return float(np.mean([
                mean_absolute_error(y, model.predict(g, f))
                for g, f, y in dataset[split:]
            ]))
        assert err(graph) < err(plan_only)

    def test_predictions_positive(self, dataset):
        model = PlanOnlyPredictor(epochs=30, seed=0).fit(dataset[:40])
        g, f, __ = dataset[50]
        assert np.all(model.predict(g, f) > 0)


class TestRootCause:
    @pytest.fixture(scope="class")
    def episodes(self):
        return kpi_episodes(n_episodes=240, seed=0)

    def test_cluster_diagnoser_beats_rules(self, episodes):
        X, labels = episodes
        split = 160
        diagnoser = ClusterDiagnoser(seed=0).fit(X[:split],
                                                 lambda i: labels[i])
        y_true = np.array(labels[split:], dtype=object)
        cluster_acc = accuracy(
            y_true, np.array(diagnoser.diagnose_batch(X[split:]), dtype=object)
        )
        rules_acc = accuracy(
            y_true,
            np.array(RuleBasedDiagnoser().diagnose_batch(X[split:]),
                     dtype=object),
        )
        assert cluster_acc > rules_acc

    def test_label_budget_bounded(self, episodes):
        X, labels = episodes
        diagnoser = ClusterDiagnoser(labels_per_cluster=2, seed=0)
        diagnoser.fit(X[:150], lambda i: labels[i])
        assert diagnoser.labels_used_ <= 2 * diagnoser.n_clusters

    def test_new_cluster_rate_detects_novelty(self, episodes):
        X, labels = episodes
        diagnoser = ClusterDiagnoser(seed=0).fit(X[:150], lambda i: labels[i])
        known = diagnoser.new_cluster_rate(X[150:], distance_threshold=0.6)
        novel = diagnoser.new_cluster_rate(
            np.ones((20, X.shape[1])) * 5.0, distance_threshold=0.6
        )
        assert novel > known

    def test_unfitted_raises(self, episodes):
        X, __ = episodes
        with pytest.raises(NotFittedError):
            ClusterDiagnoser().diagnose_batch(X[:3])

    def test_rules_return_known_causes(self, episodes):
        X, __ = episodes
        from repro.sim.traces import ROOT_CAUSES
        for cause in RuleBasedDiagnoser().diagnose_batch(X[:20]):
            assert cause in ROOT_CAUSES


class TestActivityMonitor:
    def test_bandits_beat_random(self):
        means = np.array([m for __, m in ACTIVITY_TYPES])
        random_result = run_audit_simulation(
            RandomAuditPolicy(seed=0), means, n_steps=1200, seed=1
        )
        for kind in ("ucb", "thompson"):
            bandit_result = run_audit_simulation(
                BanditAuditPolicy(kind, seed=0), means, n_steps=1200, seed=1
            )
            assert bandit_result["captured"] > random_result["captured"]

    def test_round_robin_covers_all_arms(self):
        policy = RoundRobinAuditPolicy(n_arms=4)
        assert [policy.select() for __ in range(8)] == [0, 1, 2, 3, 0, 1, 2, 3]

    def test_regret_consistency(self):
        means = np.array([m for __, m in ACTIVITY_TYPES])
        result = run_audit_simulation(RandomAuditPolicy(seed=0), means,
                                      n_steps=500, seed=2)
        assert result["regret"] == pytest.approx(
            means.max() * 500 - result["captured"]
        )
        assert len(result["history"]) == 500

    def test_bad_bandit_kind(self):
        with pytest.raises(ValueError):
            BanditAuditPolicy("epsilon-decay")
