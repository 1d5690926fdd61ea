"""Tests for the §2.3 challenge modules: validation, drift, convergence,
fault-tolerant training."""

import numpy as np
import pytest

from repro.ai4db.config.knob_tuning import GridSearchTuner, TuningResult
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
from repro.common import ModelError
from repro.db4ai.training.fault_tolerance import (
    CheckpointableMLPTrainer,
    CheckpointedTrainer,
    CheckpointStore,
    SimulatedCrash,
)
from repro.engine.catalog import Catalog
from repro.engine.optimizer.cardinality import TraditionalEstimator
from repro.sim import datagen
from repro.sim.knobs import KnobResponseSimulator, standard_workloads


@pytest.fixture(scope="module")
def estimators():
    catalog = Catalog()
    datagen.make_correlated_table(catalog, "facts", n_rows=2500, n_values=40,
                                  correlation=0.9, seed=0)
    queries, cards = generate_training_queries(
        catalog, "facts", ["a", "b", "c"], n_queries=220, n_values=40, seed=1
    )
    featurizer = QueryFeaturizer(catalog, ["facts"], [])
    good = LearnedCardinalityEstimator(featurizer, epochs=60, seed=0)
    good.fit(queries[:160], cards[:160])
    broken = LearnedCardinalityEstimator(featurizer, epochs=1, seed=0)
    broken.fit(queries[:4], cards[:4])
    fallback = TraditionalEstimator(catalog)
    return catalog, good, broken, fallback, queries[160:], cards[160:]


class TestValidatedEstimator:
    def test_good_model_deploys(self, estimators):
        __, good, ___, fallback, val_q, val_c = estimators
        gate = ValidatedEstimator(good, fallback)
        report = gate.validate(val_q, val_c)
        assert report["deployed"]

    def test_broken_model_rejected(self, estimators):
        __, ___, broken, fallback, val_q, val_c = estimators
        gate = ValidatedEstimator(broken, fallback)
        report = gate.validate(val_q, val_c)
        assert not report["deployed"]

    def test_rejected_model_uses_fallback_estimates(self, estimators):
        __, ___, broken, fallback, val_q, val_c = estimators
        gate = ValidatedEstimator(broken, fallback)
        gate.validate(val_q, val_c)
        q = val_q[0]
        assert gate.estimate_subset(q, q.tables) == pytest.approx(
            fallback.estimate_subset(q, q.tables)
        )

    def test_disagreement_falls_back_per_query(self, estimators):
        __, good, ___, fallback, val_q, val_c = estimators
        gate = ValidatedEstimator(good, fallback, disagreement_threshold=1.0)
        gate.validate(val_q, val_c)
        # threshold 1.0 -> any disagreement falls back.
        q = val_q[1]
        assert gate.estimate_subset(q, q.tables) == pytest.approx(
            fallback.estimate_subset(q, q.tables)
        )

    def test_estimate_before_validate_raises(self, estimators):
        __, good, ___, fallback, val_q, ____ = estimators
        gate = ValidatedEstimator(good, fallback)
        with pytest.raises(ModelError):
            gate.estimate_subset(val_q[0], val_q[0].tables)

    def test_empty_validation_set_rejected(self, estimators):
        __, good, ___, fallback, ____, _____ = estimators
        with pytest.raises(ModelError):
            ValidatedEstimator(good, fallback).validate([], [])


class _StuckTuner:
    name = "stuck"

    def tune(self, simulator, workload, budget):
        x = simulator.default_vector()
        history = [simulator.throughput(x, workload) for __ in range(budget)]
        return TuningResult(x, max(history), history)


class TestConvergenceGuard:
    def test_rescues_stuck_learner(self):
        sim = KnobResponseSimulator(seed=7, noise=0.0)
        wl = standard_workloads()[0]
        stuck = _StuckTuner().tune(sim, wl, 50)
        guard = ConvergenceGuard(_StuckTuner(), GridSearchTuner(), patience=10)
        guarded = guard.tune(sim, wl, 50)
        assert guard.fell_back_
        assert guarded.best_throughput > stuck.best_throughput

    def test_keeps_converging_learner(self):
        sim = KnobResponseSimulator(seed=7, noise=0.0)
        wl = standard_workloads()[0]
        from repro.ai4db.config.knob_tuning import RandomSearchTuner

        guard = ConvergenceGuard(RandomSearchTuner(seed=0), _StuckTuner(),
                                 patience=15)
        guard.tune(sim, wl, 50)
        assert guard.fell_back_ is False

    def test_budget_smaller_than_patience(self):
        sim = KnobResponseSimulator(seed=7, noise=0.0)
        wl = standard_workloads()[0]
        guard = ConvergenceGuard(_StuckTuner(), GridSearchTuner(),
                                 patience=100)
        result = guard.tune(sim, wl, 10)
        assert result.evaluations <= 10


class TestDriftDetector:
    def _catalog(self):
        catalog = Catalog()
        datagen.make_correlated_table(catalog, "facts", n_rows=1000,
                                      n_values=50, seed=0)
        return catalog

    def test_no_drift_initially(self):
        catalog = self._catalog()
        detector = DriftDetector().fit(catalog, ["facts"])
        assert detector.check(catalog) == {}
        assert not detector.needs_retraining(catalog)

    def test_shift_detected(self):
        catalog = self._catalog()
        detector = DriftDetector(threshold=0.5).fit(catalog, ["facts"])
        table = catalog.table("facts")
        table.replace_column("a", table.column_array("a") + 100)
        drifted = detector.check(catalog)
        assert ("facts", "a") in drifted
        assert detector.needs_retraining(catalog)

    def test_small_jitter_ignored(self):
        catalog = self._catalog()
        detector = DriftDetector(threshold=0.5).fit(catalog, ["facts"])
        table = catalog.table("facts")
        table.replace_column("a", table.column_array("a") + 1)
        assert ("facts", "a") not in detector.check(catalog)

    def test_text_columns_skipped(self):
        catalog = Catalog()
        datagen.make_star_schema(catalog, n_customers=100, n_products=30,
                                 n_dates=20, n_sales=200, seed=0)
        detector = DriftDetector().fit(catalog, ["customer"])
        keys = {c for __, c in detector._fingerprints}
        assert "c_segment" not in keys
        assert "c_age" in keys


class TestFaultTolerantTraining:
    def _data(self):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(200, 3))
        return X, X[:, 0] + 2 * X[:, 1]

    def test_crash_resume_bit_identical(self):
        X, y = self._data()
        clean = CheckpointableMLPTrainer(X, y, seed=1)
        CheckpointedTrainer(clean, checkpoint_every=25).train(150)
        crashed = CheckpointableMLPTrainer(X, y, seed=1)
        harness = CheckpointedTrainer(crashed, checkpoint_every=25)
        with pytest.raises(SimulatedCrash):
            harness.train(150, crash_at=80)
        harness.recover_and_resume(150)
        assert harness.recoveries == 1
        assert np.array_equal(clean.predict(X), crashed.predict(X))

    def test_crash_loses_at_most_one_interval(self):
        X, y = self._data()
        trainer = CheckpointableMLPTrainer(X, y, seed=0)
        harness = CheckpointedTrainer(trainer, checkpoint_every=30)
        with pytest.raises(SimulatedCrash):
            harness.train(120, crash_at=70)
        # Crash at 70: last checkpoint at 60, so at most 30 steps lost.
        step, __ = harness.store.latest()
        assert 70 - step <= harness.lost_steps_bound

    def test_store_keeps_last_n(self):
        store = CheckpointStore(keep_last=2)
        for i in range(5):
            store.save(i, {"w": i})
        assert len(store) == 2
        step, state = store.latest()
        assert step == 4 and state["w"] == 4
        assert store.writes == 5

    def test_recover_without_checkpoint_raises(self):
        X, y = self._data()
        trainer = CheckpointableMLPTrainer(X, y, seed=0)
        harness = CheckpointedTrainer(trainer, store=CheckpointStore())
        with pytest.raises(ModelError):
            harness.recover_and_resume(10)

    def test_training_actually_learns(self):
        X, y = self._data()
        trainer = CheckpointableMLPTrainer(X, y, hidden=(32,), seed=0)
        CheckpointedTrainer(trainer, checkpoint_every=100).train(600)
        mse = float(np.mean((trainer.predict(X) - y) ** 2))
        assert mse < 0.2

    def test_state_roundtrip(self):
        X, y = self._data()
        trainer = CheckpointableMLPTrainer(X, y, seed=0)
        trainer.train_steps(10)
        state = trainer.get_state()
        pred_before = trainer.predict(X)
        trainer.train_steps(50)
        trainer.set_state(state)
        assert trainer.step == 10
        assert np.array_equal(trainer.predict(X), pred_before)

    def test_invalid_params(self):
        X, y = self._data()
        with pytest.raises(ModelError):
            CheckpointedTrainer(CheckpointableMLPTrainer(X, y),
                                checkpoint_every=0)
        with pytest.raises(ModelError):
            CheckpointStore(keep_last=0)
        with pytest.raises(ModelError):
            CheckpointableMLPTrainer(X, y[:5])
