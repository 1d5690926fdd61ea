"""Hybrid DB+AI query optimization: pushdown and model cascades.

The tutorial's running example (§2.3): *"find all the patients of a
hospital whose stay time will be longer than 3 days"*. The naive plan
predicts the stay for **every** patient and filters afterwards; the
paper calls this "rather expensive" and asks for co-optimization:

* **predicate pushdown** — evaluate the cheap relational predicates first
  so the expensive model only sees surviving rows;
* **model cascade** — screen the survivors with a cheap high-recall proxy
  model and reserve the expensive model for the proxy's uncertain band.

All three strategies run for real against the engine + NumPy models, and
E16 reports rows-predicted-by-the-expensive-model, wall time, and answer
quality (recall/precision vs. the naive plan's answer).
"""

import time

import numpy as np

from repro.common import ReproError, ensure_rng
from repro.engine.database import Database
from repro.engine.query import ConjunctiveQuery
from repro.engine.storage import Table
from repro.engine.types import ColumnSchema, DataType, TableSchema
from repro.ml import LogisticRegression, MLPRegressor, StandardScaler
from repro.sim.datagen import zipf_integers


def make_patients_database(n_patients=20000, seed=0):
    """The hospital-stay substrate: patients table + ground-truth stays.

    ``stay_days`` (the prediction target) depends nonlinearly on age,
    severity, comorbidities and admission type. The table also stores
    ``true_stay`` so experiments can score answer quality, but models are
    trained only on a held-out training split.

    Returns:
        ``(db, feature_columns)``.
    """
    rng = ensure_rng(seed)
    age = rng.integers(18, 95, size=n_patients)
    severity = rng.integers(1, 11, size=n_patients)
    comorbidities = zipf_integers(n_patients, 8, skew=1.2, seed=rng)
    emergency = (rng.random(n_patients) < 0.35).astype(np.int64)
    ward = rng.integers(0, 6, size=n_patients)
    noise = rng.normal(0, 0.6, size=n_patients)
    stay = (
        0.4
        + 0.02 * (age - 18)
        + 0.55 * severity
        + 0.8 * comorbidities
        + 1.5 * emergency
        + 0.6 * np.sin(ward)
        + noise
    )
    stay = np.maximum(0.2, stay)
    schema = TableSchema(
        "patients",
        [
            ColumnSchema("p_id", DataType.INT),
            ColumnSchema("age", DataType.INT),
            ColumnSchema("severity", DataType.INT),
            ColumnSchema("comorbidities", DataType.INT),
            ColumnSchema("emergency", DataType.INT),
            ColumnSchema("ward", DataType.INT),
            ColumnSchema("true_stay", DataType.FLOAT),
        ],
    )
    table = Table(schema, columns={
        "p_id": np.arange(n_patients),
        "age": age,
        "severity": severity,
        "comorbidities": comorbidities,
        "emergency": emergency,
        "ward": ward,
        "true_stay": stay,
    })
    db = Database()
    db.catalog.register_table(table)
    db.catalog.analyze("patients")
    features = ["age", "severity", "comorbidities", "emergency", "ward"]
    return db, features


class HybridQuery:
    """A query mixing relational predicates and a model predicate.

    Example: relational ``age > 60`` plus model ``predicted_stay > 3``.

    Attributes:
        table: the table queried.
        predicates: relational :class:`Predicate` list.
        features: model input columns.
        threshold: the model-predicate cut ("> threshold" selects).
    """

    def __init__(self, table, predicates, features, threshold=3.0):
        self.table = table
        self.predicates = list(predicates)
        self.features = list(features)
        self.threshold = float(threshold)


def train_stay_models(db, features, n_train=4000, seed=0):
    """Train the expensive regressor and the cheap proxy classifier.

    The expensive model is an MLP regressor of the stay; the proxy is a
    logistic classifier of ``stay > threshold`` whose decision scores are
    used with two cutoffs in the cascade (confident-yes / confident-no).

    Returns:
        dict with ``expensive``, ``proxy``, ``scaler``.
    """
    query = ConjunctiveQuery(
        tables=[db.catalog.table("patients").name],
        projections=[("patients", f) for f in features]
        + [("patients", "true_stay")],
        limit=n_train,
    )
    result = db.run_query_object(query)
    data = np.asarray(result.rows, dtype=float)
    X, y = data[:, :-1], data[:, -1]
    scaler = StandardScaler()
    Xs = scaler.fit_transform(X)
    expensive = MLPRegressor(hidden=(64, 64), epochs=120, seed=seed)
    expensive.fit(Xs, y)
    proxy = LogisticRegression(lr=0.3, epochs=400, seed=seed)
    proxy.fit(Xs, (y > 3.0).astype(float))
    return {"expensive": expensive, "proxy": proxy, "scaler": scaler}


def _fetch_rows(db, query_obj):
    result = db.run_query_object(query_obj)
    return result


class _Strategy:
    name = "base"

    def run(self, db, models, hybrid):
        raise NotImplementedError


class NaiveStrategy(_Strategy):
    """Predict for every row, then apply all predicates (the paper's
    "rather expensive" plan)."""

    name = "naive"

    def run(self, db, models, hybrid):
        t0 = time.perf_counter()
        query = ConjunctiveQuery(
            tables=[hybrid.table],
            projections=[(hybrid.table, "p_id")]
            + [(hybrid.table, f) for f in hybrid.features],
        )
        result = _fetch_rows(db, query)
        rows = np.asarray(result.rows, dtype=float)
        ids = rows[:, 0].astype(int)
        X = models["scaler"].transform(rows[:, 1:])
        preds = models["expensive"].predict(X)
        keep = preds > hybrid.threshold
        # Apply relational predicates post hoc.
        mask = np.ones(len(rows), dtype=bool)
        feature_pos = {f: i + 1 for i, f in enumerate(hybrid.features)}
        for p in hybrid.predicates:
            col = rows[:, feature_pos[p.column.lower()]]
            mask &= _apply_op(col, p.op, p.value)
        selected = set(ids[keep & mask].tolist())
        return {
            "selected": selected,
            "expensive_rows": len(rows),
            "seconds": time.perf_counter() - t0,
        }


def _apply_op(col, op, value):
    if op == "=":
        return col == value
    if op == "!=":
        return col != value
    if op == "<":
        return col < value
    if op == "<=":
        return col <= value
    if op == ">":
        return col > value
    return col >= value


class PushdownStrategy(_Strategy):
    """Push relational predicates into the scan; predict survivors only."""

    name = "pushdown"

    def run(self, db, models, hybrid):
        t0 = time.perf_counter()
        query = ConjunctiveQuery(
            tables=[hybrid.table],
            predicates=hybrid.predicates,
            projections=[(hybrid.table, "p_id")]
            + [(hybrid.table, f) for f in hybrid.features],
        )
        result = _fetch_rows(db, query)
        rows = np.asarray(result.rows, dtype=float)
        if len(rows) == 0:
            return {"selected": set(), "expensive_rows": 0,
                    "seconds": time.perf_counter() - t0}
        ids = rows[:, 0].astype(int)
        X = models["scaler"].transform(rows[:, 1:])
        preds = models["expensive"].predict(X)
        selected = set(ids[preds > hybrid.threshold].tolist())
        return {
            "selected": selected,
            "expensive_rows": len(rows),
            "seconds": time.perf_counter() - t0,
        }


class CascadeStrategy(_Strategy):
    """Pushdown + cheap-proxy screening before the expensive model.

    The proxy's probability splits survivors into confident-no (dropped),
    confident-yes (accepted), and an uncertain band sent to the expensive
    model. Thresholds trade answer quality against expensive-model rows —
    the E16 ablation sweeps them.

    Args:
        low: below this proxy probability, reject without the big model.
        high: above this, accept without the big model.
    """

    name = "cascade"

    def __init__(self, low=0.1, high=0.9):
        if not 0.0 <= low < high <= 1.0:
            raise ReproError("need 0 <= low < high <= 1")
        self.low = low
        self.high = high

    def run(self, db, models, hybrid):
        t0 = time.perf_counter()
        query = ConjunctiveQuery(
            tables=[hybrid.table],
            predicates=hybrid.predicates,
            projections=[(hybrid.table, "p_id")]
            + [(hybrid.table, f) for f in hybrid.features],
        )
        result = _fetch_rows(db, query)
        rows = np.asarray(result.rows, dtype=float)
        if len(rows) == 0:
            return {"selected": set(), "expensive_rows": 0,
                    "seconds": time.perf_counter() - t0}
        ids = rows[:, 0].astype(int)
        X = models["scaler"].transform(rows[:, 1:])
        proba = models["proxy"].predict_proba(X)
        accept = proba >= self.high
        uncertain = (proba > self.low) & ~accept
        selected = set(ids[accept].tolist())
        n_expensive = int(uncertain.sum())
        if n_expensive:
            preds = models["expensive"].predict(X[uncertain])
            selected |= set(ids[uncertain][preds > hybrid.threshold].tolist())
        return {
            "selected": selected,
            "expensive_rows": n_expensive,
            "seconds": time.perf_counter() - t0,
        }


def run_hybrid_query(db, models, hybrid, strategies=None, truth_column="true_stay"):
    """Run all strategies; score each against the ground-truth answer.

    The reference answer uses the stored true stay (not the naive plan),
    so quality reflects real correctness.

    Returns:
        list of dict rows with strategy, rows predicted by the expensive
        model, wall seconds, precision and recall.
    """
    if strategies is None:
        strategies = [NaiveStrategy(), PushdownStrategy(), CascadeStrategy()]
    # Ground truth under the full hybrid predicate.
    query = ConjunctiveQuery(
        tables=[hybrid.table],
        predicates=hybrid.predicates,
        projections=[(hybrid.table, "p_id"), (hybrid.table, truth_column)],
    )
    result = _fetch_rows(db, query)
    rows = np.asarray(result.rows, dtype=float)
    truth = (
        set(rows[rows[:, 1] > hybrid.threshold][:, 0].astype(int).tolist())
        if len(rows)
        else set()
    )
    out = []
    for strategy in strategies:
        r = strategy.run(db, models, hybrid)
        selected = r["selected"]
        tp = len(selected & truth)
        precision = tp / len(selected) if selected else 0.0
        recall = tp / len(truth) if truth else 1.0
        out.append({
            "strategy": strategy.name,
            "expensive_rows": r["expensive_rows"],
            "seconds": r["seconds"],
            "precision": precision,
            "recall": recall,
        })
    return out
