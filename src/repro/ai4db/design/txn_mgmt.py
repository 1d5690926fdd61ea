"""Learned transaction management: conflict-aware scheduling (Sheng et al.
[68] regime) vs. FIFO and cost-ordered baselines.

Pipeline:

1. A **conflict classifier** learns ``P(conflict | features of txn pair)``
   from observed pairs (supervised, as in the cited work — labels come
   from lock-table telemetry, here from ground truth on a training batch).
2. The **learned scheduler** assigns transactions to workers greedily,
   placing each transaction where its predicted conflict with temporally
   overlapping transactions on *other* workers is lowest (conflicting
   transactions serialized onto the same worker don't contend), balancing
   load as a tiebreaker.
3. Evaluation replays the schedule in the lock-table simulator and reports
   makespan, aborts, and wait time against FIFO / cost-ordered schedules.
"""

import numpy as np

from repro.common import NotFittedError, ensure_rng
from repro.ml import LogisticRegression, StandardScaler
from repro.sim.txn import (
    LockTableSimulator,
    cost_ordered_schedule,
    fifo_schedule,
)


class TransactionFeaturizer:
    """Pairwise features for conflict prediction.

    Features: read/write set sizes of both transactions, key-overlap counts
    (write-write, read-write both directions), combined duration, and
    hot-set overlap (keys below the hotspot threshold).
    """

    def __init__(self, hot_key_threshold=20):
        self.hot_key_threshold = hot_key_threshold

    def pair_features(self, a, b):
        """Feature vector for an (a, b) transaction pair."""
        ww = len(a.writes & b.writes)
        wr = len(a.writes & b.reads)
        rw = len(a.reads & b.writes)
        hot_a = sum(1 for k in a.keys() if k < self.hot_key_threshold)
        hot_b = sum(1 for k in b.keys() if k < self.hot_key_threshold)
        return np.array([
            len(a.reads), len(a.writes), len(b.reads), len(b.writes),
            ww, wr, rw,
            hot_a, hot_b,
            a.duration + b.duration,
        ])


class ConflictClassifier:
    """Logistic conflict predictor over transaction-pair features."""

    def __init__(self, featurizer=None, seed=0):
        self.featurizer = featurizer or TransactionFeaturizer()
        self.scaler = StandardScaler()
        self.model = LogisticRegression(lr=0.3, epochs=400, seed=seed)
        self._fitted = False

    def fit(self, transactions, n_pairs=2000, seed=0):
        """Train on random pairs from a training batch (labels = truth)."""
        rng = ensure_rng(seed)
        X, y = [], []
        n = len(transactions)
        for __ in range(n_pairs):
            i, j = rng.integers(0, n, size=2)
            if i == j:
                continue
            a, b = transactions[i], transactions[j]
            X.append(self.featurizer.pair_features(a, b))
            y.append(1.0 if a.conflicts_with(b) else 0.0)
        Xs = self.scaler.fit_transform(np.stack(X))
        self.model.fit(Xs, np.array(y))
        self._fitted = True
        return self

    def conflict_probability(self, a, b):
        """Predicted conflict probability for one pair."""
        if not self._fitted:
            raise NotFittedError("ConflictClassifier used before fit")
        x = self.scaler.transform(
            self.featurizer.pair_features(a, b).reshape(1, -1)
        )
        return float(self.model.predict_proba(x)[0])

    def accuracy(self, transactions, n_pairs=1000, seed=1):
        """Held-out pair accuracy (sanity metric for E11)."""
        rng = ensure_rng(seed)
        n = len(transactions)
        correct = total = 0
        for __ in range(n_pairs):
            i, j = rng.integers(0, n, size=2)
            if i == j:
                continue
            a, b = transactions[i], transactions[j]
            pred = self.conflict_probability(a, b) >= 0.5
            truth = a.conflicts_with(b)
            correct += int(pred == truth)
            total += 1
        return correct / max(1, total)


class LearnedScheduler:
    """Conflict-aware greedy assignment using the learned classifier.

    For each arriving transaction, score every worker: the predicted
    conflict probability against the last ``window`` transactions queued on
    *other* workers that would plausibly overlap in time, plus a load
    penalty. Queue the transaction on the lowest-scoring worker. High-
    conflict transactions thus serialize onto shared workers instead of
    colliding across workers.

    Args:
        classifier: a fitted :class:`ConflictClassifier`.
        window: how many recent queue entries per worker to score against.
        load_weight: weight of the load-balance term.
    """

    name = "learned"

    def __init__(self, classifier, window=4, load_weight=0.3):
        self.classifier = classifier
        self.window = window
        self.load_weight = load_weight

    def schedule(self, txns, n_workers):
        """Returns worker queues (list of transaction lists)."""
        queues = [[] for _ in range(n_workers)]
        loads = np.zeros(n_workers)
        max_duration = max((t.duration for t in txns), default=1.0)
        for txn in txns:
            scores = np.zeros(n_workers)
            for w in range(n_workers):
                conflict = 0.0
                for other_w in range(n_workers):
                    if other_w == w:
                        continue
                    # Transactions near the tail of other queues are the
                    # ones likely to overlap this one in time.
                    for other in queues[other_w][-self.window:]:
                        conflict += self.classifier.conflict_probability(
                            txn, other
                        )
                scores[w] = conflict + self.load_weight * (
                    loads[w] / max(max_duration, 1e-9)
                )
            best = int(np.argmin(scores))
            queues[best].append(txn)
            loads[best] += txn.duration
        return queues


def evaluate_schedulers(txns, n_workers=4, classifier=None, seed=0,
                        simulator=None):
    """Run FIFO / cost-ordered / learned schedules through the simulator.

    Returns:
        dict mapping scheduler name to :class:`ScheduleResult`.
    """
    sim = simulator or LockTableSimulator()
    results = {
        "fifo": sim.run(fifo_schedule(txns, n_workers)),
        "cost-ordered": sim.run(cost_ordered_schedule(txns, n_workers)),
    }
    if classifier is not None:
        learned = LearnedScheduler(classifier)
        results["learned"] = sim.run(learned.schedule(txns, n_workers))
    return results
