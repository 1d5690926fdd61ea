"""Root-cause diagnosis of slow queries (iSQUAD-lite, Ma et al. [51]).

The cited pipeline: vectorize each intermittent-slow-query incident by its
KPI state, cluster incidents, have DBAs label each *cluster* (not each
incident) with a root cause, then diagnose new incidents by matching to
the nearest cluster. The economics matter: DBA labels are expensive, so
accuracy per label is the metric — the learned pipeline reaches high
accuracy with a handful of labels where the rule baseline is fixed.
"""

import numpy as np

from repro.common import NotFittedError, ensure_rng
from repro.ml import KMeans
from repro.sim.traces import KPI_NAMES, ROOT_CAUSES


class RuleBasedDiagnoser:
    """Baseline: hand-written thresholds on single KPIs.

    The rules mimic what a runbook would say ("if CPU > 90% it's overload,
    if lock waits are high it's contention, ..."). Single-KPI rules
    misdiagnose incidents whose signature is a *combination* of KPIs.
    """

    name = "rules"

    #: (kpi_name, threshold, diagnosis), evaluated in order.
    RULES = [
        ("cpu_util", 0.9, "cpu_overload"),
        ("mem_util", 0.9, "memory_pressure"),
        ("lock_waits", 0.85, "lock_contention"),
        ("io_read", 0.9, "missing_index"),
        ("io_write", 0.85, "slow_disk"),
        ("temp_spill", 0.8, "memory_pressure"),
    ]

    def diagnose(self, kpi_vector):
        """First matching rule wins; unmatched incidents get a default."""
        values = dict(zip(KPI_NAMES, kpi_vector))
        for kpi, threshold, cause in self.RULES:
            if values[kpi] >= threshold:
                return cause
        return "missing_index"  # the runbook's catch-all

    def diagnose_batch(self, X):
        """Diagnose each row of a KPI matrix."""
        return [self.diagnose(row) for row in X]


class ClusterDiagnoser:
    """iSQUAD-lite: cluster incidents, label clusters, nearest-match new ones.

    Args:
        n_clusters: cluster count (≈ number of distinct causes expected).
        labels_per_cluster: DBA labels consumed per cluster (the budget).
        seed: clustering seed.
    """

    name = "cluster"

    def __init__(self, n_clusters=None, labels_per_cluster=3, seed=0):
        self.n_clusters = n_clusters or len(ROOT_CAUSES)
        self.labels_per_cluster = labels_per_cluster
        self.seed = seed
        self.kmeans = None
        self.cluster_causes_ = None
        self.labels_used_ = 0

    def fit(self, X, label_oracle):
        """Cluster ``X`` and ask the oracle for a few labels per cluster.

        Args:
            X: incident KPI matrix.
            label_oracle: callable ``index -> cause`` (the "DBA"); called
                at most ``labels_per_cluster`` times per cluster.
        """
        X = np.asarray(X, dtype=float)
        self.kmeans = KMeans(self.n_clusters, seed=self.seed).fit(X)
        labels = self.kmeans.labels_
        rng = ensure_rng(self.seed)
        self.cluster_causes_ = {}
        self.labels_used_ = 0
        for c in range(self.n_clusters):
            members = np.where(labels == c)[0]
            if len(members) == 0:
                continue
            sample = members[
                rng.choice(len(members),
                           size=min(self.labels_per_cluster, len(members)),
                           replace=False)
            ]
            votes = {}
            for idx in sample:
                cause = label_oracle(int(idx))
                self.labels_used_ += 1
                votes[cause] = votes.get(cause, 0) + 1
            self.cluster_causes_[c] = max(votes, key=votes.get)
        return self

    def diagnose_batch(self, X):
        """Nearest-cluster cause for each incident row."""
        if self.kmeans is None:
            raise NotFittedError("ClusterDiagnoser used before fit")
        X = np.asarray(X, dtype=float)
        clusters = self.kmeans.predict(X)
        fallback = next(iter(self.cluster_causes_.values()))
        return [self.cluster_causes_.get(int(c), fallback) for c in clusters]

    def new_cluster_rate(self, X, distance_threshold=0.6):
        """Fraction of incidents farther than ``distance_threshold`` from
        any centroid — iSQUAD's "unknown incident, ask the DBA" signal."""
        if self.kmeans is None:
            raise NotFittedError("ClusterDiagnoser used before fit")
        X = np.asarray(X, dtype=float)
        dists = np.linalg.norm(
            X[:, None, :] - self.kmeans.centroids_[None, :, :], axis=2
        ).min(axis=1)
        return float(np.mean(dists > distance_threshold))
