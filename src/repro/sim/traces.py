"""Workload traces and KPI episodes with ground truth.

Substrate for the monitoring experiments (E12) — the stand-in for the
production traces the paper's monitoring techniques consume:

* :func:`arrival_trace` — a query-arrival time series with diurnal shape,
  weekly structure, trend and bursts (what QueryBot5000-style forecasters
  [49] consume).
* :func:`kpi_episodes` — labeled KPI snapshots of slow-query incidents,
  each generated from a root-cause archetype (what iSQUAD-style diagnosis
  [51] consumes).
* :func:`activity_stream` — a stream of database activities with hidden
  risk levels (what the bandit-based activity monitor [19] consumes).
"""

import numpy as np

from repro.common import ensure_rng

#: KPI dimensions reported per incident.
KPI_NAMES = [
    "cpu_util", "mem_util", "io_read", "io_write", "lock_waits",
    "active_sessions", "buffer_hit", "tps", "slow_queries", "temp_spill",
]

#: Root-cause archetypes: name -> mean KPI vector (the hidden signature).
ROOT_CAUSES = {
    "missing_index": [0.55, 0.4, 0.95, 0.1, 0.15, 0.4, 0.3, 0.35, 0.9, 0.2],
    "lock_contention": [0.35, 0.3, 0.2, 0.3, 0.95, 0.8, 0.8, 0.25, 0.7, 0.1],
    "cpu_overload": [0.97, 0.5, 0.3, 0.2, 0.3, 0.9, 0.75, 0.3, 0.6, 0.15],
    "memory_pressure": [0.5, 0.96, 0.4, 0.5, 0.25, 0.5, 0.35, 0.4, 0.55, 0.9],
    "slow_disk": [0.3, 0.35, 0.85, 0.9, 0.2, 0.45, 0.6, 0.3, 0.75, 0.4],
    "vacuum_storm": [0.6, 0.45, 0.7, 0.85, 0.4, 0.35, 0.5, 0.45, 0.5, 0.3],
}


def arrival_trace(n_hours=24 * 21, base_rate=400.0, trend_per_day=2.0,
                  burst_prob=0.02, seed=0):
    """Hourly query-arrival counts over ``n_hours``.

    Components: daily sinusoid (business-hours peak), weekly dip on
    weekends, slow linear trend, Poisson noise, and occasional bursts.

    Returns:
        ``(counts, is_burst)`` — float array of length ``n_hours`` and a
        boolean ground-truth burst indicator.
    """
    rng = ensure_rng(seed)
    hours = np.arange(n_hours)
    day_phase = 2 * np.pi * (hours % 24) / 24.0
    daily = 0.6 + 0.4 * np.sin(day_phase - np.pi / 2)
    weekday = (hours // 24) % 7
    weekly = np.where(weekday >= 5, 0.55, 1.0)
    trend = 1.0 + trend_per_day * (hours / 24.0) / 100.0
    rate = base_rate * daily * weekly * trend
    is_burst = rng.random(n_hours) < burst_prob
    rate = rate * np.where(is_burst, rng.uniform(2.0, 4.0, n_hours), 1.0)
    counts = rng.poisson(np.maximum(rate, 1.0)).astype(float)
    return counts, is_burst


def kpi_episodes(n_episodes=240, noise=0.07, seed=0, causes=None):
    """Labeled slow-query incidents drawn from the root-cause archetypes.

    Returns:
        ``(X, labels)`` — KPI matrix ``(n_episodes, len(KPI_NAMES))`` and a
        list of root-cause name strings.
    """
    rng = ensure_rng(seed)
    cause_names = sorted(causes or ROOT_CAUSES)
    X = np.zeros((n_episodes, len(KPI_NAMES)))
    labels = []
    for i in range(n_episodes):
        cause = cause_names[int(rng.integers(0, len(cause_names)))]
        mean = np.asarray(ROOT_CAUSES[cause])
        X[i] = np.clip(mean + rng.normal(0.0, noise, size=mean.shape), 0.0, 1.0)
        labels.append(cause)
    return X, labels


#: Activity types an auditor can record, with their true mean risk in [0,1].
ACTIVITY_TYPES = [
    ("select_public", 0.02),
    ("select_sensitive", 0.25),
    ("bulk_export", 0.55),
    ("create_account", 0.35),
    ("grant_privilege", 0.6),
    ("drop_table", 0.7),
    ("login_failure", 0.45),
    ("schema_change", 0.3),
]


def activity_stream(n_events=5000, seed=0):
    """A stream of (activity_type_index, realized_risk) pairs.

    Realized risk is a noisy draw around the type's true mean, clipped to
    [0, 1] — the bandit's reward when it chooses to audit that activity.

    Returns:
        ``(type_indices, risks)`` arrays plus the true means (for regret).
    """
    rng = ensure_rng(seed)
    means = np.array([m for __, m in ACTIVITY_TYPES])
    # Frequencies: mundane activities dominate the stream.
    freq = np.array([0.55, 0.12, 0.04, 0.06, 0.03, 0.02, 0.08, 0.10])
    freq = freq / freq.sum()
    types = rng.choice(len(ACTIVITY_TYPES), size=n_events, p=freq)
    risks = np.clip(rng.normal(means[types], 0.12), 0.0, 1.0)
    return types, risks, means
