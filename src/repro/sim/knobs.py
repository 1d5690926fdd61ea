"""Knob registry and performance-response simulator.

Real knob tuners (CDBTune [87], QTune [42], OtterTune [3]) observe only
``knob vector -> performance`` on a live server. This module substitutes a
seeded nonconvex response surface with the properties that make tuning
hard and interesting:

* per-knob optima at workload-dependent positions (no single default wins),
* pairwise knob interactions (work_mem x parallelism, buffers x cache),
* diminishing returns and cliffs (too many connections collapses throughput),
* workload sensitivity (an OLTP-optimal config is OLAP-suboptimal).

The surface is deterministic given the seed, so experiments are exactly
reproducible, and an optional noise term models run-to-run variance.
"""

import numpy as np

from repro.common import ReproError, ensure_rng


class KnobSpec:
    """Definition of one tunable knob (continuous, on a normalized scale).

    Attributes:
        name: knob name.
        low, high: raw value range.
        default: raw default value.
        log_scale: whether the raw scale is logarithmic (memory sizes).
    """

    def __init__(self, name, low, high, default, log_scale=False):
        if not low < high:
            raise ReproError("knob %r needs low < high" % (name,))
        if not low <= default <= high:
            raise ReproError("knob %r default outside range" % (name,))
        self.name = name
        self.low = float(low)
        self.high = float(high)
        self.default = float(default)
        self.log_scale = log_scale

    def normalize(self, raw):
        """Map a raw value into [0, 1]."""
        raw = min(max(raw, self.low), self.high)
        if self.log_scale:
            lo, hi = np.log(self.low), np.log(self.high)
            return float((np.log(raw) - lo) / (hi - lo))
        return float((raw - self.low) / (self.high - self.low))

    def denormalize(self, unit):
        """Map [0, 1] back to a raw value."""
        unit = min(max(float(unit), 0.0), 1.0)
        if self.log_scale:
            lo, hi = np.log(self.low), np.log(self.high)
            return float(np.exp(lo + unit * (hi - lo)))
        return self.low + unit * (self.high - self.low)

    def __repr__(self):
        return "KnobSpec(%r, [%g, %g], default=%g)" % (
            self.name, self.low, self.high, self.default
        )


def default_knobs():
    """The 8-knob registry used by the E1 experiment (PostgreSQL-flavored)."""
    return [
        KnobSpec("shared_buffers_mb", 16, 8192, 128, log_scale=True),
        KnobSpec("work_mem_mb", 1, 1024, 4, log_scale=True),
        KnobSpec("effective_cache_size_mb", 64, 16384, 4096, log_scale=True),
        KnobSpec("max_connections", 10, 1000, 100),
        KnobSpec("random_page_cost", 1.0, 8.0, 4.0),
        KnobSpec("checkpoint_timeout_s", 30, 3600, 300, log_scale=True),
        KnobSpec("max_parallel_workers", 0, 32, 2),
        KnobSpec("autovacuum_cost_limit", 100, 10000, 200, log_scale=True),
    ]


class WorkloadProfile:
    """A workload descriptor the response surface is conditioned on.

    Attributes:
        read_ratio: fraction of reads (1.0 = read-only OLAP).
        scan_heaviness: how much of the work is large scans vs point access.
        concurrency: normalized client concurrency in [0, 1].
        working_set_gb: approximate hot-data size.
    """

    def __init__(self, name, read_ratio, scan_heaviness, concurrency,
                 working_set_gb):
        self.name = name
        self.read_ratio = float(read_ratio)
        self.scan_heaviness = float(scan_heaviness)
        self.concurrency = float(concurrency)
        self.working_set_gb = float(working_set_gb)

    def as_vector(self):
        """Feature vector used by query-aware tuners (QTune-lite)."""
        return np.array(
            [self.read_ratio, self.scan_heaviness, self.concurrency,
             min(1.0, self.working_set_gb / 32.0)]
        )

    def __repr__(self):
        return "WorkloadProfile(%r)" % (self.name,)


def standard_workloads():
    """Three canonical workload mixes (OLTP, OLAP, HTAP) for E1."""
    return [
        WorkloadProfile("oltp", read_ratio=0.6, scan_heaviness=0.1,
                        concurrency=0.8, working_set_gb=4.0),
        WorkloadProfile("olap", read_ratio=0.98, scan_heaviness=0.9,
                        concurrency=0.2, working_set_gb=24.0),
        WorkloadProfile("htap", read_ratio=0.8, scan_heaviness=0.5,
                        concurrency=0.5, working_set_gb=12.0),
    ]


class KnobResponseSimulator:
    """Deterministic throughput surface over normalized knob vectors.

    Args:
        knobs: list of :class:`KnobSpec` (defaults to :func:`default_knobs`).
        seed: seeds the hidden surface parameters (peak positions, widths,
            interaction weights).
        noise: std-dev of multiplicative observation noise (0 = noiseless).

    The observable is ``throughput(knob_vector, workload)`` in transactions
    per second; ``latency = 1e4 / throughput`` is also exposed. Peaks are
    placed per (knob, workload-feature) so that different workloads prefer
    different configurations.
    """

    def __init__(self, knobs=None, seed=0, noise=0.0):
        self.knobs = list(knobs) if knobs is not None else default_knobs()
        self.noise = float(noise)
        rng = ensure_rng(seed)
        d = len(self.knobs)
        # Hidden structure: per-knob base peak + workload-feature shifts.
        self._base_peak = rng.uniform(0.2, 0.8, size=d)
        self._peak_shift = rng.uniform(-0.35, 0.35, size=(d, 4))
        self._width = rng.uniform(0.25, 0.6, size=d)
        self._weight = rng.uniform(0.5, 1.5, size=d)
        # Pairwise 2-D bumps: roughly half the response mass lives in knob
        # interactions, which one-knob-at-a-time (grid) search cannot see —
        # the property that motivates learned tuners in the first place.
        n_bumps = max(2, d // 2)
        pair_idx = rng.choice(d, size=(n_bumps, 2), replace=True)
        pair_idx = np.array([
            (i, j) if i != j else (i, (j + 1) % d) for i, j in pair_idx
        ])
        self._bump_pairs = pair_idx
        self._bump_peak = rng.uniform(0.15, 0.85, size=(n_bumps, 2))
        self._bump_shift = rng.uniform(-0.25, 0.25, size=(n_bumps, 2, 4))
        self._bump_width = rng.uniform(0.12, 0.3, size=n_bumps)
        self._bump_weight = rng.uniform(0.6, 1.2, size=n_bumps)
        self._base_tps = 1000.0
        self._noise_rng = ensure_rng(rng.integers(0, 2**31 - 1))
        self.evaluations = 0

    @property
    def dim(self):
        """Number of knobs."""
        return len(self.knobs)

    def default_vector(self):
        """Normalized vector of knob defaults."""
        return np.array([k.normalize(k.default) for k in self.knobs])

    def _peaks_for(self, workload):
        w = workload.as_vector()
        peaks = self._base_peak + self._peak_shift @ w
        return np.clip(peaks, 0.05, 0.95)

    def score(self, unit_vector, workload):
        """Noiseless normalized performance score in roughly [0, ~2]."""
        x = np.clip(np.asarray(unit_vector, dtype=float), 0.0, 1.0)
        if x.shape[0] != self.dim:
            raise ReproError(
                "knob vector has %d dims, expected %d" % (x.shape[0], self.dim)
            )
        peaks = self._peaks_for(workload)
        bumps = self._weight * np.exp(-((x - peaks) ** 2) / (self._width**2))
        additive = bumps.sum() / self._weight.sum()
        w = workload.as_vector()
        inter = 0.0
        for b, (i, j) in enumerate(self._bump_pairs):
            peak = np.clip(self._bump_peak[b] + self._bump_shift[b] @ w, 0.05, 0.95)
            d2 = (x[i] - peak[0]) ** 2 + (x[j] - peak[1]) ** 2
            inter += self._bump_weight[b] * np.exp(-d2 / (self._bump_width[b] ** 2))
        inter /= self._bump_weight.sum()
        score = 0.55 * additive + 0.75 * inter
        # Connection-overload cliff: knob 3 (max_connections) beyond its
        # workload-appropriate level collapses throughput under concurrency.
        overload = max(0.0, x[3] - (0.4 + 0.5 * (1 - workload.concurrency)))
        score *= 1.0 / (1.0 + 6.0 * overload * workload.concurrency)
        return max(score, 0.01)

    def throughput(self, unit_vector, workload):
        """Observed throughput (tps), with noise when configured."""
        self.evaluations += 1
        tps = self._base_tps * self.score(unit_vector, workload)
        if self.noise > 0:
            tps *= float(
                np.exp(self._noise_rng.normal(0.0, self.noise))
            )
        return tps

    def latency_ms(self, unit_vector, workload):
        """Observed mean latency in milliseconds (inverse of throughput)."""
        return 1e4 / self.throughput(unit_vector, workload)

    def metrics(self, unit_vector, workload):
        """A CDBTune-style internal-metrics state vector (deterministic).

        Returns a vector combining the knob vector's physical effects with
        workload features — the "database state" an RL tuner conditions on.
        """
        x = np.clip(np.asarray(unit_vector, dtype=float), 0.0, 1.0)
        score = self.score(x, workload)
        buffer_hit = 0.5 + 0.5 * x[0] * (1 - 0.3 * workload.scan_heaviness)
        lock_waits = workload.concurrency * (1 - score / 2.0)
        io_util = workload.scan_heaviness * (1 - 0.6 * x[2])
        cpu_util = min(1.0, 0.3 + 0.5 * workload.concurrency + 0.2 * x[6])
        return np.array([score, buffer_hit, lock_waits, io_util, cpu_util])

    def best_score_estimate(self, workload, n_samples=20000, seed=123):
        """Monte-Carlo estimate of the surface optimum (for regret reporting)."""
        rng = ensure_rng(seed)
        best = 0.0
        for __ in range(n_samples // 256):
            xs = rng.random((256, self.dim))
            scores = [self.score(x, workload) for x in xs]
            best = max(best, max(scores))
        return best * self._base_tps

    def cost_model_params(self, unit_vector):
        """Map knob settings onto engine cost-model constants.

        Connects the simulator world to the real engine: ``work_mem`` sets
        the hash-spill threshold, ``random_page_cost`` the index-probe cost.
        """
        work_mem_raw = self.knobs[1].denormalize(unit_vector[1])
        rpc = self.knobs[4].denormalize(unit_vector[4])
        return {
            "work_mem_rows": int(work_mem_raw * 1000),
            "index_probe_cost": float(rpc),
        }
