"""Plan selection strategies: cost, BAO-lite bandit, pessimistic UES.

The middle stage of the plan-selection layer. Candidate generation
(:meth:`~repro.engine.optimizer.planner.Planner.plan_candidates`) builds
one plan per hint-set arm; a :class:`PlanSelector` picks which candidate
actually runs:

* :class:`CostSelector` — the one-arm case: only the ``default`` arm
  (the planner exactly as configured) is generated and chosen.
* :class:`BanditSelector` — BAO-lite: a contextual bandit over plan
  features (table count, predicate count/selectivity, estimated rows per
  join level). Per arm it maintains a ridge-regression posterior over
  log measured work and Thompson-samples it at selection time (seeded —
  every run is reproducible); training happens online from
  the run's measured ``total_work`` at the pipeline's feedback-ingest
  point. Two regret guards bound the tail the learned-optimizer
  literature worries about: an arm is only *eligible* while its
  estimated cost is ≤ :data:`REGRET_CAP` × the UES bound, and an arm whose
  measured work repeatedly betrays its estimate (or whose queries keep
  triggering cardinality-drift feedback) is demoted for a cooldown.
* :class:`PessimisticSelector` — always the UES arm: worst-case-bounded
  plans, the robust fallback.

All selectors are thread-safe (the serving layer plans concurrently) and
expose :meth:`~PlanSelector.stats` — per-arm picks, wins, observations,
demotions — which EXPLAIN ANALYZE and the benchmarks report.
"""

import math
import threading

import numpy as np

from repro.common import PlanError, ensure_rng
from repro.engine.config import PLAN_SELECTORS
from repro.engine.optimizer.hints import DEFAULT_ARM, UES_ARM, default_arms

#: The bandit's regret cap: a learned arm is eligible only while its
#: estimated cost is at most this multiple of the UES bound, and measured
#: work above this multiple of an arm's own estimate is a strike.
REGRET_CAP = 2.0

#: Feature-vector dimensionality (see :func:`plan_features`).
FEATURE_DIM = 8

#: Join levels the feature vector carries estimated cardinalities for.
_FEATURE_LEVELS = 4


def plan_features(query, estimator):
    """The contextual feature vector of one query (fixed length, float64).

    Features (all log-compressed so work-spanning workloads stay in a
    comparable range): a bias term, table count, predicate count, the
    estimated cardinality at each of the first four join levels of the
    sorted table prefix, and the estimated full-join cardinality.
    """
    x = np.zeros(FEATURE_DIM)
    x[0] = 1.0
    tables = sorted(query.tables, key=str.lower)
    x[1] = len(tables) / 4.0
    x[2] = len(query.predicates) / 4.0
    full = 1.0
    for level in range(_FEATURE_LEVELS):
        if level < len(tables):
            try:
                rows = estimator.estimate_subset(query, tables[:level + 1])
            except PlanError:
                rows = 1.0
            full = rows
            x[3 + level] = math.log1p(max(0.0, rows)) / 20.0
    x[7] = math.log1p(max(0.0, full)) / 20.0
    return x


class PlanSelector:
    """Strategy interface: which generated candidate runs.

    Subclasses implement :meth:`arms` (which hint sets to generate
    candidates for) and :meth:`select`; :meth:`features` is the context
    a learning selector wants computed per query, :meth:`observe` is the
    online-training hook the pipeline calls with the measured work of
    the chosen arm, and :meth:`note_drift` receives cardinality-drift
    signals from the feedback store.
    """

    name = "abstract"

    def arms(self, query):
        """Hint sets to generate candidates for (ordered, deterministic)."""
        raise NotImplementedError

    def features(self, query, estimator):
        """The context vector :meth:`select`/:meth:`observe` receive for
        ``query`` — ``None`` unless the selector learns from one."""
        return None

    def select(self, candidates, query, features=None):
        """Pick the candidate to execute from a non-empty list."""
        raise NotImplementedError

    def observe(self, arm, features, est_cost, actual_work):
        """Online training hook: the chosen arm's measured work."""

    def note_drift(self, tables):
        """Cardinality drift was detected on ``tables`` (feedback store)."""

    def stats(self):
        """A JSON-friendly snapshot of per-arm accounting."""
        return {"selector": self.name, "arms": {}}

    def __repr__(self):
        return "%s(name=%r)" % (type(self).__name__, self.name)


class _ArmState:
    """Per-arm accounting + ridge posterior over log measured work."""

    __slots__ = ("A", "b", "picks", "wins", "observes", "strikes",
                 "demotions", "demoted_until", "total_work", "total_est")

    def __init__(self, dim):
        self.A = np.eye(dim)
        self.b = np.zeros(dim)
        self.picks = 0
        self.wins = 0
        self.observes = 0
        self.strikes = 0
        self.demotions = 0
        self.demoted_until = 0
        self.total_work = 0.0
        self.total_est = 0.0

    def summary(self):
        return {
            "picks": self.picks,
            "wins": self.wins,
            "observes": self.observes,
            "strikes": self.strikes,
            "demotions": self.demotions,
            "mean_work": (
                self.total_work / self.observes if self.observes else None
            ),
            "mean_est_cost": (
                self.total_est / self.observes if self.observes else None
            ),
        }


class CostSelector(PlanSelector):
    """The default arm alone; among several candidates (a caller racing
    its own set), the cheapest by estimated cost."""

    name = "cost"

    def __init__(self):
        self._lock = threading.Lock()
        self._picks = {}

    def arms(self, query):
        return (DEFAULT_ARM,)

    def select(self, candidates, query, features=None):
        chosen = min(candidates, key=lambda c: (c.est_cost, c.arm))
        with self._lock:
            self._picks[chosen.arm] = self._picks.get(chosen.arm, 0) + 1
        return chosen

    def stats(self):
        with self._lock:
            return {
                "selector": self.name,
                "arms": {
                    arm: {"picks": n, "wins": n}
                    for arm, n in sorted(self._picks.items())
                },
            }


class PessimisticSelector(PlanSelector):
    """Always the UES arm: guaranteed-bound plans, no learning."""

    name = "pessimistic"

    def __init__(self):
        self._lock = threading.Lock()
        self._picks = 0
        self._observes = 0
        self._total_work = 0.0
        self._total_est = 0.0

    def arms(self, query):
        return (UES_ARM,)

    def select(self, candidates, query, features=None):
        for c in candidates:
            if c.arm == UES_ARM.name:
                with self._lock:
                    self._picks += 1
                return c
        raise PlanError("pessimistic selection needs a UES candidate")

    def observe(self, arm, features, est_cost, actual_work):
        with self._lock:
            self._observes += 1
            self._total_work += float(actual_work)
            self._total_est += float(est_cost or 0.0)

    def stats(self):
        with self._lock:
            n = self._observes
            return {
                "selector": self.name,
                "arms": {UES_ARM.name: {
                    "picks": self._picks,
                    "wins": self._picks,
                    "observes": n,
                    "mean_work": self._total_work / n if n else None,
                    "mean_est_cost": self._total_est / n if n else None,
                }},
            }


class BanditSelector(PlanSelector):
    """BAO-lite: a contextual Thompson-sampling bandit over hint arms.

    Args:
        arms: hint sets to race (default :func:`default_arms`; must
            include the UES arm — it is the regret anchor and the
            fallback when every learned arm is ineligible).
        rng: seed or :class:`numpy.random.Generator` for Thompson
            sampling (thread the engine's configured seed through here —
            selection sequences are then exactly reproducible).
        exploration: posterior-width multiplier (bigger = more
            exploration).
        demote_after: strikes before an arm is demoted. A strike is a
            broken promise — measured work above :data:`REGRET_CAP` × the
            arm's own estimate — or a drift notification from the
            feedback store against the arm's last pick.
        demote_for: selections a demoted arm sits out.
    """

    name = "bandit"

    def __init__(self, arms=None, rng=None, exploration=0.5, demote_after=3,
                 demote_for=50):
        self._arms = tuple(arms) if arms is not None else default_arms()
        if not any(a.name == UES_ARM.name for a in self._arms):
            self._arms = self._arms + (UES_ARM,)
        self.exploration = float(exploration)
        self.demote_after = int(demote_after)
        self.demote_for = int(demote_for)
        self._rng = ensure_rng(rng)
        self._lock = threading.Lock()
        self._state = {a.name: _ArmState(FEATURE_DIM) for a in self._arms}
        self._selections = 0
        self._last_pick = None  # (arm, frozenset of tables)

    def arms(self, query):
        return self._arms

    def features(self, query, estimator):
        return plan_features(query, estimator)

    def _arm_state(self, name):
        """Per-arm state, created lazily — callers may race candidate
        sets beyond the configured arms (tests, ad-hoc grids)."""
        state = self._state.get(name)
        if state is None:
            state = self._state[name] = _ArmState(FEATURE_DIM)
        return state

    # -- selection ---------------------------------------------------------
    def _eligible(self, candidates, bound):
        """Arms allowed by the regret cap and not serving a demotion."""
        out = []
        for c in candidates:
            if c.arm == UES_ARM.name:
                out.append(c)  # the anchor is always eligible
                continue
            if bound is not None and c.est_cost > REGRET_CAP * bound:
                continue
            if self._arm_state(c.arm).demoted_until > self._selections:
                continue
            out.append(c)
        return out or list(candidates)

    def _sample_score(self, state, x):
        """Thompson sample of the arm's predicted log-work at ``x``."""
        A_inv = np.linalg.inv(state.A)
        theta = A_inv @ state.b
        noise = self._rng.standard_normal(len(x))
        # Cholesky of the posterior covariance, scaled by exploration.
        cov = self.exploration * A_inv
        sample = theta + np.linalg.cholesky(
            cov + 1e-12 * np.eye(len(x))
        ) @ noise
        return float(x @ sample)

    def select(self, candidates, query, features=None):
        if features is None:
            features = np.zeros(FEATURE_DIM)
            features[0] = 1.0
        bound = None
        for c in candidates:
            if c.bound is not None:
                bound = c.bound
        with self._lock:
            self._selections += 1
            pool = self._eligible(candidates, bound)
            best, best_score = None, None
            for c in sorted(pool, key=lambda c: c.arm):
                state = self._arm_state(c.arm)
                if state.observes == 0:
                    # Force one pull of every arm before trusting scores.
                    best = c
                    break
                score = self._sample_score(state, np.asarray(features))
                if best_score is None or score < best_score:
                    best, best_score = c, score
            self._arm_state(best.arm).picks += 1
            self._last_pick = (
                best.arm, frozenset(t.lower() for t in query.tables)
            )
            return best

    # -- online training ---------------------------------------------------
    def observe(self, arm, features, est_cost, actual_work):
        """Train the chosen arm's posterior on measured work."""
        x = np.asarray(
            features if features is not None else np.zeros(FEATURE_DIM)
        )
        reward = math.log1p(max(0.0, float(actual_work)))
        with self._lock:
            state = self._arm_state(arm)
            state.A += np.outer(x, x)
            state.b += reward * x
            state.observes += 1
            state.total_work += float(actual_work)
            state.total_est += float(est_cost or 0.0)
            if est_cost and actual_work <= float(est_cost) * 1.0000001:
                state.wins += 1
            elif est_cost and actual_work > REGRET_CAP * float(est_cost):
                self._strike(arm, state)

    def note_drift(self, tables):
        """Feedback drift on ``tables``: strike the arm that last planned
        a query over any of them (its plan was built on bad estimates)."""
        with self._lock:
            if self._last_pick is None:
                return
            arm, picked_tables = self._last_pick
            if arm == UES_ARM.name:
                return  # the anchor never demotes
            if picked_tables & {t.lower() for t in tables}:
                self._strike(arm, self._arm_state(arm))

    def _strike(self, arm, state):
        state.strikes += 1
        if state.strikes >= self.demote_after:
            state.strikes = 0
            state.demotions += 1
            state.demoted_until = self._selections + self.demote_for

    def stats(self):
        with self._lock:
            return {
                "selector": self.name,
                "regret_cap": REGRET_CAP,
                "selections": self._selections,
                "arms": {
                    name: st.summary()
                    for name, st in sorted(self._state.items())
                },
            }


def make_selector(name, *, rng=None, arms=None):
    """Build the named selector (``"cost"``/``"bandit"``/``"pessimistic"``)."""
    if name == "cost":
        return CostSelector()
    if name == "pessimistic":
        return PessimisticSelector()
    if name == "bandit":
        return BanditSelector(arms=arms, rng=rng)
    raise PlanError(
        "plan_selector must be one of %r, got %r" % (PLAN_SELECTORS, name)
    )
