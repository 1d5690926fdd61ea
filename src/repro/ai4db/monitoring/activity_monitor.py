"""Database activity monitoring as a multi-armed bandit.

Grushka-Cohen et al. [19]: an auditor can only record/inspect a fraction
of database activities, so *which* activities to audit is an
exploration/exploitation problem — exploit activity types known to be
risky, explore the rest in case risk drifted. The policy's value is the
total risk score captured under a fixed audit budget.

Policies below consume the telemetry generator's activity stream; the
bandit policies treat activity types as arms and realized risk as reward.
"""

import numpy as np

from repro.common import ensure_rng
from repro.ml import ThompsonBetaBandit, UCB1Bandit
from repro.sim.traces import ACTIVITY_TYPES


class AuditPolicy:
    """Base class: decide which activity type to audit at each step."""

    name = "base"

    def select(self):
        """Return the activity-type index to audit next."""
        raise NotImplementedError

    def update(self, arm, reward):
        """Observe the realized risk of the audited activity."""


class RandomAuditPolicy(AuditPolicy):
    """Audits a uniformly random activity type (no learning)."""

    name = "random"

    def __init__(self, n_arms=None, seed=0):
        self.n_arms = n_arms or len(ACTIVITY_TYPES)
        self._rng = ensure_rng(seed)

    def select(self):
        return int(self._rng.integers(0, self.n_arms))


class RoundRobinAuditPolicy(AuditPolicy):
    """Cycles through activity types (the record-everything-fairly rule)."""

    name = "round-robin"

    def __init__(self, n_arms=None):
        self.n_arms = n_arms or len(ACTIVITY_TYPES)
        self._next = 0

    def select(self):
        arm = self._next
        self._next = (self._next + 1) % self.n_arms
        return arm


class BanditAuditPolicy(AuditPolicy):
    """Wraps a bandit (UCB1 or Thompson) as an audit policy."""

    def __init__(self, kind="thompson", n_arms=None, seed=0):
        self.n_arms = n_arms or len(ACTIVITY_TYPES)
        if kind == "thompson":
            self._bandit = ThompsonBetaBandit(self.n_arms, seed=seed)
        elif kind == "ucb":
            self._bandit = UCB1Bandit(self.n_arms)
        else:
            raise ValueError("kind must be 'thompson' or 'ucb'")
        self.name = "bandit-%s" % kind

    def select(self):
        return self._bandit.select()

    def update(self, arm, reward):
        self._bandit.update(arm, reward)


def run_audit_simulation(policy, type_means, n_steps=2000, noise=0.12, seed=0):
    """Simulate auditing with a per-step budget of one activity.

    At each step the policy picks an activity type to audit; the realized
    risk is a noisy draw around the type's true mean. Returns the captured
    risk total, the per-step history, and regret vs. always auditing the
    riskiest type.

    Args:
        policy: an :class:`AuditPolicy`.
        type_means: true mean risk per activity type.
        n_steps: audit budget.
        noise: observation noise std.
        seed: draw seed.

    Returns:
        dict with ``captured``, ``regret``, ``history``.
    """
    rng = ensure_rng(seed)
    type_means = np.asarray(type_means, dtype=float)
    best = float(type_means.max())
    history = []
    captured = 0.0
    for __ in range(n_steps):
        arm = policy.select()
        reward = float(np.clip(rng.normal(type_means[arm], noise), 0.0, 1.0))
        policy.update(arm, reward)
        history.append(reward)
        captured += reward
    regret = best * n_steps - captured
    return {"captured": captured, "regret": regret, "history": history}
