"""Declarative hint sets: the candidate-generation axis of plan selection.

A :class:`HintSet` is a small frozen value describing how one *arm* of
the plan-selection layer wants its plan built — the BAO idea reduced to
this engine's knobs. Plan hints only, on two axes:

* ``join_order`` — ``"default"`` (the planner's configured enumerator),
  ``"greedy"`` (the greedy heuristic), ``"exhaustive"`` (Selinger DP for
  up to :data:`EXHAUSTIVE_MAX_TABLES` relations, greedy beyond), or
  ``"ues"`` (the pessimistic upper-bound orderer in
  :mod:`repro.engine.optimizer.ues`);
* ``use_indexes`` — force index scans on/off (``None`` inherits the
  planner's setting).

Both axes change measured work, which is the bandit's reward signal; how
a plan is *executed* (mode, fusion) is the engine config's business and
never varies per arm. :func:`hint_grid` enumerates the cross product
declaratively; :func:`default_arms` is the curated subset the selectors
race by default.
"""

from dataclasses import dataclass

#: Join-order strategies an arm may request.
JOIN_ORDER_STRATEGIES = ("default", "greedy", "exhaustive", "ues")

#: Beyond this many relations the ``"exhaustive"`` strategy falls back to
#: the greedy heuristic (Selinger DP is exponential in the table count).
EXHAUSTIVE_MAX_TABLES = 7


@dataclass(frozen=True)
class HintSet:
    """One arm's declarative planning hints.

    Attributes:
        name: stable arm identifier (joins the plan-cache key and all
            telemetry/EXPLAIN reporting).
        join_order: one of :data:`JOIN_ORDER_STRATEGIES`.
        use_indexes: tri-state index-scan override (``None`` inherits).
    """

    name: str
    join_order: str = "default"
    use_indexes: bool = None

    def __post_init__(self):
        if not self.name:
            raise ValueError("a HintSet needs a non-empty name")
        if self.join_order not in JOIN_ORDER_STRATEGIES:
            raise ValueError(
                "join_order must be one of %r, got %r"
                % (JOIN_ORDER_STRATEGIES, self.join_order)
            )

    def describe(self):
        """A compact human-readable rendering (EXPLAIN / bench tables)."""
        parts = ["order=%s" % self.join_order]
        if self.use_indexes is not None:
            parts.append(
                "indexes=%s" % ("on" if self.use_indexes else "off"))
        return "%s(%s)" % (self.name, ", ".join(parts))


#: Planner defaults on every axis: the arm ``Planner.plan()`` builds and
#: the ``cost`` selector's only one.
DEFAULT_ARM = HintSet(name="default")

#: The pessimistic arm: UES join order, everything else inherited.
UES_ARM = HintSet(name="ues", join_order="ues")


@dataclass(frozen=True)
class PlanCandidate:
    """One generated candidate: an arm, its plan, and its estimated cost.

    Attributes:
        arm: the arm's name (``hints.name``).
        hints: the :class:`HintSet` the plan was built under.
        plan: the annotated physical plan.
        est_cost: the cost model's estimate for the whole plan (floored
            at 1.0) — the number selection strategies compare and the
            regret guard checks against the UES bound.
        bound: for the UES arm only — the pessimistic cost guarantee
            from :func:`repro.engine.optimizer.ues.bound_cost`; ``None``
            for estimate-driven arms.
    """

    arm: str
    hints: HintSet
    plan: object
    est_cost: float
    bound: float = None

    def __repr__(self):
        return "PlanCandidate(arm=%r, est_cost=%.1f%s)" % (
            self.arm, self.est_cost,
            "" if self.bound is None else ", bound=%.1f" % self.bound,
        )


def default_arms():
    """The curated arm set the bandit/pessimistic selectors race.

    Five arms spanning both axes — join-order strategy and index usage:

    * ``default`` — the planner exactly as configured (the cost
      selector's only arm);
    * ``greedy`` — the greedy join-order heuristic;
    * ``exhaustive`` — Selinger DP capped at
      :data:`EXHAUSTIVE_MAX_TABLES` relations;
    * ``no-index`` — default order, index scans disabled (protects
      against index scans picked off bad selectivity estimates);
    * ``ues`` — the pessimistic upper-bound order (the regret anchor).
    """
    return (
        DEFAULT_ARM,
        HintSet(name="greedy", join_order="greedy"),
        HintSet(name="exhaustive", join_order="exhaustive"),
        HintSet(name="no-index", use_indexes=False),
        UES_ARM,
    )


def hint_grid(join_orders=("greedy", "exhaustive", "ues"),
              index_axis=(True, False)):
    """The declarative join-order × index cross product of hint sets."""
    arms = []
    for jo in join_orders:
        for idx in index_axis:
            bits = [jo]
            if idx is not None and not idx:
                bits.append("noidx")
            arms.append(HintSet(
                name="+".join(bits), join_order=jo, use_indexes=idx,
            ))
    return tuple(arms)
