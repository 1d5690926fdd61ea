"""Declarative hint sets: the candidate-generation axis of plan selection.

A :class:`HintSet` is a small frozen value describing how one *arm* of
the plan-selection layer wants its plan built — the BAO idea reduced to
this engine's knobs. Four axes:

* ``join_order`` — ``"default"`` (the planner's configured enumerator),
  ``"greedy"`` (the greedy heuristic), ``"exhaustive"`` (Selinger DP for
  up to :data:`EXHAUSTIVE_MAX_TABLES` relations, greedy beyond), or
  ``"ues"`` (the pessimistic upper-bound orderer in
  :mod:`repro.engine.optimizer.ues`);
* ``use_indexes`` — force index scans on/off (``None`` inherits the
  planner's setting);
* ``fusion`` — force operator fusion on/off at execution time (``None``
  inherits the engine config). Fusion never changes measured work, only
  wall time — it is an execution hint, not a plan hint;
* ``parallel`` — force morsel-parallel execution on/off (``None``
  inherits). Same caveat: work-invariant by the engine's mode contract.

:func:`hint_grid` enumerates the full cross product declaratively;
:func:`default_arms` is the curated subset the selectors race by default
(the work-differentiating axes only, so the bandit's reward signal —
measured work — can actually separate the arms).
"""

from dataclasses import dataclass

#: Join-order strategies an arm may request.
JOIN_ORDER_STRATEGIES = ("default", "greedy", "exhaustive", "ues")

#: Beyond this many relations the ``"exhaustive"`` strategy falls back to
#: the greedy heuristic (Selinger DP is exponential in the table count).
EXHAUSTIVE_MAX_TABLES = 7


@dataclass(frozen=True)
class HintSet:
    """One arm's declarative planning/execution hints.

    Attributes:
        name: stable arm identifier (joins the plan-cache key and all
            telemetry/EXPLAIN reporting).
        join_order: one of :data:`JOIN_ORDER_STRATEGIES`.
        use_indexes: tri-state index-scan override (``None`` inherits).
        fusion: tri-state execution-fusion override (``None`` inherits).
        parallel: tri-state morsel-parallelism override (``None``
            inherits).
    """

    name: str
    join_order: str = "default"
    use_indexes: bool = None
    fusion: bool = None
    parallel: bool = None

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
        for label, value in (("indexes", self.use_indexes),
                             ("fusion", self.fusion),
                             ("parallel", self.parallel)):
            if value is not None:
                parts.append("%s=%s" % (label, "on" if value else "off"))
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

    Five arms spanning the work-differentiating axes — join-order
    strategy and index usage:

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
              index_axis=(True, False), fusion_axis=(None,),
              parallel_axis=(None,)):
    """The full declarative cross product of hint axes.

    Defaults enumerate the join-order × index grid with execution axes
    inherited; pass ``fusion_axis=(True, False)`` /
    ``parallel_axis=(True, False)`` to expand those too (benchmarks do —
    selectors usually should not, since fusion/parallelism never move
    the work-based reward).
    """
    arms = []
    for jo in join_orders:
        for idx in index_axis:
            for fu in fusion_axis:
                for par in parallel_axis:
                    bits = [jo]
                    if idx is not None and not idx:
                        bits.append("noidx")
                    if fu is not None:
                        bits.append("fuse" if fu else "nofuse")
                    if par is not None:
                        bits.append("par" if par else "serial")
                    arms.append(HintSet(
                        name="+".join(bits), join_order=jo,
                        use_indexes=idx, fusion=fu, parallel=par,
                    ))
    return tuple(arms)
