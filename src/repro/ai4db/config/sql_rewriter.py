"""Learned SQL rewriting: MCTS over rule-application orderings.

The tutorial's observation: traditional rewriters apply rules in a fixed
(top-down) order and can miss better final queries, because rules interact
— e.g., propagating an equality constant may enable a contradiction
detection or make a join redundant. The learned rewriter treats rewriting
as a search problem over rule sequences and optimizes the *final plan
cost* directly, the deep-RL formulation the tutorial sketches.
"""

import numpy as np

from repro.common import ensure_rng
from repro.engine.optimizer.planner import Planner
from repro.ai4db.config.rules import apply_rules_fixed_order, default_rules
from repro.engine.query import Aggregate, ConjunctiveQuery, JoinEdge, Predicate
from repro.ml import MCTS


def plan_cost(catalog, query, cost_model=None):
    """Estimated cost of the best plan for ``query`` (no views)."""
    planner = Planner(catalog, use_views=False, cost_model=cost_model)
    return planner.plan(query).est_cost


def rewrite_benefit(catalog, original, rewritten, cost_model=None):
    """Relative cost reduction achieved by a rewrite."""
    before = plan_cost(catalog, original, cost_model)
    after = plan_cost(catalog, rewritten, cost_model)
    return (before - after) / max(before, 1e-9)


class FixedOrderRewriter:
    """Traditional baseline: registry order, repeat to fixpoint."""

    name = "fixed-order"

    def __init__(self, rules=None):
        self.rules = rules if rules is not None else default_rules()

    def rewrite(self, query, catalog):
        """Returns ``(rewritten_query, applied_rule_names)``."""
        return apply_rules_fixed_order(query, self.rules, catalog=catalog)


class LearnedRewriter:
    """MCTS rewriter: search rule sequences, minimize final plan cost.

    State: ``(query, depth)``; actions: rules that currently apply (plus an
    implicit stop when none do or depth is exhausted); terminal reward:
    ``-log10(final plan cost)``. Each query is searched independently — the
    policy cost is bounded by ``n_iterations`` planner calls, which is the
    trade the deep-RL rewriting papers make as well.

    Args:
        rules: rule registry (default: the engine's standard rules).
        n_iterations: MCTS iterations per query.
        max_depth: maximum rule applications in one sequence.
        seed: rollout seed.
    """

    name = "learned"

    def __init__(self, rules=None, n_iterations=80, max_depth=6, seed=0):
        self.rules = rules if rules is not None else default_rules()
        self.n_iterations = n_iterations
        self.max_depth = max_depth
        self.seed = seed

    def rewrite(self, query, catalog):
        """Returns ``(rewritten_query, applied_rule_names)``."""
        rules = self.rules
        cost_cache = {}

        def cached_cost(q):
            # signature() covers the full query shape (incl. LIMIT).
            key = q.signature()
            if key not in cost_cache:
                cost_cache[key] = plan_cost(catalog, q)
            return cost_cache[key]

        def actions_fn(state):
            q, depth, __ = state
            if depth >= self.max_depth:
                return []
            acts = []
            for i, rule in enumerate(rules):
                if rule.apply(q, catalog=catalog) is not None:
                    acts.append(i)
            return acts

        def step_fn(state, action):
            q, depth, trace = state
            new_q = rules[action].apply(q, catalog=catalog)
            return (new_q, depth + 1, trace + (rules[action].name,))

        def reward_fn(state):
            q, __, ___ = state
            return -float(np.log10(cached_cost(q) + 1.0))

        mcts = MCTS(actions_fn, step_fn, reward_fn, c_uct=0.5, seed=self.seed)
        best_state, __ = mcts.search(
            (query, 0, ()), n_iterations=self.n_iterations
        )
        if best_state is None:
            return query, []
        best_q, __, trace = best_state
        # Never return something worse than the input.
        if cached_cost(best_q) > cached_cost(query):
            return query, []
        return best_q, list(trace)


def make_rewrite_corpus(catalog, fact_table, dim_tables, edges, n_queries=30,
                        n_values=100, seed=0):
    """Queries with planted rewrite opportunities over a star schema.

    Each query gets a random mix of: duplicate predicates, slack range
    predicates, a constant that propagates across a join, an unused
    key–FK joined dimension, and (rarely) a contradiction.

    Args:
        catalog: catalog with the schema loaded and analyzed.
        fact_table: fact table name.
        dim_tables: list of ``(dim_table, fact_fk_column, dim_key_column)``.
        edges: join edges usable in queries.
        n_values: constant domain for predicates.

    Returns:
        list of :class:`ConjunctiveQuery`.
    """
    rng = ensure_rng(seed)
    queries = []
    for __ in range(n_queries):
        k = int(rng.integers(1, len(dim_tables) + 1))
        picks = [dim_tables[i] for i in rng.choice(len(dim_tables), size=k,
                                                   replace=False)]
        tables = [fact_table] + [d[0] for d in picks]
        q_edges = [
            JoinEdge(fact_table, fk, dim, key) for dim, fk, key in picks
        ]
        predicates = []
        v = int(rng.integers(10, n_values))
        # Slack ranges on the fact table: val > v-20 AND val > v (redundant).
        predicates.append(Predicate(fact_table, "val", ">", max(0, v - 20)))
        predicates.append(Predicate(fact_table, "val", ">", v))
        if rng.random() < 0.5:
            predicates.append(Predicate(fact_table, "val", ">", v))  # duplicate
        # A join-key constant that can propagate to the dimension side.
        if picks and rng.random() < 0.6:
            dim, fk, key = picks[0]
            predicates.append(
                Predicate(fact_table, fk, "=", int(rng.integers(0, 50)))
            )
        # Rare contradiction.
        if rng.random() < 0.15:
            predicates.append(Predicate(fact_table, "val", "<", max(0, v - 30)))
        # The last dimension is referenced by nothing else -> redundant join.
        queries.append(
            ConjunctiveQuery(
                tables=tables,
                join_edges=q_edges,
                predicates=predicates,
                aggregates=[Aggregate("count")],
            )
        )
    return queries
