"""Join-order selection outside the engine: greedy and random baselines,
MCTS (SkinnerDB-style) and DQN (ReJOIN-style), and the objective that
prices them all.

Every orderer builds **left-deep orders**, and every order — the
engine's DP order too (:func:`dp_left_deep`) — is scored by one
objective, :func:`order_cost`, priced with the engine's
:class:`~repro.engine.optimizer.cost.CostModel`, so experiment E7
compares like with like; any of their orders runs through the engine as
an explicit ``order=``:

* :class:`MCTSJoinOrderer` needs no training — it searches per query, the
  SkinnerDB [74] regime — and should land near DP cost at a fraction of
  DP's enumeration time on large clique graphs.
* :class:`DQNJoinOrderer` trains on a workload (ReJOIN [54] / Yu et al.
  [83] regime) and then plans in a single greedy forward pass, amortizing
  optimization cost across queries.
"""

import time

import numpy as np

from repro.common import ModelError, NotFittedError, PlanError, ensure_rng
from repro.engine.optimizer.join_enum import dp_order
from repro.ml import DQNAgent, MCTS


def order_cost(query, order, estimator, cost_model):
    """Cost of executing a left-deep join order.

    The first table is scanned; each subsequent table is joined to the
    accumulated prefix with the cheaper of hash/nested-loop join (cross
    join when no edge connects it). Scan costs for the base tables are
    included once.

    Args:
        query: the :class:`~repro.engine.query.ConjunctiveQuery`.
        order: list of table names covering the query's tables exactly.
        estimator: a cardinality estimator.
        cost_model: a :class:`~repro.engine.optimizer.cost.CostModel`.

    Returns:
        float total cost.
    """
    if {t.lower() for t in order} != {t.lower() for t in query.tables}:
        raise PlanError("order must cover exactly the query's tables")
    total = 0.0
    first = order[0]
    bare = _NoPredicateView(query)
    current_rows = estimator.estimate_table(query, first)
    total += cost_model.seq_scan(estimator.estimate_subset(bare, [first]))
    joined = [first]
    for t in order[1:]:
        right_rows = estimator.estimate_table(query, t)
        total += cost_model.seq_scan(estimator.estimate_subset(bare, [t]))
        out_rows = estimator.estimate_subset(query, joined + [t])
        edges = query.edges_between(joined, t)
        if edges:
            __, join_cost = cost_model.choose_join(current_rows, right_rows, out_rows)
        else:
            join_cost = cost_model.cross_join(current_rows, right_rows)
        total += join_cost
        current_rows = out_rows
        joined.append(t)
    return total


class _NoPredicateView:
    """Query view with all filter predicates stripped (for base-scan costs)."""

    def __init__(self, query):
        self._query = query
        self.tables = query.tables
        self.join_edges = query.join_edges
        self.predicates = []

    def predicates_on(self, table):
        return []

    def signature(self):
        return (self._query.signature(), "__nopred__")


def dp_left_deep(query, estimator, cost_model):
    """The engine's DP order
    (:func:`~repro.engine.optimizer.join_enum.dp_order`), priced.

    Returns:
        ``(order, cost)``.
    """
    order = dp_order(query, estimator, cost_model)
    return order, order_cost(query, order, estimator, cost_model)


def _grow(query, first, pick, connected=True):
    """A left-deep order from ``first``: ``pick(order, pool)`` chooses each
    next table among those adjacent to the prefix (among all remaining
    ones when none is, or when not ``connected``)."""
    order = [first]
    remaining = [t for t in query.tables if t.lower() != first.lower()]
    while remaining:
        adjacent = [t for t in remaining
                    if connected and query.edges_between(order, t)]
        nxt = pick(order, adjacent or remaining)
        order.append(nxt)
        remaining.remove(nxt)
    return order


def greedy_order(query, estimator, cost_model):
    """Greedy left-deep order: start at the smallest filtered table, then
    repeatedly join the adjacent table minimizing the intermediate size.

    Returns:
        ``(order, cost)``.
    """
    start = min(query.tables, key=lambda t: estimator.estimate_table(query, t))
    order = _grow(query, start, lambda order, pool: min(
        pool, key=lambda t: estimator.estimate_subset(query, order + [t])))
    return order, order_cost(query, order, estimator, cost_model)


def random_order(query, estimator, cost_model, seed=None, connected=True):
    """A random (by default connectivity-respecting) left-deep order.

    Returns:
        ``(order, cost)``.
    """
    rng = ensure_rng(seed)
    tables = query.tables
    order = _grow(query, tables[int(rng.integers(0, len(tables)))],
                  lambda order, pool: pool[int(rng.integers(0, len(pool)))],
                  connected)
    return order, order_cost(query, order, estimator, cost_model)


class MCTSJoinOrderer:
    """Per-query UCT search over left-deep join orders.

    Args:
        estimator: cardinality estimator used by the cost objective.
        cost_model: the shared cost model.
        n_iterations: UCT iterations per query.
        c_uct: exploration constant (ablated in E7).
        seed: rollout seed.
    """

    def __init__(self, estimator, cost_model, n_iterations=300, c_uct=0.7, seed=0):
        self.estimator = estimator
        self.cost_model = cost_model
        self.n_iterations = n_iterations
        self.c_uct = c_uct
        self.seed = seed

    def order(self, query):
        """Return ``(order, cost)`` for one query."""
        tables = tuple(query.tables)
        if len(tables) == 1:
            return list(tables), order_cost(
                query, list(tables), self.estimator, self.cost_model
            )

        def actions_fn(state):
            if len(state) == len(tables):
                return []
            chosen = set(state)
            remaining = [t for t in tables if t not in chosen]
            if not state:
                return remaining
            adjacent = [t for t in remaining if query.edges_between(list(state), t)]
            return adjacent or remaining

        def step_fn(state, action):
            return state + (action,)

        def reward_fn(state):
            cost = order_cost(query, list(state), self.estimator, self.cost_model)
            return -float(np.log10(cost + 1.0))

        mcts = MCTS(actions_fn, step_fn, reward_fn, c_uct=self.c_uct, seed=self.seed)
        best_state, __ = mcts.search((), n_iterations=self.n_iterations)
        order = list(best_state)
        return order, order_cost(query, order, self.estimator, self.cost_model)


class DQNJoinOrderer:
    """Workload-trained DQN that picks the next table to join.

    State: joined-table bitmask, one-hot of the last-joined table, and the
    log of the current intermediate cardinality. Action: the next table's
    index (masked to connectivity-respecting choices). Reward: per-step
    ``-log10`` of the join/scan cost increment, so the return telescopes to
    ``-log10``-scale total cost.

    Args:
        tables: full ordered table vocabulary of the schema.
        estimator, cost_model: the shared objective components.
        episodes_per_query: training episodes per workload query per epoch.
        seed: agent seed.
    """

    def __init__(self, tables, estimator, cost_model, hidden=(64, 64),
                 episodes_per_query=8, epochs=6, seed=0):
        self.tables = [t.lower() for t in tables]
        self._pos = {t: i for i, t in enumerate(self.tables)}
        self.estimator = estimator
        self.cost_model = cost_model
        self.episodes_per_query = episodes_per_query
        self.epochs = epochs
        n = len(self.tables)
        self.agent = DQNAgent(
            state_dim=2 * n + 1,
            n_actions=n,
            hidden=hidden,
            gamma=1.0,
            epsilon=0.4,
            epsilon_min=0.05,
            epsilon_decay=0.97,
            seed=seed,
        )
        self._trained = False

    def _state(self, joined, last, current_rows):
        n = len(self.tables)
        vec = np.zeros(2 * n + 1)
        for t in joined:
            vec[self._pos[t.lower()]] = 1.0
        if last is not None:
            vec[n + self._pos[last.lower()]] = 1.0
        vec[2 * n] = float(np.log1p(max(current_rows, 0.0))) / 20.0
        return vec

    def _valid_actions(self, query, joined):
        chosen = {t.lower() for t in joined}
        remaining = [
            t for t in query.tables if t.lower() not in chosen
        ]
        if not joined:
            return [self._pos[t.lower()] for t in remaining]
        adjacent = [t for t in remaining if query.edges_between(joined, t)]
        pool = adjacent or remaining
        return [self._pos[t.lower()] for t in pool]

    def _step_cost(self, query, joined, nxt):
        """Incremental cost of joining ``nxt`` onto the prefix ``joined``."""
        right_rows = self.estimator.estimate_table(query, nxt)
        if not joined:
            return self.cost_model.seq_scan(right_rows), right_rows
        left_rows = self.estimator.estimate_subset(query, joined)
        out_rows = self.estimator.estimate_subset(query, joined + [nxt])
        edges = query.edges_between(joined, nxt)
        if edges:
            __, cost = self.cost_model.choose_join(left_rows, right_rows, out_rows)
        else:
            cost = self.cost_model.cross_join(left_rows, right_rows)
        return cost + self.cost_model.seq_scan(right_rows), out_rows

    def _run_episode(self, query, greedy=False, learn=True):
        joined = []
        last = None
        rows = 0.0
        transitions = []
        while len(joined) < len(query.tables):
            state = self._state(joined, last, rows)
            valid = self._valid_actions(query, joined)
            action = self.agent.act(state, valid_actions=valid, greedy=greedy)
            nxt = None
            for t in query.tables:
                if self._pos[t.lower()] == action and t.lower() not in {
                    j.lower() for j in joined
                }:
                    nxt = t
                    break
            if nxt is None:  # masked action leaked; pick first valid
                nxt_pos = valid[0]
                nxt = next(
                    t for t in query.tables if self._pos[t.lower()] == nxt_pos
                )
            step_cost, rows = self._step_cost(query, joined, nxt)
            reward = -float(np.log10(step_cost + 1.0)) / 5.0
            joined.append(nxt)
            done = len(joined) == len(query.tables)
            next_state = self._state(joined, nxt, rows)
            transitions.append((state, self._pos[nxt.lower()], reward, next_state, done))
            last = nxt
        if learn:
            for tr in transitions:
                self.agent.remember(*tr)
                self.agent.train_step()
        return joined

    def fit(self, workload):
        """Train on a list of conjunctive queries over the schema."""
        if not workload:
            raise ModelError("empty training workload")
        for q in workload:
            for t in q.tables:
                if t.lower() not in self._pos:
                    raise ModelError("table %r outside vocabulary" % (t,))
        for __ in range(self.epochs):
            for q in workload:
                for __ in range(self.episodes_per_query):
                    self._run_episode(q)
            self.agent.decay()
        self._trained = True
        return self

    def order(self, query):
        """Greedy (no-exploration) order for one query; ``(order, cost)``."""
        if not self._trained:
            raise NotFittedError("DQNJoinOrderer used before fit")
        order = self._run_episode(query, greedy=True, learn=False)
        return order, order_cost(query, order, self.estimator, self.cost_model)


def compare_orderers(queries, estimator, cost_model, mcts_iterations=300,
                     dqn=None, seed=0):
    """Run DP/greedy/random/MCTS (and optionally a trained DQN) on queries.

    Returns:
        dict mapping method name to ``{"cost": [...], "time": [...]}`` with
        per-query plan costs and optimization wall-times.
    """
    rng = ensure_rng(seed)
    results = {}

    def record(name, fn):
        costs, times = [], []
        for q in queries:
            t0 = time.perf_counter()
            __, cost = fn(q)
            times.append(time.perf_counter() - t0)
            costs.append(cost)
        results[name] = {"cost": costs, "time": times}

    record("dp", lambda q: dp_left_deep(q, estimator, cost_model))
    record("greedy", lambda q: greedy_order(q, estimator, cost_model))
    record(
        "random",
        lambda q: random_order(
            q, estimator, cost_model, seed=int(rng.integers(0, 2**31 - 1))
        ),
    )
    mcts = MCTSJoinOrderer(
        estimator, cost_model, n_iterations=mcts_iterations, seed=seed
    )
    record("mcts", mcts.order)
    if dqn is not None:
        record("dqn", dqn.order)
    return results
