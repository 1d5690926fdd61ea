"""NEO-lite: an end-to-end learned optimizer trained on executed latency.

Follows the NEO recipe (Marcus et al. [55]) at laptop scale:

1. **Bootstrap** — plan the training workload with the traditional
   optimizer, execute, and record ``(query, join order, executed work)``.
2. **Value network** — learn ``V(query, order) -> log(executed work)`` from
   those experiences (an MLP over query + order features).
3. **Plan search** — for a new query, beam-search left-deep orders guided
   by the value network, pick the best-scoring complete order, execute it.
4. **Iterate** — executed plans feed back into the experience set, so the
   optimizer improves where the analytic cost model was wrong (correlated
   data, misestimated joins).

The payoff measured in E8: on schemas where the traditional estimator is
badly wrong, NEO-lite's executed work approaches the true-cardinality
optimum while the analytic optimizer keeps picking bad orders.

Plan assembly goes through ``Database.run_query_object`` and therefore
the staged query pipeline: re-executing a ``(query, order)`` pair the
agent has tried before hits the plan cache instead of re-assembling the
physical plan (the cache key includes the explicit order).
"""

import numpy as np

from repro.ai4db.optimization.join_order import random_order
from repro.common import ModelError, NotFittedError, ensure_rng
from repro.ml import MLPRegressor


class NeoLiteOptimizer:
    """Latency-trained plan search over left-deep join orders.

    Args:
        database: a :class:`~repro.engine.Database` (provides planner and
            executor; its analytic planner is the bootstrap teacher).
        tables: table vocabulary of the schema.
        hidden: value-network hidden sizes.
        beam_width: beam size in guided plan search.
        seed: randomness seed.
    """

    def __init__(self, database, tables, hidden=(64, 64), beam_width=3,
                 epochs=150, seed=0):
        self.db = database
        self.tables = [t.lower() for t in tables]
        self._pos = {t: i for i, t in enumerate(self.tables)}
        self.beam_width = beam_width
        self.hidden = hidden
        self.epochs = epochs
        self._rng = ensure_rng(seed)
        self.value_net = None
        self._experience = []  # (features, log_work)

    # -- featurization ----------------------------------------------------
    def _features(self, query, order):
        """Encode (query, complete-or-partial order) as a vector."""
        n = len(self.tables)
        vec = np.zeros(3 * n + 1)
        for t in query.tables:
            vec[self._pos[t.lower()]] = 1.0
        for rank, t in enumerate(order):
            # Position-weighted order encoding.
            vec[n + self._pos[t.lower()]] = (rank + 1) / max(1, len(query.tables))
        preds = {}
        for p in query.predicates:
            preds[p.table.lower()] = preds.get(p.table.lower(), 0) + 1
        for t, count in preds.items():
            if t in self._pos:
                vec[2 * n + self._pos[t]] = count
        vec[3 * n] = len(order) / max(1, len(query.tables))
        return vec

    # -- experience collection ---------------------------------------------
    def _execute_order(self, query, order):
        result = self.db.run_query_object(query, order=order)
        return result.work

    def bootstrap(self, workload, extra_random_orders=2):
        """Phase 1: collect experiences from the analytic optimizer + noise.

        For each query the teacher's order plus a few random orders are
        executed, giving the value net contrastive signal.
        """
        for query in workload:
            plan = self.db.planner.plan(query)
            teacher_order = _order_of(plan, query)
            orders = [teacher_order]
            for __ in range(extra_random_orders):
                o, __cost = random_order(
                    query,
                    self.db.planner.estimator,
                    self.db.cost_model,
                    seed=int(self._rng.integers(0, 2**31 - 1)),
                )
                orders.append(o)
            for order in orders:
                work = self._execute_order(query, order)
                self._experience.append(
                    (self._features(query, order), float(np.log1p(work)))
                )
        return self

    def train(self):
        """Phase 2: fit the value network on the experience set."""
        if not self._experience:
            raise ModelError("bootstrap() must run before train()")
        X = np.stack([f for f, __ in self._experience])
        y = np.array([v for __, v in self._experience])
        self.value_net = MLPRegressor(
            hidden=self.hidden, epochs=self.epochs,
            seed=int(self._rng.integers(0, 2**31 - 1)),
        )
        self.value_net.fit(X, y)
        return self

    # -- guided search ------------------------------------------------------
    def plan_order(self, query):
        """Phase 3: beam search for the order the value net likes best."""
        if self.value_net is None:
            raise NotFittedError("NeoLiteOptimizer used before train()")
        n_tables = len(query.tables)
        beam = [()]
        while len(beam[0]) < n_tables:
            candidates = []
            for prefix in beam:
                chosen = {t.lower() for t in prefix}
                remaining = [t for t in query.tables if t.lower() not in chosen]
                if prefix:
                    adjacent = [
                        t for t in remaining if query.edges_between(list(prefix), t)
                    ]
                    pool = adjacent or remaining
                else:
                    pool = remaining
                for t in pool:
                    candidates.append(prefix + (t,))
            feats = np.stack([self._features(query, c) for c in candidates])
            scores = self.value_net.predict(feats)
            ranked = np.argsort(scores)  # lower predicted log-work is better
            beam = [candidates[i] for i in ranked[: self.beam_width]]
        return list(beam[0])

    def execute(self, query, learn=True):
        """Plan with the value net, execute, and optionally keep learning."""
        order = self.plan_order(query)
        result = self.db.run_query_object(query, order=order)
        if learn:
            self._experience.append(
                (self._features(query, order), float(np.log1p(result.work)))
            )
        return result, order

    def refine(self):
        """Phase 4: retrain the value network on the grown experience set."""
        return self.train()


def _order_of(plan, query):
    """Recover the left-deep join order from a physical plan."""
    from repro.engine import plans as P

    scans = []
    for node in plan.walk():
        if isinstance(node, (P.SeqScan, P.IndexScan)):
            scans.append(node.table)
    # walk() is preorder; for a left-deep tree the deepest-left scan comes
    # out in join order when reversed pairwise — reconstruct by scanning the
    # join spine instead.
    spine = []

    def descend(node):
        if isinstance(node, (P.HashJoin, P.NestedLoopJoin, P.CrossJoin)):
            descend(node.children[0])
            spine.append(node.children[1])
        elif isinstance(node, (P.SeqScan, P.IndexScan)):
            spine.append(node)
        else:
            for ch in node.children:
                descend(ch)

    descend(plan)
    order = []
    for node in spine:
        if isinstance(node, (P.SeqScan, P.IndexScan)):
            order.append(node.table)
        else:
            for sub in node.walk():
                if isinstance(sub, (P.SeqScan, P.IndexScan)):
                    order.append(sub.table)
    seen = set()
    result = []
    for t in order:
        if t.lower() not in seen:
            seen.add(t.lower())
            result.append(t)
    expected = {t.lower() for t in query.tables}
    if {t.lower() for t in result} != expected:
        # Fallback: catalog order (should not happen for planner output).
        result = list(query.tables)
    return result
