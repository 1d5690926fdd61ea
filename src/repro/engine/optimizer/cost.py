"""Analytic cost model.

Costs are expressed in abstract *work units* = tuples touched, so that the
executor's measured work (see :mod:`repro.engine.executor`) is directly
comparable to the optimizer's estimate: a perfect estimator makes the cost
model exact. Knobs modulate the constants (e.g., a small ``work_mem``
makes large hash builds spill and charges a penalty), which is what gives
the knob-tuning experiments a realistic optimization surface.
"""

from repro.common import PlanError
from repro.engine import plans as P

#: Default knob-dependent constants; overridden per-database via KnobConfig.
DEFAULT_COST_PARAMS = {
    "cpu_tuple_cost": 1.0,       # cost of touching one tuple
    "index_probe_cost": 4.0,     # cost of one B+Tree descent
    "hash_build_cost": 1.5,      # per-tuple hash-table build cost
    "hash_probe_cost": 1.0,      # per-tuple probe cost
    "nl_inner_cost": 1.0,        # per inner-tuple cost in nested loops
    "sort_cost_factor": 1.2,     # multiplier on n*log2(n)
    "work_mem_rows": 100000,     # hash build rows before spilling
    "spill_penalty": 3.0,        # multiplier when a hash build spills
}


class CostModel:
    """Computes per-node and cumulative plan costs from cardinalities.

    Args:
        params: overrides for :data:`DEFAULT_COST_PARAMS`.
    """

    def __init__(self, params=None):
        self.params = dict(DEFAULT_COST_PARAMS)
        if params:
            unknown = set(params) - set(DEFAULT_COST_PARAMS)
            if unknown:
                raise PlanError("unknown cost params: %s" % ", ".join(sorted(unknown)))
            self.params.update(params)

    # -- primitive formulas ------------------------------------------------
    def seq_scan(self, n_rows):
        """Cost of scanning ``n_rows`` tuples.

        Zone-map pruning earns no discount: the executor charges the full
        scan whether or not segments are skipped, which keeps the model
        exact against measured work.
        """
        return self.params["cpu_tuple_cost"] * max(0.0, n_rows)

    def index_scan(self, n_matching):
        """Cost of an index probe returning ``n_matching`` tuples."""
        return self.params["index_probe_cost"] + self.params["cpu_tuple_cost"] * max(
            0.0, n_matching
        )

    def hash_join(self, left_rows, right_rows, out_rows):
        """Cost of building on the right side and probing with the left."""
        build = self.params["hash_build_cost"] * max(0.0, right_rows)
        if right_rows > self.params["work_mem_rows"]:
            build *= self.params["spill_penalty"]
        probe = self.params["hash_probe_cost"] * max(0.0, left_rows)
        return build + probe + self.params["cpu_tuple_cost"] * max(0.0, out_rows)

    def nested_loop_join(self, left_rows, right_rows, out_rows):
        """Cost of scanning the inner side once per outer tuple."""
        return (
            self.params["nl_inner_cost"] * max(0.0, left_rows) * max(0.0, right_rows)
            + self.params["cpu_tuple_cost"] * max(0.0, out_rows)
        )

    def cross_join(self, left_rows, right_rows):
        """Cost of a Cartesian product."""
        out = max(0.0, left_rows) * max(0.0, right_rows)
        return self.params["cpu_tuple_cost"] * out + out

    def sort(self, n_rows):
        """Cost of sorting ``n_rows`` tuples."""
        import math

        n = max(1.0, n_rows)
        return self.params["sort_cost_factor"] * n * math.log2(n + 1)

    def aggregate(self, in_rows, out_groups):
        """Cost of hashing ``in_rows`` into ``out_groups`` groups."""
        return self.params["cpu_tuple_cost"] * (max(0.0, in_rows) + max(0.0, out_groups))

    def choose_join(self, left_rows, right_rows, out_rows):
        """Pick the cheaper physical join; returns ``(kind, cost)``.

        ``kind`` is ``"hash"`` or ``"nl"``. Nested loops win only for tiny
        inputs, matching real optimizer behaviour.
        """
        hash_cost = self.hash_join(left_rows, right_rows, out_rows)
        nl_cost = self.nested_loop_join(left_rows, right_rows, out_rows)
        if nl_cost < hash_cost:
            return "nl", nl_cost
        return "hash", hash_cost

    # -- whole-plan costing --------------------------------------------------
    def annotate(self, plan, estimator, query):
        """Recompute ``est_rows``/``est_cost`` bottom-up for a physical plan.

        Returns the plan's total cost. The planner calls this after assembly;
        learned planners can call it with a different estimator to re-cost an
        existing plan. The pipeline's generic route gets the same estimates
        from :meth:`recost`, which skips what a literal cannot move.
        """
        for node in _postorder(plan):
            self._cost(node, estimator, query)
        return plan.est_cost

    def recost_steps(self, plan, query):
        """Compile ``plan``, planned for ``query``, into the postorder
        steps ``(id(node), kind, arg)`` :meth:`recost` runs on copies of
        it bound to other literals: ``"table"`` (arg: its table) for a
        SeqScan whose predicates are exactly its table's predicate slots
        of ``query``, ``"join"`` (arg: its table set), ``"index"`` (arg:
        its table) and ``"node"`` for the rest."""
        steps = []
        for node in _postorder(plan):
            kind, arg = "node", None
            if isinstance(node, P.SeqScan) and list(map(
                    id, node.predicates)) == list(map(
                        id, query.predicates_on(node.table))):
                kind, arg = "table", node.table
            elif isinstance(node, (P.HashJoin, P.NestedLoopJoin)):
                kind, arg = "join", node.output_tables()
            elif isinstance(node, P.IndexScan):
                kind, arg = "index", node.table
            steps.append((id(node), kind, arg))
        return steps

    def recost(self, steps, nodes, estimator, query, table_rows):
        """Re-estimate a plan bound to ``query``'s literals in one pass of
        its :meth:`recost_steps` (``nodes``: template node id -> bound
        node), leaving on every node what :meth:`annotate` would. A
        ``"table"`` scan keeps its ``est_cost``, its table's unfiltered
        row estimate, which no literal moves: an estimate is a pure
        function of the induced sub-query under a fixed catalog.

        The planner's local choices are checked in the same pass: returns
        ``None`` when a join is not the kind :meth:`choose_join` picks
        for its estimates or an IndexScan costs no less than a scan of
        ``table_rows(name)`` rows, else the plan's cost.
        """
        for node_id, kind, arg in steps:
            node = nodes[node_id]
            if kind == "table":
                node.est_rows = estimator.estimate_table(query, arg)
            elif kind == "join":
                left, right = node.children
                node.est_rows = out = estimator.estimate_subset(query, arg)
                join_kind, cost = self.choose_join(
                    left.est_rows, right.est_rows, out)
                if (join_kind == "hash") != isinstance(node, P.HashJoin):
                    return None
                node.est_cost = cost + left.est_cost + right.est_cost
            else:
                self._cost(node, estimator, query)
                if kind == "index" and node.est_cost >= self.seq_scan(
                        table_rows(arg)):
                    return None
        return node.est_cost

    def _cost(self, node, estimator, query):
        """Set one node's ``est_rows``/``est_cost`` from its children's."""
        if isinstance(node, P.SeqScan):
            # est rows after pushed-down predicates
            sub = _SinglePredicateView(query, node.table, node.predicates)
            node.est_rows = estimator.estimate_table(sub, node.table)
            base_rows = estimator.estimate_table(
                _SinglePredicateView(query, node.table, ()), node.table
            )
            node.est_cost = self.seq_scan(base_rows)
        elif isinstance(node, P.IndexScan):
            preds = [node.predicate] + list(node.residual)
            sub = _SinglePredicateView(query, node.table, preds)
            node.est_rows = estimator.estimate_table(sub, node.table)
            idx_sub = _SinglePredicateView(query, node.table, [node.predicate])
            matching = estimator.estimate_table(idx_sub, node.table)
            node.est_cost = self.index_scan(matching)
        elif isinstance(node, P.ViewScan):
            node.est_rows = max(1.0, node.view.n_rows * 0.33 ** len(node.residual))
            node.est_cost = self.seq_scan(node.view.n_rows)
        elif isinstance(node, (P.HashJoin, P.NestedLoopJoin)):
            left, right = node.children
            tables = node.output_tables()
            out_rows = estimator.estimate_subset(query, tables)
            node.est_rows = out_rows
            if isinstance(node, P.HashJoin):
                local = self.hash_join(left.est_rows, right.est_rows, out_rows)
            else:
                local = self.nested_loop_join(left.est_rows, right.est_rows, out_rows)
            node.est_cost = local + left.est_cost + right.est_cost
        elif isinstance(node, P.CrossJoin):
            left, right = node.children
            node.est_rows = left.est_rows * right.est_rows
            node.est_cost = (
                self.cross_join(left.est_rows, right.est_rows)
                + left.est_cost
                + right.est_cost
            )
        elif isinstance(node, P.Project):
            child = node.children[0]
            node.est_rows = child.est_rows
            node.est_cost = child.est_cost + self.params["cpu_tuple_cost"] * child.est_rows
        elif isinstance(node, P.HashAggregate):
            child = node.children[0]
            groups = max(1.0, child.est_rows ** 0.5) if node.group_by else 1.0
            node.est_rows = groups
            node.est_cost = child.est_cost + self.aggregate(child.est_rows, groups)
        elif isinstance(node, P.Sort):
            child = node.children[0]
            node.est_rows = child.est_rows
            node.est_cost = child.est_cost + self.sort(child.est_rows)
        elif isinstance(node, P.Limit):
            child = node.children[0]
            node.est_rows = min(child.est_rows, node.n)
            node.est_cost = child.est_cost
        elif isinstance(node, P.EmptyResult):
            node.est_rows = 0.0
            node.est_cost = 0.0
        else:
            raise PlanError("cost model does not know node %r" % (node,))


def _postorder(node):
    """``node``'s subtree, children before parents."""
    out = []
    for child in node.children:
        out.extend(_postorder(child))
    out.append(node)
    return out


class _SinglePredicateView:
    """A lightweight query view exposing only chosen predicates on a table.

    The cost model needs "rows of T under this exact predicate list", which
    may differ from the query's full predicate set (e.g., index vs residual
    predicates); this adapter satisfies the estimator interface for that.
    """

    def __init__(self, query, table, predicates):
        self._query = query
        self._table = table
        self._predicates = list(predicates)
        self.tables = query.tables
        self.join_edges = query.join_edges
        self._override = None

    @property
    def predicates(self):
        return self._predicates

    def predicates_on(self, table):
        if table == self._table:
            return list(self._predicates)
        return self._query.predicates_on(table)

    def memo_overrides(self, tables):
        """The planning memo's key part, built once: ``((table, predicate
        keys),)`` when this view's predicates differ from the query's."""
        override = self._override
        if override is None:
            preds = self._predicates
            override = self._override = () if preds == self._query.predicates_on(
                self._table) else ((self._table, tuple(p.key() for p in preds)),)
        mine = override and self._table in tables
        return override if mine else ()

    def signature(self):
        return (
            self._query.signature(),
            self._table,
            tuple(sorted(p.key() for p in self._predicates)),
        )
