"""The planner: access-path selection + join ordering + plan assembly.

``Planner`` is deliberately pluggable along the three axes the learned
components replace:

* the **cardinality estimator** (traditional / sampling / learned MSCN-lite),
* the **join order** (Selinger DP, or an explicit ``order=`` built
  outside the engine — the greedy, random and pessimistic UES orders of
  :mod:`repro.ai4db.optimization`, or an RL/MCTS agent's),
* the **cost model** (whose constants the knob tuner moves).

That pluggability is the point: every AI4DB optimization experiment is
"swap one axis, hold the rest fixed, measure executed work".
:meth:`Planner.plan` is the one entry point and yields one plan.

Each planning call wraps the estimator in one
:class:`~repro.engine.optimizer.cardinality.EstimateMemo`, shared by
DP, access paths, assembly and cost annotation, so
``optimizer.plan.ms`` pays each distinct sub-query estimate once.
"""

from numbers import Number

from repro.common import PlanError
from repro.engine import plans as P
from repro.engine.optimizer.cardinality import TraditionalEstimator
from repro.engine.optimizer.cost import CostModel, _SinglePredicateView
from repro.engine.optimizer.join_enum import dp_order
from repro.engine.types import DataType


def _kind_mismatch(catalog, p):
    """The column's :class:`DataType` when predicate ``p`` compares a
    number with text, else ``None`` (unknown names are not its business)."""
    text = isinstance(p.value, str)
    if (not (text or isinstance(p.value, Number)) or isinstance(p.value, bool)
            or not catalog.has_table(p.table)
            or not catalog.table(p.table).schema.has_column(p.column)):
        return None
    dtype = catalog.table(p.table).schema.column(p.column).dtype
    return dtype if text != (dtype is DataType.TEXT) else None


def check_range_types(catalog, query):
    """PostgreSQL's rule: ``< <= > >=`` between a number and text — an
    INT/FLOAT column and a text literal, or a TEXT column and a number —
    raises :class:`~repro.common.PlanError`, whatever the access path.
    ``=``/``!=`` answer (nothing equals the other kind), never through
    an index, whose sorted keys cannot be searched for one."""
    for p in query.predicates:
        dtype = p.op in ("<", "<=", ">", ">=") and _kind_mismatch(catalog, p)
        if dtype:
            raise PlanError("cannot compare %s column %s.%s with %r using %s"
                            % (dtype.name, p.table, p.column, p.value, p.op))


class Planner:
    """Builds physical plans for conjunctive queries.

    Args:
        catalog: the database catalog.
        estimator: cardinality estimator; defaults to the traditional
            histogram estimator.
        cost_model: a :class:`CostModel`; default constants unless knobs say
            otherwise.
        use_views: consider matching materialized views.
        include_hypothetical: treat what-if indexes as usable (for advisor
            costing only — executing such a plan raises).
    """

    def __init__(
        self,
        catalog,
        estimator=None,
        cost_model=None,
        use_views=True,
        include_hypothetical=False,
    ):
        self.catalog = catalog
        self.estimator = estimator or TraditionalEstimator(catalog)
        self.cost_model = cost_model or CostModel()
        self.use_views = use_views
        self.include_hypothetical = include_hypothetical

    def plan(self, query, order=None, memo=None, catalog=None):
        """Produce an annotated physical plan for ``query``.

        Args:
            query: a :class:`~repro.engine.query.ConjunctiveQuery`.
            order: optional explicit left-deep join order (list of table
                names); when given, DP is skipped — this is the route
                every other join orderer (greedy, random, UES, the
                learned agents) takes.
            memo: the call's estimate memo, when the caller keeps it
                (:meth:`CardinalityEstimator.planning_scope` of ``query``;
                a fresh one otherwise).
            catalog: the view every table, row-count, index and view
                lookup reads — the statement's pinned snapshot on the
                pipeline's route, the planner's own catalog otherwise
                (the estimator reads statistics through its own).
        """
        if memo is None:
            memo = self.estimator.planning_scope(query)
        return self._plan(query, order, memo,
                          self.catalog if catalog is None else catalog)

    def _plan(self, query, order, memo, catalog):
        check_range_types(catalog, query)
        if query.limit == 0:
            plan = P.EmptyResult(self._output_columns(query, catalog))
            self.cost_model.annotate(plan, memo, query)
            return plan
        view_match = catalog.matching_view(query) if self.use_views else None
        if view_match is not None:
            view, residual = view_match
            plan = P.ViewScan(view, residual)
            plan = self._finalize(plan, query)
            self.cost_model.annotate(plan, memo, query)
            return plan
        if order is None:
            order = self._order(query, memo)
        elif set(order) != set(query.tables):
            raise PlanError("explicit order must cover the query's tables")
        return self._assemble(query, order, memo, catalog)

    def _order(self, query, memo):
        """The left-deep order DP picks."""
        if len(query.tables) == 1:
            return [query.tables[0]]
        return dp_order(query, memo, self.cost_model)

    def _assemble(self, query, order, memo, catalog):
        """Access paths + left-deep joins + finalize + cost annotation."""
        plan = self._access_path(query, order[0], memo, catalog)
        joined = [order[0]]
        for t in order[1:]:
            right = self._access_path(query, t, memo, catalog)
            edges = query.edges_between(joined, t)
            if edges:
                left_rows = memo.estimate_subset(query, joined)
                right_rows = memo.estimate_table(query, t)
                out_rows = memo.estimate_subset(query, joined + [t])
                kind, __ = self.cost_model.choose_join(
                    left_rows, right_rows, out_rows
                )
                if kind == "hash":
                    plan = P.HashJoin(plan, right, edges)
                else:
                    plan = P.NestedLoopJoin(plan, right, edges)
            else:
                plan = P.CrossJoin(plan, right)
            joined.append(t)
        plan = self._finalize(plan, query)
        self.cost_model.annotate(plan, memo, query)
        return plan

    # ------------------------------------------------------------------
    def _access_path(self, query, table, memo, catalog):
        """Choose SeqScan vs IndexScan for one base table."""
        preds = query.predicates_on(table)
        if not preds:
            return P.SeqScan(table, preds)
        table_rows = max(1.0, float(catalog.table(table).n_rows))
        best = None
        for pred in preds:
            if pred.op == "!=" or _kind_mismatch(catalog, pred):
                continue
            idx = catalog.index_on(
                table, pred.column, include_hypothetical=self.include_hypothetical
            )
            if idx is None:
                continue
            matching = memo.estimate_table(
                _SinglePredicateView(query, table, [pred]), table
            )
            if best is None or matching < best[0]:
                best = (matching, pred, idx)
        if best is None:
            return P.SeqScan(table, preds)
        matching, pred, idx = best
        seq_cost = self.cost_model.seq_scan(table_rows)
        idx_cost = self.cost_model.index_scan(matching)
        if idx_cost >= seq_cost:
            return P.SeqScan(table, preds)
        residual = [p for p in preds if p is not pred]
        return P.IndexScan(table, idx.name, pred, residual)

    def _output_columns(self, query, catalog):
        if query.projections:
            return list(query.projections)
        cols = []
        for t in query.tables:
            schema = catalog.table(t).schema
            cols.extend((t, c.name) for c in schema.columns)
        return cols

    def _finalize(self, plan, query):
        """Attach aggregate / sort / project / limit operators.

        Sort runs before projection so that ORDER BY keys absent from the
        select list are still available to the sort operator.
        """
        if query.aggregates or query.group_by:
            plan = P.HashAggregate(plan, query.group_by, query.aggregates)
        else:
            if query.order_by is not None:
                key, descending = query.order_by
                plan = P.Sort(plan, key, descending)
            if query.projections:
                plan = P.Project(plan, query.projections,
                                 distinct=query.distinct)
        if query.limit is not None:
            plan = P.Limit(plan, query.limit)
        return plan
