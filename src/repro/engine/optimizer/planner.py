"""The planner: access-path selection + join ordering + plan assembly.

``Planner`` is deliberately pluggable along the three axes the learned
components replace:

* the **cardinality estimator** (traditional / sampling / learned MSCN-lite),
* the **join enumerator** (``"dp"``, ``"greedy"``, ``"random"``, or an
  explicit order supplied by an RL/MCTS agent),
* the **cost model** (whose constants the knob tuner moves).

That pluggability is the point: every AI4DB optimization experiment is
"swap one axis, hold the rest fixed, measure executed work".

Each planning call wraps the estimator in one
:class:`~repro.engine.optimizer.cardinality.EstimateMemo`, shared by every
arm's enumerator, access paths, assembly and cost annotation, so
``optimizer.plan.ms`` pays each distinct sub-query estimate once.
"""

from numbers import Number

from repro.common import CatalogError, PlanError
from repro.engine import plans as P
from repro.engine.optimizer.cardinality import TraditionalEstimator
from repro.engine.optimizer.cost import CostModel, _SinglePredicateView
from repro.engine.optimizer.hints import (
    DEFAULT_ARM,
    EXHAUSTIVE_MAX_TABLES,
    PlanCandidate,
)
from repro.engine.optimizer.join_enum import dp_left_deep, greedy_order, random_order
from repro.engine.optimizer.ues import bound_cost, ues_order
from repro.engine.types import DataType

_ENUMERATORS = {"dp": dp_left_deep, "greedy": greedy_order}


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
        enumerator: ``"dp"``, ``"greedy"`` or ``"random"``.
        use_views: consider matching materialized views.
        use_indexes: consider index scans as access paths.
        include_hypothetical: treat what-if indexes as usable (for advisor
            costing only — executing such a plan raises).
        seed: seed for the random enumerator.
    """

    def __init__(
        self,
        catalog,
        estimator=None,
        cost_model=None,
        enumerator="dp",
        use_views=True,
        use_indexes=True,
        include_hypothetical=False,
        seed=0,
    ):
        self.catalog = catalog
        self.estimator = estimator or TraditionalEstimator(catalog)
        self.cost_model = cost_model or CostModel()
        if enumerator not in ("dp", "greedy", "random"):
            raise PlanError("enumerator must be dp, greedy, or random")
        self.enumerator = enumerator
        self.use_views = use_views
        self.use_indexes = use_indexes
        self.include_hypothetical = include_hypothetical
        self.seed = seed

    # ------------------------------------------------------------------
    def plan(self, query, order=None):
        """Produce an annotated physical plan for ``query``.

        Args:
            query: a :class:`~repro.engine.query.ConjunctiveQuery`.
            order: optional explicit left-deep join order (list of table
                names); when given, enumeration is skipped — this is the
                hook the learned join-order agents use.
        """
        return self.plan_with_hints(query, DEFAULT_ARM, order=order)

    def plan_with_hints(self, query, hints, order=None):
        """Build a plan under a :class:`~repro.engine.optimizer.hints.
        HintSet` — the candidate-generation entry point.

        The hint set's ``join_order`` strategy picks the order
        (``"default"``: this planner's configured enumerator) and
        ``use_indexes`` overrides access-path selection. An explicit
        ``order`` beats the strategy.
        """
        return self._plan(query, hints, order,
                          self.estimator.planning_scope(query))

    def _plan(self, query, hints, order, memo):
        check_range_types(self.catalog, query)
        if query.limit == 0:
            plan = P.EmptyResult(self._output_columns(query))
            self.cost_model.annotate(plan, memo, query)
            return plan
        view_match = self.catalog.matching_view(query) if self.use_views else None
        if view_match is not None:
            view, residual = view_match
            plan = P.ViewScan(view, residual)
            plan = self._finalize(plan, query)
            self.cost_model.annotate(plan, memo, query)
            return plan
        if order is None:
            order = self._hint_order(query, hints, memo)
        elif {t.lower() for t in order} != {t.lower() for t in query.tables}:
            raise PlanError("explicit order must cover the query's tables")
        return self._assemble(query, order, memo, use_indexes=hints.use_indexes)

    def plan_candidates(self, query, arms, order=None):
        """One :class:`~repro.engine.optimizer.hints.PlanCandidate` per arm.

        Each candidate carries the arm's plan and the cost model's
        estimate for it; the UES arm additionally carries its pessimistic
        :func:`~repro.engine.optimizer.ues.bound_cost` guarantee (the
        regret guard's anchor). All arms share one estimate memo, which
        is dropped when the call returns. Unknown tables surface as
        :class:`~repro.common.CatalogError` — never a raw ``KeyError`` —
        so dropped-table races fail uniformly across all selectors.
        """
        memo = self.estimator.planning_scope(query)
        candidates = []
        for hints in arms:
            try:
                plan = self._plan(query, hints, order, memo)
            except KeyError as exc:  # defensive: unify on CatalogError
                raise CatalogError(
                    "planning failed for arm %r: unknown catalog object %s"
                    % (hints.name, exc)
                )
            bound = None
            if hints.join_order == "ues" and len(query.tables) > 0:
                __, ___, bound = bound_cost(
                    self.catalog, query, self.cost_model
                )
            candidates.append(PlanCandidate(
                arm=hints.name,
                hints=hints,
                plan=plan,
                est_cost=self._plan_cost(plan),
                bound=bound,
            ))
        return candidates

    def _hint_order(self, query, hints, memo):
        """The left-deep order a hint set's join-order strategy produces."""
        if len(query.tables) == 1:
            return [query.tables[0]]
        strategy = hints.join_order
        if strategy == "ues":
            return ues_order(self.catalog, query)[0]
        if strategy == "exhaustive":
            strategy = ("dp" if len(query.tables) <= EXHAUSTIVE_MAX_TABLES
                        else "greedy")
        elif strategy == "default":  # whatever this planner is configured with
            strategy = self.enumerator
        if strategy == "random":
            return random_order(query, memo, self.cost_model, seed=self.seed)[0]
        return _ENUMERATORS[strategy](query, memo, self.cost_model)[0]

    @staticmethod
    def _plan_cost(plan):
        """A plan's whole-tree cost estimate (floored at 1.0)."""
        for value in (plan.est_cost, plan.est_rows):
            if value is not None:
                return max(1.0, float(value))
        return 1.0

    def _assemble(self, query, order, memo, use_indexes=None):
        """Access paths + left-deep joins + finalize + cost annotation.

        ``use_indexes=None`` inherits the planner's setting.
        """
        plan = self._access_path(query, order[0], memo, use_indexes)
        joined = [order[0]]
        for t in order[1:]:
            right = self._access_path(query, t, memo, use_indexes)
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
    def _access_path(self, query, table, memo, use_indexes=None):
        """Choose SeqScan vs IndexScan for one base table.

        ``use_indexes`` overrides the planner-level setting per call (the
        hint-set axis); ``None`` inherits it.
        """
        allow_indexes = (
            self.use_indexes if use_indexes is None else use_indexes
        )
        preds = query.predicates_on(table)
        if not (allow_indexes and preds):
            return P.SeqScan(table, preds)
        table_rows = max(1.0, float(self.catalog.table(table).n_rows))
        best = None
        for pred in preds:
            if pred.op == "!=" or _kind_mismatch(self.catalog, pred):
                continue
            idx = self.catalog.index_on(
                table, pred.column, include_hypothetical=self.include_hypothetical
            )
            if idx is None:
                continue
            if idx.kind == "hash" and pred.op != "=":
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

    def _output_columns(self, query):
        if query.projections:
            return list(query.projections)
        cols = []
        for t in query.tables:
            schema = self.catalog.table(t).schema
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
