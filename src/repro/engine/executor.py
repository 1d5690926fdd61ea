"""Plan executor: a thin driver over the physical-operator layer.

Interprets a physical plan over the catalog, producing rows *and* an exact
work measurement. Work is computed with the same formulas as the analytic
cost model but on the **actual** cardinalities observed at run time, so:

* measured work == cost-model output under a perfect estimator, and
* the gap between a plan's ``est_cost`` and its measured work is exactly
  the damage done by cardinality misestimation — the quantity the learned
  optimizer experiments report.

The operator implementations live in :mod:`repro.engine.operators`, one
module per operator family, each exposing one columnar ``evaluate``
method behind the uniform
:class:`~repro.engine.operators.PhysicalOperator` interface. The
executor resolves ``plan node → operator`` and supplies the evaluation
context: catalog, cost model, work accounting, and per-node actual-row
counters.

There is one way a plan runs: its tail is fused
(:func:`~repro.engine.fusion.fuse_plan`) and every node is evaluated
columnar — NumPy arrays end-to-end, rows materialized once at the top.
Work is charged from observed cardinalities, never from implementation
details, which is what keeps "cost gap == misestimation damage" true;
the same cardinalities are the per-node ``actual_rows`` counters that
feed the EXPLAIN ANALYZE view and the optimizer's cardinality-feedback
loop. What the right rows, order, work and counters *are* is specified
by the tuple-at-a-time reference executor the test suite races this one
against (``tests/reference_executor.py``); it is not shipped.

Results are fully materialized (these are analytics-scale experiments, not
a streaming engine).
"""

import threading
import time

from repro.engine.fusion import fuse_plan
from repro.engine.operators import ColumnarRelation, operator_for
from repro.engine.operators.kernels import (
    cross_indices,
    join_indices,
    predicate_mask,
)
from repro.engine.optimizer.cost import CostModel
from repro.engine.telemetry import ExecutionTelemetry, q_error


class ExecutionResult:
    """Executor output: the result relation plus the work accounting."""

    def __init__(self, relation, work, operator_work, telemetry=None):
        self.relation = relation
        self.work = work
        self.operator_work = operator_work
        self._telemetry = telemetry

    @property
    def telemetry(self):
        """Per-run :class:`ExecutionTelemetry` (the supported accessor —
        callers should read it here rather than reaching into the
        executor's per-run state)."""
        return self._telemetry

    @property
    def rows(self):
        """Result rows (list of tuples)."""
        return self.relation.rows

    @property
    def columns(self):
        """Result column labels."""
        return self.relation.columns

    def __repr__(self):
        return "ExecutionResult(rows=%d, work=%.1f)" % (len(self.rows), self.work)


class Executor:
    """Executes physical plans against a catalog.

    The executor doubles as the *evaluation context* handed to every
    :class:`~repro.engine.operators.PhysicalOperator`: operators call
    :meth:`run` to evaluate children, :meth:`charge` for work
    accounting, and :meth:`count` for actual-row attribution.

    Args:
        catalog: the :class:`~repro.engine.catalog.Catalog`.
        cost_model: the :class:`CostModel` whose constants weight the work
            accounting (pass the knob-derived model so knob settings change
            measured work, closing the tuning feedback loop).
        pruning_enabled: whether scans may skip whole column segments
            whose zone maps prove a pushed-down predicate matches no
            (or every) row. Pruning never changes rows, order, or work —
            only wall time and the ``segments_pruned``/``bytes_decoded``
            telemetry.

    The default is :class:`~repro.engine.config.EngineConfig`'s; the
    executor never reads the environment — ``Database`` hands it
    ``config.zone_map_pruning``.
    """

    def __init__(self, catalog, cost_model=None, pruning_enabled=True):
        self._catalog = catalog
        self.cost_model = cost_model or CostModel()
        self.pruning_enabled = bool(pruning_enabled)
        # Per-run accounting lives in a thread-local so concurrent
        # ``execute()`` calls on one shared Executor (the pipeline
        # thread-safety tests do this) never mix their work counters.
        self._tls = threading.local()

    # -- per-run state (thread-local) -----------------------------------
    @property
    def catalog(self):
        """The catalog operators read from — per-run overridable.

        Normally the live :class:`~repro.engine.catalog.Catalog` the
        executor was built with; during an ``execute(plan, catalog=...)``
        run it resolves (per thread) to the caller-supplied
        :class:`~repro.engine.catalog.CatalogSnapshot`, which is how
        snapshot-pinned reads execute through the shared operator layer.
        """
        override = getattr(self._tls, "catalog", None)
        return self._catalog if override is None else override

    @catalog.setter
    def catalog(self, value):
        self._catalog = value

    @property
    def _work(self):
        return self._tls.work

    @_work.setter
    def _work(self, value):
        self._tls.work = value

    @property
    def _op_work(self):
        return self._tls.op_work

    @_op_work.setter
    def _op_work(self, value):
        self._tls.op_work = value

    @property
    def _telemetry(self):
        return self._tls.telemetry

    @_telemetry.setter
    def _telemetry(self, value):
        self._tls.telemetry = value

    @property
    def _child_seconds(self):
        return self._tls.child_seconds

    @_child_seconds.setter
    def _child_seconds(self, value):
        self._tls.child_seconds = value

    @property
    def _node_rows(self):
        return self._tls.node_rows

    @_node_rows.setter
    def _node_rows(self, value):
        self._tls.node_rows = value

    def execute(self, plan, catalog=None):
        """Run ``plan``; returns an :class:`ExecutionResult`.

        The plan's tail is first run through
        :func:`~repro.engine.fusion.fuse_plan`. The rewrite is
        per-execution (the caller's plan object — and any plan cache
        holding it — is never mutated), and the fused pass charges work
        through the original operator nodes, so accounting stays in
        terms of the plan the caller handed in.

        ``catalog`` pins this one run to a different read surface —
        typically a :class:`~repro.engine.catalog.CatalogSnapshot` — via
        a thread-local override of :attr:`catalog`, so concurrent runs on
        a shared executor can mix live and snapshot reads freely.

        After the run, per-node actual output cardinalities (attributed
        to the *original* plan's nodes even under fusion) are folded into
        the telemetry as ``node_stats`` — the est-vs-actual view behind
        EXPLAIN ANALYZE and the optimizer's cardinality feedback — along
        with the version vector of the catalog state the run read.
        """
        original = plan
        plan, fused_ops = fuse_plan(plan)
        self._tls.catalog = catalog
        try:
            self._work = 0.0
            self._op_work = {}
            self._telemetry = ExecutionTelemetry()
            self._telemetry.fused_ops = fused_ops
            self._child_seconds = [0.0]
            self._node_rows = {}
            start = time.perf_counter()
            relation = self.run(plan).to_relation()
            self._telemetry.total_seconds = time.perf_counter() - start
            self._telemetry.total_work = self._work
            self._telemetry.set_node_stats(self._collect_node_stats(original))
            version_vector = getattr(self.catalog, "version_vector", None)
            if version_vector is not None:
                self._telemetry.catalog_versions = dict(version_vector())
            return ExecutionResult(
                relation, self._work, dict(self._op_work), self._telemetry
            )
        finally:
            self._tls.catalog = None

    def _collect_node_stats(self, original):
        """Per-node ``{op, est_rows, actual_rows, q_error}`` in preorder."""
        rows = self._node_rows
        stats = []
        for node in original.walk():
            actual = rows.get(id(node))
            est = node.est_rows
            stats.append({
                "op": node.op_name,
                "est_rows": est,
                "actual_rows": actual,
                "q_error": q_error(est, actual),
            })
        return stats

    # -- evaluation context (called by operators) ------------------------
    def run(self, node):
        """Evaluate ``node`` via its registered operator.

        Also times the node (self-time, excluding children) and
        auto-records its actual output cardinality; fused pipelines then
        override the counters of the operators they absorbed via
        :meth:`count`, so every original plan node ends up with the
        cardinality it would have produced unfused.
        """
        op = operator_for(node)
        self._child_seconds.append(0.0)
        t0 = time.perf_counter()
        out = op.evaluate(self, node)
        elapsed = time.perf_counter() - t0
        child_time = self._child_seconds.pop()
        self._child_seconds[-1] += elapsed
        self._telemetry.record(
            node.op_name, rows=len(out), seconds=elapsed - child_time
        )
        self.count(node, len(out))
        return out

    def charge(self, node, amount):
        """Charge ``amount`` of work to ``node``'s operator family."""
        self._work += amount
        key = node.op_name
        self._op_work[key] = self._op_work.get(key, 0.0) + amount

    def count(self, node, n):
        """Record ``node``'s actual output cardinality (assignment, not
        accumulation — later, more specific attributions win).

        Resolves the node's ``origin`` back-reference first, so counts
        against the bare scan copies :func:`~repro.engine.fusion.fuse_plan`
        creates land on the original plan's nodes.
        """
        origin = getattr(node, "origin", node)
        self._node_rows[id(origin)] = int(n)

    def record_leaf(self, node, n):
        """Book-keep a leaf a fused pipeline evaluated without ``run``.

        The late-materializing fused path consumes a scan's segments
        directly instead of recursing into :meth:`run`, so it records the
        scan's telemetry row count (self-time is folded into the fused
        operator) and cardinality here — exactly what ``run`` would have
        recorded for the same output size.
        """
        self._telemetry.record(node.op_name, rows=int(n), seconds=0.0)
        self.count(node, n)

    def record_segments(self, total, pruned, bytes_decoded):
        """Accumulate one scan's segment-pruning counters."""
        self._telemetry.record_segments(total, pruned, bytes_decoded)


def count_join_rows(catalog, query, tables):
    """True cardinality of the filtered join over ``tables`` (oracle helper).

    Used by :class:`~repro.engine.optimizer.cardinality.TrueCardinalityEstimator`
    and by tests. Joins columnar batches with the vectorized kernels in a
    connectivity-respecting order and does not charge any work accounting.
    """
    wanted = {x.lower() for x in tables}
    names = [t for t in query.tables if t.lower() in wanted]
    if not names:
        return 0

    def filtered(table_name):
        tbl = catalog.table(table_name)
        columns = [(tbl.name, c.name) for c in tbl.schema.columns]
        arrays = [tbl.column_array(c.name) for c in tbl.schema.columns]
        rel = ColumnarRelation(columns, arrays, n_rows=tbl.n_rows)
        preds = query.predicates_on(table_name)
        if preds:
            rel = rel.take(predicate_mask(rel, preds))
        return rel

    current = filtered(names[0])
    joined = [names[0]]
    remaining = names[1:]
    while remaining:
        nxt = None
        for t in remaining:
            if query.edges_between(joined, t):
                nxt = t
                break
        if nxt is None:
            nxt = remaining[0]
        rel_t = filtered(nxt)
        edges = query.edges_between(joined, nxt)
        if edges:
            current_index = current._index
            left_pos, right_pos = [], []
            for e in edges:
                if (e.left_table.lower(), e.left_column.lower()) in current_index:
                    left_pos.append(current.col_pos(e.left_table, e.left_column))
                    right_pos.append(rel_t.col_pos(e.right_table, e.right_column))
                else:
                    left_pos.append(current.col_pos(e.right_table, e.right_column))
                    right_pos.append(rel_t.col_pos(e.left_table, e.left_column))
            il, ir = join_indices(
                [current.arrays[p] for p in left_pos],
                [rel_t.arrays[p] for p in right_pos],
            )
        else:
            il, ir = cross_indices(len(current), len(rel_t))
        current = ColumnarRelation(
            current.columns + rel_t.columns,
            [a[il] for a in current.arrays] + [a[ir] for a in rel_t.arrays],
            n_rows=len(il),
        )
        joined.append(nxt)
        remaining.remove(nxt)
    return len(current)
