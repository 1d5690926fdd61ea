"""Scan operators: SeqScan, IndexScan, ViewScan, EmptyResult.

Scans are leaves — they read base-table (or materialized-view) storage
into a relation and apply pushed-down predicates. SeqScan works
segment-at-a-time: each row group's zone maps are classified
against the pushed-down predicates (skipping groups that provably match
nothing), surviving groups evaluate the predicates in *encoded* space
(one dictionary/run-space conjunction per column), and only the columns
the plan reads (:func:`~repro.engine.fusion.plan_reads`) are decoded,
only for surviving rows; an IndexScan likewise gathers only those
columns at its probed row ids. Pruning never changes rows, order, or charged
work; the flat-layout results are reproduced bit for bit.
:func:`filter_groups` and :func:`gather` are the one scan loop, shared
with the fused pipeline's late-materializing tail over a SeqScan.
"""

from time import perf_counter

import numpy as np

from repro.common import ExecutionError
from repro.engine import plans as P
from repro.engine.operators.base import (
    ColumnarRelation,
    PhysicalOperator,
    register,
    scan_columns,
)
from repro.engine.operators.kernels import predicate_mask
from repro.engine.segments import PARTIAL, PRUNED


def segment_filter(group, predicates):
    """Survivor row ids of one row group under a predicate conjunction.

    Returns ``(ids, was_pruned)``: ``ids`` is ``None`` when every row
    survives (no decoding needed to know that), otherwise an int64 array
    of group-local row ids; ``was_pruned`` marks a zone-map skip. A group
    is only skipped when no predicate is hazardous to leave unevaluated
    (see :meth:`ZoneMap.range_hazard`) — hazardous predicates are always
    evaluated so the segmented path raises exactly where the flat path
    would. The residual predicates are grouped by column, and each
    column's conjunction is one :meth:`ColumnSegment.mask` call.
    """
    residual = {}
    hazards = []
    pruned = False
    for p in predicates:
        key, pred = p.column, (p.op, p.value)
        zone = group.segments[key].zone_map
        if zone.range_hazard(*pred):
            residual.setdefault(key, []).append(pred)
            hazards.append((key, pred))
            continue
        verdict = zone.classify(*pred)
        if verdict == PRUNED:
            pruned = True
        elif verdict == PARTIAL:
            residual.setdefault(key, []).append(pred)
        # FULL: every row provably passes — the predicate drops out.
    if pruned:
        for key, pred in hazards:
            group.segments[key].mask([pred])
        return np.empty(0, dtype=np.int64), True
    mask = None
    for key, conjunction in residual.items():
        m = group.segments[key].mask(conjunction)
        mask = m if mask is None else mask & m
    if mask is None:
        return None, False
    return mask.nonzero()[0], False


def filter_groups(table, predicates):
    """Zone-classify and mask every row group against ``predicates``.

    Returns ``(n_groups, survivors, n_rows, n_pruned)``; ``survivors`` is
    a list of ``(group, ids)`` pairs in table order (``ids=None`` means
    the whole group survives, proven by its zone maps alone) and
    ``n_rows`` counts their rows.
    """
    groups = table.row_groups()
    survivors = []
    n_rows = 0
    n_pruned = 0
    for g in groups:
        ids, was_pruned = segment_filter(g, predicates)
        if was_pruned:
            n_pruned += 1
            continue
        if ids is not None and len(ids) == 0:
            continue
        survivors.append((g, ids))
        n_rows += g.n_rows if ids is None else len(ids)
    return len(groups), survivors, n_rows, n_pruned


def gather(table, survivors, keys):
    """Concatenated arrays for columns ``keys`` over the surviving rows.

    Decodes only the named columns, only within surviving groups, and
    concatenates in table order — bit-identical to masking the flat
    columns. Returns ``(arrays, (bytes_decoded, seconds))``, the bytes
    being the encoded footprint of every segment materialized.
    """
    t0 = perf_counter()
    parts = [[] for __ in keys]
    nbytes = 0
    for g, ids in survivors:
        for j, k in enumerate(keys):
            seg = g.segments[k]
            parts[j].append(seg.decode() if ids is None else seg.take(ids))
            nbytes += seg.encoded_bytes()
    out = []
    for k, p in zip(keys, parts):
        if not p:
            dtype = table.schema.column(k).dtype.numpy_dtype
            out.append(np.empty(0, dtype=dtype))
        elif len(p) == 1:
            out.append(p[0])
        else:
            out.append(np.concatenate(p))
    return out, (nbytes, perf_counter() - t0)


#: Where an index probe's window starts and stops, per op: the
#: ``searchsorted`` side of each end, ``None`` for the open end.
WINDOWS = {"=": ("left", "right"), "<": (None, "left"),
           "<=": (None, "right"), ">": ("right", None),
           ">=": ("left", None)}


def index_row_ids(catalog, name, index_name, pred, window):
    """``(table, row_ids)``: table ``name`` in ``catalog`` and the sorted
    NumPy row ids an index probe of ``pred`` selects.

    An index holds no data of its own: the probe is a binary search on
    the table snapshot's cached sort of the indexed column, so it always
    matches the rows it runs over. ``index_name`` is looked up in the
    run's ``catalog``, so a snapshot taken before the index was created
    raises; ``window`` is ``WINDOWS[pred.op]`` (``None``: no window).
    """
    idx = catalog.index(index_name)
    if idx is None or idx.table != name:
        raise ExecutionError("index %r not found" % (index_name,))
    if idx.hypothetical:
        raise ExecutionError(
            "cannot execute a plan using hypothetical index %r" % (idx.name,)
        )
    table = catalog.table(name)
    keys, row_ids = table.sorted_column(idx.column)
    if window is None:
        raise ExecutionError("index scan cannot evaluate %r" % (pred,))
    start, stop = window
    ids = row_ids[
        0 if start is None else keys.searchsorted(pred.value, start):
        None if stop is None else keys.searchsorted(pred.value, stop)
    ].copy()
    ids.sort()
    return table, ids


@register(P.SeqScan)
class SeqScanOp(PhysicalOperator):
    """Full table scan applying pushed-down predicates."""

    def evaluate(self, run, step, inputs):
        name, = step.args
        table = run.catalog.table(name).snapshot()
        run.charge(step.slot, run.cost_model.seq_scan(table.n_rows))
        n_groups, survivors, n, n_pruned = filter_groups(
            table, run.nodes[step.slot].predicates)
        keys, labels = scan_columns(table.schema, run.reads)
        arrays, decoded = gather(table, survivors, keys)
        run.record_segments(step.slot, n_groups, n_pruned, *decoded)
        return ColumnarRelation(labels, arrays, n_rows=n)


@register(P.IndexScan)
class IndexScanOp(PhysicalOperator):
    """Index probe/range scan plus residual predicates."""

    def evaluate(self, run, step, inputs):
        name, index_name, window = step.args
        node = run.nodes[step.slot]
        table, row_ids = index_row_ids(
            run.catalog, name, index_name, node.predicate, window)
        keys, labels = scan_columns(table.schema, run.reads)
        data = table.column_arrays(row_ids, keys)
        rel = ColumnarRelation(labels, [data[k] for k in keys],
                               n_rows=len(row_ids))
        run.charge(step.slot, run.cost_model.index_scan(len(row_ids)))
        if node.residual:
            rel = rel.take(predicate_mask(rel, node.residual))
        return rel


@register(P.ViewScan)
class ViewScanOp(PhysicalOperator):
    """Scan of a materialized view with residual predicates."""

    def evaluate(self, run, step, inputs):
        node = run.nodes[step.slot]
        view_table = node.view.table
        columns = []
        arrays = []
        for name in view_table.schema.column_names:
            t, __, c = name.partition("__")
            columns.append((t, c))
            arrays.append(view_table.column_array(name))
        run.charge(step.slot, run.cost_model.seq_scan(view_table.n_rows))
        rel = ColumnarRelation(columns, arrays, n_rows=view_table.n_rows)
        if node.residual:
            rel = rel.take(predicate_mask(rel, node.residual))
        return rel


@register(P.EmptyResult)
class EmptyResultOp(PhysicalOperator):
    """Zero-row result (contradictory predicates, LIMIT 0)."""

    def evaluate(self, run, step, inputs):
        columns = run.nodes[step.slot].columns
        arrays = [np.empty(0, dtype=object) for __ in columns]
        return ColumnarRelation(columns, arrays, n_rows=0)
