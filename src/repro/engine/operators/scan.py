"""Scan operators: SeqScan, IndexScan, ViewScan, EmptyResult.

Scans are leaves — they read base-table (or materialized-view) storage
into a relation and apply pushed-down predicates. SeqScan works
segment-at-a-time: each row group's zone maps are classified
against the pushed-down predicates (skipping groups that provably match
nothing), surviving groups evaluate the predicates in *encoded* space
(dictionary codes / run values), and only surviving rows are decoded.
Pruning never changes rows, order, or charged work; the flat-layout
results are reproduced bit for bit.
"""

from time import perf_counter

import numpy as np

from repro.common import ExecutionError
from repro.engine import plans as P
from repro.engine.operators.base import (
    ColumnarRelation,
    PhysicalOperator,
    register,
)
from repro.engine.operators.kernels import predicate_mask
from repro.engine.segments import PARTIAL, PRUNED


def v_table_relation(ctx, table_name, row_ids=None):
    """``(table, ColumnarRelation)`` of a base table's column arrays."""
    table = ctx.catalog.table(table_name)
    columns = [(table.name, c.name) for c in table.schema.columns]
    data = table.column_arrays(row_ids)
    arrays = [data[c.name.lower()] for c in table.schema.columns]
    n = table.n_rows if row_ids is None else len(row_ids)
    return table, ColumnarRelation(columns, arrays, n_rows=n)


def segment_filter(group, predicates):
    """Survivor row ids of one row group under a predicate conjunction.

    Returns ``(ids, was_pruned)``: ``ids`` is ``None`` when every row
    survives (no decoding needed to know that), otherwise an int64 array
    of group-local row ids; ``was_pruned`` marks a zone-map skip. A group
    is only skipped when no predicate is hazardous to leave unevaluated
    (see :meth:`ZoneMap.range_hazard`) — hazardous predicates are always
    evaluated so the segmented path raises exactly where the flat path
    would.
    """
    residual = []
    hazards = []
    pruned = False
    for p in predicates:
        seg = group.segments[p.column.lower()]
        zone = seg.zone_map
        if zone.range_hazard(p.op, p.value):
            residual.append(p)
            hazards.append(p)
            continue
        verdict = zone.classify(p.op, p.value)
        if verdict == PRUNED:
            pruned = True
        elif verdict == PARTIAL:
            residual.append(p)
        # FULL: every row provably passes — the predicate drops out.
    if pruned:
        for p in hazards:
            group.segments[p.column.lower()].mask(p.op, p.value)
        return np.empty(0, dtype=np.int64), True
    mask = None
    for p in residual:
        m = group.segments[p.column.lower()].mask(p.op, p.value)
        mask = m if mask is None else mask & m
    if mask is None:
        return None, False
    return np.flatnonzero(mask), False


def gather_group(group, keys, ids):
    """Materialize ``keys`` columns of one group's surviving rows.

    Returns ``(arrays, bytes_decoded)``; ``ids=None`` decodes the whole
    group. ``bytes_decoded`` is the modeled encoded footprint of every
    segment that was materialized.
    """
    segs = [group.segments[k] for k in keys]
    if ids is None:
        arrays = [s.decode() for s in segs]
    else:
        arrays = [s.take(ids) for s in segs]
    return arrays, sum(s.encoded_bytes() for s in segs)


def index_row_ids(ctx, node):
    """Resolve an IndexScan's probe to a sorted NumPy row-id array.

    An index holds no data of its own: the probe is a binary search on
    the table snapshot's cached sort of the indexed column, so it always
    matches the rows it runs over.
    """
    idx = None
    for cand in ctx.catalog.indexes(node.table):
        if cand.name == node.index_name:
            idx = cand
            break
    if idx is None:
        raise ExecutionError("index %r not found" % (node.index_name,))
    if idx.hypothetical:
        raise ExecutionError(
            "cannot execute a plan using hypothetical index %r" % (idx.name,)
        )
    pred = node.predicate
    if idx.kind == "hash" and pred.op != "=":
        raise ExecutionError("hash index supports only equality probes")
    keys, row_ids = ctx.catalog.table(node.table).sorted_column(idx.column)
    lo = np.searchsorted(keys, pred.value, "left")
    hi = np.searchsorted(keys, pred.value, "right")
    window = {"=": (lo, hi), "<": (0, lo), "<=": (0, hi),
              ">": (hi, None), ">=": (lo, None)}.get(pred.op)
    if window is None:
        raise ExecutionError("index scan cannot evaluate %r" % (pred,))
    return np.sort(row_ids[slice(*window)])


@register(P.SeqScan)
class SeqScanOp(PhysicalOperator):
    """Full table scan applying pushed-down predicates."""

    def evaluate(self, ctx, node):
        table = ctx.catalog.table(node.table)
        ctx.charge(node, ctx.cost_model.seq_scan(table.n_rows))
        columns = [(table.name, c.name) for c in table.schema.columns]
        keys = [c.name.lower() for c in table.schema.columns]
        groups = table.row_groups()
        survivors = []
        n = n_pruned = nbytes = 0
        decoding = 0.0
        for g in groups:
            ids, was_pruned = segment_filter(g, node.predicates)
            if was_pruned:
                n_pruned += 1
                continue
            if ids is not None and len(ids) == 0:
                continue
            t0 = perf_counter()
            arrays, nb = gather_group(g, keys, ids)
            decoding += perf_counter() - t0
            survivors.append(arrays)
            n += g.n_rows if ids is None else len(ids)
            nbytes += nb
        ctx.record_segments(node, len(groups), n_pruned, nbytes, decoding)
        arrays = []
        for j, col in enumerate(table.schema.columns):
            parts = [group_arrays[j] for group_arrays in survivors]
            if not parts:
                arrays.append(np.empty(0, dtype=col.dtype.numpy_dtype))
            elif len(parts) == 1:
                arrays.append(parts[0])
            else:
                arrays.append(np.concatenate(parts))
        return ColumnarRelation(columns, arrays, n_rows=n)


@register(P.IndexScan)
class IndexScanOp(PhysicalOperator):
    """Index probe/range scan plus residual predicates."""

    def evaluate(self, ctx, node):
        row_ids = index_row_ids(ctx, node)
        __, rel = v_table_relation(ctx, node.table, row_ids)
        ctx.charge(node, ctx.cost_model.index_scan(len(row_ids)))
        if node.residual:
            rel = rel.take(predicate_mask(rel, node.residual))
        return rel


@register(P.ViewScan)
class ViewScanOp(PhysicalOperator):
    """Scan of a materialized view with residual predicates."""

    def evaluate(self, ctx, node):
        view_table = node.view.table
        columns = []
        arrays = []
        for name in view_table.schema.column_names:
            t, __, c = name.partition("__")
            columns.append((t, c))
            arrays.append(view_table.column_array(name))
        ctx.charge(node, ctx.cost_model.seq_scan(view_table.n_rows))
        rel = ColumnarRelation(columns, arrays, n_rows=view_table.n_rows)
        if node.residual:
            rel = rel.take(predicate_mask(rel, node.residual))
        return rel


@register(P.EmptyResult)
class EmptyResultOp(PhysicalOperator):
    """Zero-row result (contradictory predicates, LIMIT 0)."""

    def evaluate(self, ctx, node):
        arrays = [np.empty(0, dtype=object) for __ in node.columns]
        return ColumnarRelation(node.columns, arrays, n_rows=0)
