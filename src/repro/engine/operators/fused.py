"""The fused Filter→Project/Aggregate(→Limit) pipeline operator.

Evaluates a :class:`~repro.engine.plans.FusedPipelineOp` tail in one pass
over the source relation: predicate mask, gather of only the columns the
tail reads, aggregation/dedup/limit — without materializing the filtered
intermediate. When the source is a bare ``SeqScan`` the operator goes
further and *late-materializes*: predicates are pushed into
the table's row groups (zone-map pruning plus encoded-space masks) and
only the columns the tail reads are decoded, only for surviving
segments. A TEXT GROUP BY key is never gathered from its dict segments:
it is coded from their dictionaries, and each group outputs the entry
that coded it — equal TEXT values (``str``/``None``) are identical, so
that is the group's first-row value. Its other segments are gathered to
be coded row by row, and a key an aggregate reads is gathered whole. An
INT key is coded from dictionaries only if every surviving segment has one.
Work is charged through the absorbed operator nodes with
the same cardinalities and in the same order as operator-at-a-time
evaluation of the unfused plan, so ``work``/``operator_work`` are
bit-identical to the reference executor's (which never fuses).

Actual-row attribution follows the same rule: every absorbed node is
credited the output cardinality it would have produced unfused — the
source scan whose pushed predicates were lifted into the fused op gets
the survivor count, Project gets its pre-limit output (full dedup count
under DISTINCT), HashAggregate gets the pre-limit group count, and
Limit gets the final row count. The differential fuzzer compares these
per-node counters against the reference executor's.
"""

import numpy as np

from repro.engine import plans as P
from repro.engine.operators.base import (
    ColumnarRelation,
    PhysicalOperator,
    register,
)
from repro.engine.operators.kernels import (
    agg_input_columns,
    column_codes,
    factorize,
    predicate_mask,
)
from repro.engine.operators.aggregate import aggregate_columnar
from repro.engine.operators.scan import filter_groups, gather
from repro.engine.segments import object_codes
from repro.engine.types import DataType


def _count_filter_stage(ctx, node, n1):
    """Credit the mask's survivor count to the source scan it was lifted
    from (``ctx.count`` resolves the bare scan copy back to the original
    plan node). With no predicates the source's own auto-count is right.
    """
    if node.predicates:
        ctx.count(node.children[0], n1)


def _fused_limit(ctx, node, rel):
    """Apply (and credit) the absorbed Limit, if any."""
    ln = node.limit_node
    if ln is None:
        return rel
    if ln.n >= len(rel):
        ctx.count(ln, len(rel))
        return rel
    ctx.count(ln, ln.n)
    return ColumnarRelation(
        rel.columns, [a[: ln.n] for a in rel.arrays], n_rows=ln.n
    )


def _fused_aggregate(ctx, node, source, keep, n1):
    agg = node.agg_node
    labels, positions = agg_input_columns(agg, source)
    arrays = [
        source.arrays[p] if keep is None else source.arrays[p][keep]
        for p in positions
    ]
    sub = ColumnarRelation(labels, arrays, n_rows=n1)
    return _fused_limit(ctx, node, aggregate_columnar(ctx, agg, sub))


def _fused_project(ctx, node, source, keep, n1):
    proj = node.project_node
    positions = [source.col_pos(t, c) for t, c in proj.columns]
    ctx.charge(proj, ctx.cost_model.params["cpu_tuple_cost"] * n1)
    if proj.distinct:
        arrays = [
            source.arrays[p] if keep is None else source.arrays[p][keep]
            for p in positions
        ]
        n = n1
        if n:
            codes = factorize(arrays)
            __, first = np.unique(codes, return_index=True)
            firsts = np.sort(first)  # first-occurrence order
            arrays = [a[firsts] for a in arrays]
            n = len(firsts)
        ctx.count(proj, n)
        return _fused_limit(
            ctx, node, ColumnarRelation(proj.columns, arrays, n_rows=n)
        )
    ctx.count(proj, n1)
    if keep is None:
        # ``source`` may hold only the rows a limit keeps (``_head``).
        out = ColumnarRelation(
            proj.columns,
            [source.arrays[p] for p in positions],
            n_rows=len(source),
        )
        return _fused_limit(ctx, node, out)
    limit = None if node.limit_node is None else node.limit_node.n
    if limit is not None and limit < n1:
        keep = keep[:limit]  # rows past the limit are never gathered
    arrays = [source.arrays[p][keep] for p in positions]
    out = ColumnarRelation(proj.columns, arrays, n_rows=len(keep))
    if node.limit_node is not None:
        ctx.count(node.limit_node, len(out))
    return out


def fused_tail(ctx, node, source):
    """Columnar fused tail: mask once, gather only what the tail reads."""
    if node.predicates:
        keep = np.flatnonzero(predicate_mask(source, node.predicates))
        n1 = len(keep)
    else:
        keep, n1 = None, len(source)
    _count_filter_stage(ctx, node, n1)
    if node.agg_node is not None:
        return _fused_aggregate(ctx, node, source, keep, n1)
    return _fused_project(ctx, node, source, keep, n1)


def _lazy_scan_shape(table, n_rows):
    """A column-labels-only relation standing in for a scan's output.

    The late-materializing paths resolve column positions against this
    shape (positions equal schema order, exactly like a real scan batch)
    without decoding a single segment.
    """
    columns = [(table.name, c.name) for c in table.schema.columns]
    return ColumnarRelation(columns, [None] * len(columns), n_rows=n_rows)


def _segment_codes(table, survivors, key, values=None):
    """``((codes, dictionary), decoded)`` of TEXT column ``key`` over the
    surviving rows: narrow unsigned codes (not dense), the value each
    code stands for, and ``(bytes, seconds)`` decoded. A dict segment
    costs one hash lookup per dictionary entry and is never decoded; any
    other segment costs one per row of ``values`` (the column gathered
    over the survivors) or, without it, of its rows gathered here. One
    numbering spans all segments, so equality is dict equality."""
    seen = {}
    parts = []
    start = nbytes = seconds = 0
    for g, ids in survivors:
        seg = g.segments[key]
        stop = start + (g.n_rows if ids is None else len(ids))
        if seg.encoding == "dict":
            remap = [seen.setdefault(v, len(seen))
                     for v in seg.dictionary.tolist()]
            rows = seg.codes if ids is None else seg.codes.take(ids)
            narrow = np.min_scalar_type(len(seen))
            parts.append(np.array(remap, dtype=narrow).take(rows))
        else:
            if values is None:
                (part,), (nb, dt) = gather(table, [(g, ids)], [key])
                nbytes += nb
                seconds += dt
            else:
                part = values[start:stop]
            rows = object_codes(part, seen)
            parts.append(rows.astype(np.min_scalar_type(len(seen))))
        start = stop
    codes = np.concatenate(parts) if parts else np.empty(0, dtype=np.uint8)
    dictionary = np.empty(len(seen), dtype=object)
    dictionary[:] = list(seen)
    return (codes, dictionary), (nbytes, seconds)


def _dict_segment_codes(survivors, key):
    """``(codes, dictionary)`` of INT column ``key``, every surviving
    segment dict-encoded: the dictionaries are ranked together once
    (:func:`column_codes`) and each segment's codes map through its slice
    of the ranks. Narrow unsigned codes, not dense; none decoded."""
    segs = [g.segments[key] for g, __ in survivors]
    values = np.concatenate([s.dictionary for s in segs])
    ranks = column_codes(values)
    dictionary = np.empty(int(ranks.max()) + 1, dtype=values.dtype)
    dictionary[ranks] = values
    ranks = ranks.astype(np.min_scalar_type(len(dictionary)))
    ends = np.cumsum([len(s.dictionary) for s in segs])[:-1]
    return np.concatenate([
        r.take(s.codes if ids is None else s.codes.take(ids))
        for r, s, (__, ids) in zip(np.split(ranks, ends), segs, survivors)
    ]), dictionary


def _lazy_aggregate(ctx, node, table, survivors, n1):
    agg = node.agg_node
    shape = _lazy_scan_shape(table, n1)
    labels, positions = agg_input_columns(agg, shape)
    keys = [table.schema.columns[p].name.lower() for p in positions]
    group_keys = [c.lower() for __, c in agg.group_by]
    inputs = {a.column.lower() for a in agg.aggregates if a.column is not None}
    dtypes = {k: table.schema.column(k).dtype for k in group_keys}
    text = {k for k in group_keys if dtypes[k] is DataType.TEXT}
    # A TEXT key is coded from the segments and never gathered, unless an
    # aggregate reads it too; an INT key only if no aggregate reads it and
    # every surviving segment is dict-encoded.
    dict_int = {k for k in group_keys
                if dtypes[k] is DataType.INT and k not in inputs and survivors
                and all(g.segments[k].encoding == "dict"
                        for g, __ in survivors)}
    gathered = [k for k in keys
                if k not in dict_int and (k not in text or k in inputs)]
    arrays, (nbytes, seconds) = gather(table, survivors, gathered)
    by_key = dict(zip(gathered, arrays))
    key_codes = []
    for k in group_keys:
        coded = None
        if k in dict_int:
            coded = _dict_segment_codes(survivors, k)
        elif k in text:
            coded, (nb, dt) = _segment_codes(
                table, survivors, k, by_key.get(k))
            nbytes, seconds = nbytes + nb, seconds + dt
        key_codes.append(coded)
    sub = ColumnarRelation(labels, [by_key.get(k) for k in keys], n_rows=n1)
    out = _fused_limit(ctx, node, aggregate_columnar(ctx, agg, sub, key_codes))
    return out, (nbytes, seconds)


def _lazy_project(ctx, node, table, survivors, n1):
    proj = node.project_node
    shape = _lazy_scan_shape(table, n1)
    keys = list(dict.fromkeys(
        table.schema.columns[shape.col_pos(t, c)].name.lower()
        for t, c in proj.columns))
    limit = None if node.limit_node is None else node.limit_node.n
    n = n1
    if not proj.distinct and limit is not None and limit < n1:
        # Rows (and whole groups) past the limit are never gathered.
        survivors, n = _head(survivors, limit), limit
    arrays, decoded = gather(table, survivors, keys)
    source = ColumnarRelation(
        [(table.name, k) for k in keys], arrays, n_rows=n)
    return _fused_project(ctx, node, source, None, n1), decoded


def _head(survivors, n):
    """The first ``n`` surviving rows, as ``(group, ids)`` pairs."""
    head = []
    for g, ids in survivors:
        if n <= 0:
            break
        n_loc = g.n_rows if ids is None else len(ids)
        if n_loc > n:
            ids = np.arange(n, dtype=np.int64) if ids is None else ids[:n]
        head.append((g, ids))
        n -= n_loc
    return head


def _lazy_tail(ctx, node, child):
    """Late-materializing fused tail over a bare SeqScan's segments.

    Instead of running the scan (which would decode the lifted
    predicates' columns whole), the fused predicates are pushed all the
    way into the row groups: zone maps skip whole segments, residual
    predicates evaluate in encoded space, and only the columns the tail
    actually reads are decoded — only for surviving rows. Charges and
    counts replay the general path exactly (scan charge, scan row count,
    survivor attribution), so rows/order/work stay bit-identical with
    late materialization on or off.
    """
    table = ctx.catalog.table(child.table)
    n0 = table.n_rows
    ctx.charge(child, ctx.cost_model.seq_scan(n0))
    ctx.count(child, n0)
    n_groups, survivors, n1, n_pruned = filter_groups(
        table, node.predicates)
    _count_filter_stage(ctx, node, n1)
    if node.agg_node is not None:
        out, decoded = _lazy_aggregate(ctx, node, table, survivors, n1)
    else:
        out, decoded = _lazy_project(ctx, node, table, survivors, n1)
    ctx.record_segments(child, n_groups, n_pruned, *decoded)
    return out


def _lazy_child(node):
    """The fused tail's source scan when it is late-materializable.

    Only a bare (predicate-free) ``SeqScan`` qualifies: index probes and
    view scans have their own access paths, and a scan that still
    carries pushed predicates was not absorbed by this fused op.
    """
    child = node.children[0]
    if isinstance(child, P.SeqScan) and not child.predicates:
        return child
    return None


@register(P.FusedPipelineOp)
class FusedPipelineOpEval(PhysicalOperator):
    """Evaluates a fused tail."""

    def evaluate(self, ctx, node):
        child = _lazy_child(node)
        if child is not None:
            return _lazy_tail(ctx, node, child)
        return fused_tail(ctx, node, ctx.run(node.children[0]))
