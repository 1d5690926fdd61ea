"""The fused Filter→Project/Aggregate(→Limit) tail over a SeqScan.

Evaluates a :class:`~repro.engine.plans.FusedPipelineOp` in one
*late-materialized* pass over its scan's row groups: the scan's pushed
predicates prune whole segments by zone map and mask the rest in
encoded space (:func:`~repro.engine.operators.scan.filter_groups`), and
only the columns the tail reads are decoded, only for surviving rows. A
LIMIT over a plain projection stops the gather at its last row. A TEXT
GROUP BY key is never gathered from its dict segments:
it is coded from their dictionaries, and each group outputs the entry
that coded it — equal TEXT values (``str``/``None``) are identical, so
that is the group's first-row value. Its other segments are gathered to
be coded row by row, and a key an aggregate reads is gathered whole. An
INT key is coded from dictionaries only if every surviving segment has one:
the (ascending) dictionaries are ranked together, and a segment whose
dictionary is the merged one keeps its codes as the group codes.
Work is charged through the absorbed operator nodes with
the same cardinalities and in the same order as operator-at-a-time
evaluation of the unfused plan, so ``work``/``operator_work`` are
bit-identical to the reference executor's (which never fuses).

Actual-row attribution follows the same rule: every absorbed node is
credited the output cardinality it would have produced unfused — the
scan gets the survivor count, Project gets its pre-limit output (full
dedup count under DISTINCT), HashAggregate gets the pre-limit group
count, and Limit gets the final row count. The differential fuzzer
compares these per-node counters against the reference executor's.
"""

import numpy as np

from repro.common import ExecutionError
from repro.engine import plans as P
from repro.engine.operators.base import (
    ColumnarRelation,
    PhysicalOperator,
    register,
)
from repro.engine.operators.kernels import column_codes, distinct_rows
from repro.engine.operators.aggregate import aggregate_columnar
from repro.engine.operators.scan import filter_groups, gather
from repro.engine.segments import object_codes
from repro.engine.types import DataType


def _fused_limit(run, tail, rel):
    """Apply (and credit) the absorbed Limit, if any."""
    if tail.limit is None:
        return rel
    n = run.nodes[tail.limit].n
    if n >= len(rel):
        run.count(tail.limit, len(rel))
        return rel
    run.count(tail.limit, n)
    return ColumnarRelation(
        rel.columns, [a[:n] for a in rel.arrays], n_rows=n
    )


def lazy_columns(schema, top):
    """What a late-materializing tail over ``schema``'s table gathers for
    its Project or HashAggregate ``top``: for a Project, ``(keys,
    labels)`` of the distinct columns it reads; for an aggregate,
    ``(labels, keys)`` of its input columns (GROUP BY keys, then the
    columns its aggregates read, each once), its GROUP BY keys, the
    columns its aggregates read, its TEXT keys and the INT keys no
    aggregate reads (coded from dictionaries when every surviving
    segment has one)."""
    if isinstance(top, P.Project):
        read = top.columns
    else:
        read = top.group_by + [(a.table, a.column) for a in top.aggregates
                               if a.column is not None]
    labels = tuple(dict.fromkeys((t, c) for t, c in read))
    for t, c in labels:
        if t != schema.name or c not in schema.names:
            raise ExecutionError(
                "intermediate result has no column %s.%s" % (t, c))
    keys = tuple(c for __, c in labels)
    if isinstance(top, P.Project):
        return keys, labels
    group_keys = tuple(c for __, c in top.group_by)
    inputs = frozenset(a.column for a in top.aggregates
                       if a.column is not None)
    dtypes = {k: schema.column(k).dtype for k in group_keys}
    return (labels, keys, group_keys, inputs,
            frozenset(k for k in group_keys if dtypes[k] is DataType.TEXT),
            frozenset(k for k in group_keys
                      if dtypes[k] is DataType.INT and k not in inputs))


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
    of the ranks — unless that slice is ``0..n-1``, when the codes
    already are the group codes. Narrow unsigned codes, not dense; none
    decoded."""
    segs = [g.segments[key] for g, __ in survivors]
    values = np.concatenate([s.dictionary for s in segs])
    ranks = column_codes(values)
    dictionary = np.empty(int(ranks.max()) + 1, dtype=values.dtype)
    dictionary[ranks] = values
    ranks = ranks.astype(np.min_scalar_type(len(dictionary)))
    ends = np.cumsum([len(s.dictionary) for s in segs])[:-1]
    parts = []
    for r, s, (__, ids) in zip(np.split(ranks, ends), segs, survivors):
        codes = s.codes if ids is None else s.codes.take(ids)
        identity = np.array_equal(r, np.arange(len(r)))
        parts.append(codes if identity else r.take(codes))
    return np.concatenate(parts), dictionary


def _lazy_aggregate(run, tail, table, survivors, n1):
    agg = run.nodes[tail.agg]
    labels, keys, group_keys, inputs, text, ints = lazy_columns(
        table.schema, agg)
    # A TEXT key is coded from the segments and never gathered, unless an
    # aggregate reads it too; an INT key only if no aggregate reads it and
    # every surviving segment is dict-encoded.
    dict_int = {k for k in ints if survivors
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
    out = _fused_limit(run, tail, aggregate_columnar(
        run, tail.agg, agg, sub, key_codes))
    return out, (nbytes, seconds)


def _lazy_project(run, tail, table, survivors, n1):
    proj = run.nodes[tail.project]
    keys, labels = lazy_columns(table.schema, proj)
    limit = None if tail.limit is None else run.nodes[tail.limit].n
    n = n1
    if not proj.distinct and limit is not None and limit < n1:
        # Rows (and whole groups) past the limit are never gathered.
        survivors, n = _head(survivors, limit), limit
    arrays, decoded = gather(table, survivors, keys)
    by_label = dict(zip(labels, arrays))
    arrays = [by_label[t, c] for t, c in proj.columns]
    run.charge(tail.project, run.cost_model.params["cpu_tuple_cost"] * n1)
    if proj.distinct:
        arrays, n = distinct_rows(arrays, n)
        n1 = n
    run.count(tail.project, n1)  # the pre-limit output
    out = ColumnarRelation(proj.columns, arrays, n_rows=n)
    return _fused_limit(run, tail, out), decoded


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


@register(P.FusedPipelineOp)
class FusedPipelineOpEval(PhysicalOperator):
    """Evaluates a fused tail in place of its scan (the step has no
    input). Charges and counts replay the unfused plan's exactly: the
    scan's charge and survivor count, then the tail's."""

    def evaluate(self, run, step, inputs):
        tail = step.args
        table = run.catalog.table(tail.table).snapshot()
        run.charge(tail.source, run.cost_model.seq_scan(table.n_rows))
        n_groups, survivors, n1, n_pruned = filter_groups(
            table, run.nodes[tail.source].predicates)
        run.count(tail.source, n1)
        if tail.agg is not None:
            out, decoded = _lazy_aggregate(run, tail, table, survivors, n1)
        else:
            out, decoded = _lazy_project(run, tail, table, survivors, n1)
        run.record_segments(tail.source, n_groups, n_pruned, *decoded)
        return out
