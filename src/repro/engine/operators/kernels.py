"""Vectorized NumPy kernels shared across operator families.

These are the pure array routines the columnar operators are built from:
factorization (dense key codes) and the stable sort of those codes, the
counting equi-join, predicate masks, segmented reductions for grouped
aggregation, and order-preserving sort permutations. They are also used
by :func:`repro.engine.executor.count_join_rows` (the oracle cardinality
helper), which is why they live apart from any single operator module.

Every kernel is deterministic and order-preserving by construction —
join probes emit left-major row order, groups surface in first-appearance
order, sorts are stable — because that is what the reference executor
under ``tests/`` produces and the engine must reproduce bit for bit.
"""

import numpy as np

from repro.common import ExecutionError
from repro.engine.operators.base import OPS
from repro.engine.segments import object_codes


def column_codes(arr):
    """Dense int64 codes for one column (equal values ⇒ equal codes).

    Integer columns whose value span is below twice their length are
    ranked in O(n) — ``bincount`` presence, ``cumsum``, gather — which is
    exactly ``np.unique``'s inverse (both are ranks among the sorted
    distinct values). Wider spans, floats and bools use ``np.unique``.
    Object columns (TEXT, nullable) use :func:`object_codes`: sort-based
    ``np.unique`` would raise ``TypeError`` on ``None`` or mixed types.
    """
    if arr.dtype == object:
        return object_codes(arr)
    if arr.dtype.kind in "iu" and len(arr):
        lo = arr.min()
        if int(arr.max()) - int(lo) < 2 * len(arr):
            # In intp: exact for narrow signed dtypes, and modulo 2**64
            # (still exact, the span being small) for uint64 past int64.
            offsets = np.subtract(arr, lo, dtype=np.intp)
            ranks = np.cumsum(np.bincount(offsets) > 0) - 1
            return ranks[offsets]
    __, inv = np.unique(arr, return_inverse=True)
    return np.ascontiguousarray(inv, dtype=np.int64).ravel()


def factorize(columns):
    """Dense int64 codes identifying each row's tuple over ``columns``.

    Rows with equal key tuples receive equal codes, and every code in
    ``0..codes.max()`` occurs; codes are compacted after every column so
    multi-column keys cannot overflow.
    """
    codes = None
    for arr in columns:
        inv = column_codes(arr)
        if codes is None:
            codes = inv
        else:
            width = int(inv.max()) + 1 if len(inv) else 1
            codes = column_codes(codes * width + inv)
    return codes


def stable_code_order(codes):
    """``np.argsort(codes, kind="stable")`` for non-negative int codes.

    Sorts on the narrowest unsigned dtype holding the largest code (the
    same permutation), so NumPy radix-sorts the 8- and 16-bit cases.
    """
    top = int(codes.max()) if len(codes) else 0
    narrow = codes.astype(np.min_scalar_type(top), copy=False)
    return np.argsort(narrow, kind="stable")


def join_indices(left_cols, right_cols):
    """Row-id pairs ``(il, ir)`` of the equi-join of two key-column sets.

    Both sides share one factorization; each left row finds its code's
    run among the code-sorted right rows by counting (``bincount`` and
    prefix sums). Output order is the reference hash join's: left rows in
    order, each one's right matches in original right order.
    """
    nl, nr = len(left_cols[0]), len(right_cols[0])
    empty = np.empty(0, dtype=np.int64)
    if nl == 0 or nr == 0:
        return empty, empty.copy()
    codes = factorize(
        [np.concatenate([l, r]) for l, r in zip(left_cols, right_cols)]
    )
    lc, rc = codes[:nl], codes[nl:]
    per_code = np.bincount(rc, minlength=int(codes.max()) + 1)
    counts = per_code[lc]
    il = np.repeat(np.arange(nl, dtype=np.int64), counts)
    if len(il) == 0:
        return il, empty
    # Match j of left row i is right row starts[i] + j of the code-grouped
    # order, and output row offsets[i] + j.
    starts = (np.cumsum(per_code) - per_code)[lc]
    offsets = np.cumsum(counts) - counts
    pos = np.arange(len(il)) + np.repeat(starts - offsets, counts)
    return il, stable_code_order(rc)[pos]


def cross_indices(nl, nr):
    """Row-id pairs of the Cartesian product, left-major (row order)."""
    il = np.repeat(np.arange(nl, dtype=np.int64), nr)
    ir = np.tile(np.arange(nr, dtype=np.int64), nl)
    return il, ir


def predicate_mask(relation, predicates):
    """One boolean mask for a conjunction of predicates (vectorized)."""
    n = len(relation)
    mask = None
    for p in predicates:
        arr = relation.arrays[relation.col_pos(p.table, p.column)]
        m = np.asarray(OPS[p.op](arr, p.value))
        if m.ndim == 0:  # incomparable types collapse to a scalar verdict
            m = np.full(n, bool(m))
        m = m.astype(bool, copy=False)
        mask = m if mask is None else mask & m
    return mask


def _coerce_numeric(sorted_vals, func):
    """Numeric view of an object array of homogeneous Python scalars.

    Returns ``None`` when the values are not uniformly ``int`` or
    uniformly ``float`` (``bool`` is deliberately excluded — it is a
    distinct type under Python's aggregate semantics), or when an int
    sum could overflow int64; callers then keep the Python fallback.
    """
    if not len(sorted_vals):
        return None
    head = type(sorted_vals[0])
    if head is int:
        for v in sorted_vals:
            if type(v) is not int:
                return None
        try:
            vals = sorted_vals.astype(np.int64)
        except (OverflowError, TypeError, ValueError):
            return None
        if func in ("sum", "avg"):
            bound = max(abs(int(vals.min())), abs(int(vals.max())))
            if bound * len(vals) >= 2 ** 63:
                return None
        return vals
    if head is float:
        for v in sorted_vals:
            if type(v) is not float:
                return None
        return sorted_vals.astype(np.float64)
    return None


def segment_reduce(func, sorted_vals, seg_starts, counts):
    """Per-group reduction over values pre-sorted so groups are contiguous.

    Object-dtype inputs holding uniformly ``int`` or uniformly ``float``
    scalars are coerced to a numeric dtype so the reductions run through
    ``np.ufunc.reduceat`` (int sums only when provably overflow-free);
    genuinely mixed object values keep the per-group Python fallback.
    """
    if sorted_vals.dtype == object:
        coerced = _coerce_numeric(sorted_vals, func)
        if coerced is not None:
            return segment_reduce(func, coerced, seg_starts, counts)
        bounds = np.r_[seg_starts, len(sorted_vals)]
        segments = [
            sorted_vals[bounds[i]:bounds[i + 1]].tolist()
            for i in range(len(seg_starts))
        ]
        if func == "sum":
            vals = [sum(s) for s in segments]
        elif func == "avg":
            vals = [sum(s) / len(s) for s in segments]
        elif func == "min":
            vals = [min(s) for s in segments]
        elif func == "max":
            vals = [max(s) for s in segments]
        else:
            raise ExecutionError("unknown aggregate %r" % (func,))
        out = np.empty(len(vals), dtype=object)
        out[:] = vals
        return out
    if func == "sum":
        return np.add.reduceat(sorted_vals, seg_starts)
    if func == "avg":
        return np.add.reduceat(sorted_vals, seg_starts) / counts
    if func == "min":
        return np.minimum.reduceat(sorted_vals, seg_starts)
    if func == "max":
        return np.maximum.reduceat(sorted_vals, seg_starts)
    raise ExecutionError("unknown aggregate %r" % (func,))


def stable_sort_indices(key, descending):
    """Stable sort permutation matching ``sorted(..., reverse=descending)``."""
    n = len(key)
    if not descending:
        return np.argsort(key, kind="stable")
    # Descending with ties in original order == stable ascending argsort of
    # the reversed array, reversed and mapped back to original positions.
    return (n - 1) - np.argsort(key[::-1], kind="stable")[::-1]


def agg_input_columns(agg_node, source):
    """``(labels, positions)`` of the columns an aggregate actually reads.

    The fused path gathers only these through the predicate's surviving
    row ids — the full-width filtered relation is never materialized.
    """
    seen = {}
    for t, c in agg_node.group_by:
        key = (t.lower(), c.lower())
        if key not in seen:
            seen[key] = source.col_pos(t, c)
    for a in agg_node.aggregates:
        if a.column is not None:
            key = (a.table.lower(), a.column.lower())
            if key not in seen:
                seen[key] = source.col_pos(a.table, a.column)
    return list(seen), list(seen.values())
