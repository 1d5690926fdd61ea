"""Vectorized NumPy kernels shared across operator families.

These are the pure array routines the columnar operators are built from:
factorization (dense key codes) and the stable sort of those codes, the
counting equi-join, predicate masks, first-occurrence DISTINCT,
per-group-code folds for grouped aggregation, and order-preserving sort
permutations. Several operator families share them, which is why they
live apart from any single operator module.

Every kernel is deterministic and order-preserving by construction —
join probes emit left-major row order, groups surface in first-appearance
order, sorts are stable — because that is what the reference executor
under ``tests/`` produces and the engine must reproduce bit for bit.
"""

import numpy as np

from repro.common import ExecutionError
from repro.engine.operators.base import OPS
from repro.engine.segments import object_codes, span_ranks


def column_codes(arr):
    """Dense int64 codes for one column (equal values ⇒ equal codes).

    Integer columns whose value span is below twice their length are
    ranked in O(n) by :func:`span_ranks` (the INT seal's ranking), which
    is exactly ``np.unique``'s inverse. Wider spans, floats and bools use
    ``np.unique``. Object columns (TEXT, nullable) use
    :func:`object_codes`: sort-based ``np.unique`` would raise
    ``TypeError`` on ``None`` or mixed types.
    """
    if arr.dtype == object:
        return object_codes(arr)
    if arr.dtype.kind in "iu" and len(arr):
        ranked = span_ranks(arr)
        if ranked is not None:
            return ranked[0]
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


def _counting_pairs(rows, lc, per_code, keys):
    """Row-id pairs of a counting join: left row ``rows[i]`` has code
    ``lc[i]``, and ``per_code`` counts each code among the right
    ``keys``. Left rows come in order, each one's matches in right order
    (a stable sort of ``keys``)."""
    counts = per_code[lc]
    il = np.repeat(rows, counts)
    if len(il) == 0:
        return il, np.empty(0, dtype=np.int64)
    # Match j of left row i is right row starts[i] + j of the code-grouped
    # order, and output row offsets[i] + j.
    starts = (np.cumsum(per_code) - per_code)[lc]
    offsets = np.cumsum(counts) - counts
    pos = np.arange(len(il)) + np.repeat(starts - offsets, counts)
    return il, stable_code_order(keys)[pos]


def _direct_join(left, right):
    """:func:`join_indices` of one signed-integer key over the right
    (build) keys' span, with no factorization; ``None`` when those keys
    span more than ``2 * (nl + nr)`` values. Unique build keys map
    through a position table: one scatter, one gather. Repeated ones are
    counting-sorted over the span — ``bincount`` of the offsets, a
    stable argsort of them and the prefix starts — and each left row is
    repeated once per match."""
    lo = right.min()
    span = int(right.max()) - int(lo)
    if span > 2 * (len(left) + len(right)):
        return None
    offsets = np.subtract(right, lo, dtype=np.intp)
    per_key = np.bincount(offsets, minlength=span + 1)
    lo = np.int64(lo)
    inside = ((left >= lo) & (left <= lo + span)).nonzero()[0]
    probe = np.subtract(left[inside], lo, dtype=np.intp)
    if np.count_nonzero(per_key) < len(right):
        return _counting_pairs(inside, probe, per_key, offsets)
    where = np.full(span + 1, -1, dtype=np.int64)
    where[offsets] = np.arange(len(right))
    pos = where[probe]
    hit = pos >= 0
    return inside[hit], pos[hit]


def join_indices(left_cols, right_cols):
    """Row-id pairs ``(il, ir)`` of the equi-join of two key-column sets.

    One signed-integer key whose build (right) values span a narrow range
    maps directly (:func:`_direct_join`), repeated build keys included.
    Otherwise — a wide span, floats, TEXT, several key columns — both
    sides share one factorization; each left row finds its code's run
    among the code-sorted right rows by counting (``bincount`` and prefix
    sums). Output order is the reference hash join's: left rows in order,
    each one's right matches in original right order.
    """
    nl, nr = len(left_cols[0]), len(right_cols[0])
    empty = np.empty(0, dtype=np.int64)
    if nl == 0 or nr == 0:
        return empty, empty.copy()
    if len(left_cols) == 1 and (
            left_cols[0].dtype.kind == right_cols[0].dtype.kind == "i"):
        pairs = _direct_join(left_cols[0], right_cols[0])
        if pairs is not None:
            return pairs
    codes = factorize(
        [np.concatenate([l, r]) for l, r in zip(left_cols, right_cols)]
    )
    lc, rc = codes[:nl], codes[nl:]
    per_code = np.bincount(rc, minlength=int(codes.max()) + 1)
    return _counting_pairs(np.arange(nl, dtype=np.int64), lc, per_code, rc)


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


#: Python folds for object-valued (TEXT) aggregate inputs.
PY_FOLDS = {
    "sum": sum,
    "avg": lambda vals: sum(vals) / len(vals),
    "min": min,
    "max": max,
}


def distinct_rows(arrays, n):
    """``(arrays, n)`` of ``n`` rows cut to each distinct row's first
    occurrence, in first-occurrence order (the reference's dict dedup)."""
    if not n:
        return arrays, n
    __, first = np.unique(factorize(arrays), return_index=True)
    keep = np.sort(first)
    return [a[keep] for a in arrays], len(keep)


def first_rows(codes, counts):
    """Row of each code's first occurrence (0 for a code with no rows),
    given ``counts = np.bincount(codes)``. Scans a prefix that grows
    fourfold until every occurring code is found, so no row-index array
    longer than that prefix is built."""
    n = len(codes)
    first = np.full(len(counts), n, dtype=np.intp)
    lo, hi = 0, min(n, 4096)
    while True:
        np.minimum.at(first, codes[lo:hi], np.arange(lo, hi, dtype=np.intp))
        if hi == n or np.count_nonzero(first < n) == np.count_nonzero(counts):
            first[first == n] = 0
            return first
        lo, hi = hi, min(n, 4 * hi)


def group_reduce(func, values, codes, counts, first):
    """``func`` of ``values`` per group code, in row order, without a sort.

    Returns one slot per code (``counts[c]`` rows carry code ``c``, the
    first being ``first[c]``; slots of absent codes hold junk). FLOAT
    ``sum``/``avg`` use ``np.bincount`` weights, which add left to right
    in row order from 0.0 — the reference executor's left fold, bit for
    bit; INT ``sum`` and ``min``/``max`` use ``ufunc.at`` (``min``/``max``
    seeded with each group's first value); object values fold in Python.
    """
    if func == "count":
        return counts
    fold = PY_FOLDS.get(func)
    if fold is None:
        raise ExecutionError("unknown aggregate %r" % (func,))
    if values.dtype == object:
        groups = [[] for __ in range(len(counts))]
        for c, v in zip(codes.tolist(), values.tolist()):
            groups[c].append(v)
        out = np.empty(len(groups), dtype=object)
        out[:] = [fold(g) if g else None for g in groups]
        return out
    if func in ("min", "max"):
        out = values[first]
        with np.errstate(invalid="ignore"):  # a NaN propagates, silently
            (np.minimum if func == "min" else np.maximum).at(
                out, codes, values)
        return out
    if values.dtype.kind == "f":
        sums = np.bincount(codes, weights=values, minlength=len(counts))
    else:
        sums = np.zeros(len(counts), dtype=values.dtype)
        np.add.at(sums, codes, values)
    return sums if func == "sum" else sums / np.maximum(counts, 1)


def stable_sort_indices(key, descending):
    """Stable sort permutation matching ``sorted(..., reverse=descending)``."""
    n = len(key)
    if not descending:
        return np.argsort(key, kind="stable")
    # Descending with ties in original order == stable ascending argsort of
    # the reversed array, reversed and mapped back to original positions.
    return (n - 1) - np.argsort(key[::-1], kind="stable")[::-1]
