"""Encoded column segments and zone maps — the physical storage layer.

A :class:`~repro.engine.storage.Table` stores each column as a sequence
of immutable fixed-capacity segments (plus one mutable tail). Every
sealed segment carries

* an **encoding** — ``"plain"`` (raw NumPy values), ``"dict"``
  (narrow integer codes into a first-appearance dictionary of distinct
  values; the win for low-cardinality TEXT/INT), or ``"rle"``
  (run-length: one value + length per run; the win for sorted or
  constant stretches) — chosen automatically at seal time by
  :func:`choose_encoding`, and
* a **zone map** (:class:`ZoneMap`) — min/max over non-NULL values and
  the NULL count — letting the scan path prune the whole segment against
  a pushed-down predicate without touching data.

Everything here preserves the engine's observational contract exactly:
``decode()`` reproduces the original values bit-for-bit (value-for-value
for objects), ``mask(predicates)`` — a conjunction on one column, ANDed
in dictionary/run space and mapped to rows with one ``take`` — returns
the AND of the flat NumPy evaluations (including the scalar-collapse
rule for incomparable types, and raising the same ``TypeError`` a flat
object-array comparison would raise), and :meth:`ZoneMap.classify` only
returns ``PRUNED``/``FULL`` verdicts that the flat evaluation provably
agrees with — anything uncertain (NaN bounds, mixed types, NULLs under
range operators) degrades to ``PARTIAL``, which just means "evaluate
normally".

This module sits below :mod:`repro.engine.storage` and imports only
:mod:`repro.engine.types`; the comparison-operator table is intentionally
duplicated from the operator layer (six entries) to keep the storage
layer at the bottom of the import graph.
"""

import operator

import numpy as np

from repro.common import ExecutionError
from repro.engine.types import DataType

#: Modeled width of one decoded value, in bytes, per data type.
VALUE_BYTES = {DataType.INT: 8, DataType.FLOAT: 8, DataType.TEXT: 24}

#: Modeled per-run overhead of run-length encoding (value + 4-byte length).
RLE_LENGTH_BYTES = 4

#: Supported segment encodings.
ENCODINGS = ("plain", "dict", "rle")

#: Default encodings a table may choose from at seal time.
DEFAULT_ENCODINGS = ("dict", "rle", "plain")

#: Dictionary encoding applies only while the dictionary stays bounded.
MAX_DICT_SIZE = 65536

#: Average run length at which run-length encoding starts paying off.
MIN_AVG_RUN = 4.0

#: Zone-map verdicts for one predicate against one segment.
PRUNED, FULL, PARTIAL = "pruned", "full", "partial"

#: Comparison operators, mirroring the operator layer's table.
_OPS = {
    "=": operator.eq,
    "!=": operator.ne,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
}

_RANGE_OPS = ("<", "<=", ">", ">=")


def object_codes(arr, seen=None):
    """First-appearance int64 codes of an object array.

    Hash-based (dict equality) rather than sort-based, so ``None`` and
    mixed types get codes exactly as the reference executor groups and
    joins them (``None`` equals ``None``; no ordering needed). ``seen``
    (value -> code) continues one numbering across several arrays and is
    extended in place.
    """
    seen = {} if seen is None else seen
    codes = np.empty(len(arr), dtype=np.int64)
    for i, value in enumerate(arr.tolist()):
        code = seen.get(value)
        if code is None:
            code = seen[value] = len(seen)
        codes[i] = code
    return codes


def _factorize(arr):
    """First-appearance codes + dictionary of one segment's values."""
    if arr.dtype == object:
        seen = {}
        codes = object_codes(arr, seen)
        dictionary = np.empty(len(seen), dtype=object)
        dictionary[:] = list(seen)
        return codes, dictionary
    uniq, first, inv = np.unique(arr, return_index=True, return_inverse=True)
    inv = np.ascontiguousarray(inv, dtype=np.int64).ravel()
    order = np.argsort(first, kind="stable")
    dictionary = uniq[order]
    remap = np.empty(len(uniq), dtype=np.int64)
    remap[order] = np.arange(len(uniq), dtype=np.int64)
    return remap[inv], dictionary


def _run_bounds(arr):
    """Start indices of the value runs in ``arr`` (first index included)."""
    n = len(arr)
    if n == 0:
        return np.empty(0, dtype=np.int64)
    if arr.dtype == object:
        neq = np.asarray(
            np.not_equal(arr[1:], arr[:-1]), dtype=object
        ).astype(bool)
        # ``None != None`` is elementwise False, so NULL runs coalesce —
        # exactly what decode must reproduce (np.repeat puts None back).
    else:
        neq = arr[1:] != arr[:-1]
    return np.flatnonzero(np.r_[True, neq])


class ZoneMap:
    """Min/max + NULL count for one segment.

    ``min``/``max`` cover non-NULL values only and are ``None`` when the
    segment is empty, all-NULL, or its values are not mutually comparable
    (mixed types); :meth:`classify` then answers ``PARTIAL`` for
    everything, which is always safe.
    """

    __slots__ = ("min", "max", "null_count")

    def __init__(self, min_value, max_value, null_count):
        self.min = min_value
        self.max = max_value
        self.null_count = int(null_count)
        try:
            if min_value is not None and not (min_value <= max_value):
                # NaN bounds (or other incoherent ordering): no zone.
                self.min = self.max = None
        except TypeError:
            self.min = self.max = None

    @classmethod
    def build(cls, arr, dtype):
        """Compute the zone map of one segment's raw values."""
        n = len(arr)
        if dtype is DataType.TEXT:
            non_null = [v for v in arr.tolist() if v is not None]
            nulls = n - len(non_null)
            lo = hi = None
            if non_null:
                try:
                    lo, hi = min(non_null), max(non_null)
                except TypeError:  # mixed incomparable types
                    lo = hi = None
            return cls(lo, hi, nulls)
        if n == 0:
            return cls(None, None, 0)
        lo = arr.min()
        hi = arr.max()
        if dtype is DataType.FLOAT and (np.isnan(lo) or np.isnan(hi)):
            lo = hi = None
        else:
            lo, hi = lo.item(), hi.item()
        return cls(lo, hi, 0)

    def classify(self, op, value):
        """``PRUNED`` / ``FULL`` / ``PARTIAL`` verdict for one predicate.

        Only returns a non-``PARTIAL`` verdict when the flat evaluation
        provably agrees for every row:

        * NULLs fail ``=`` and all range operators but *pass* ``!=``
          (``None != x`` is elementwise True), so ``=`` may still prune a
          NULL-bearing segment while ``FULL`` requires zero NULLs — and
          ``!=`` is the mirror image.
        * Range operators never prune a NULL-bearing TEXT segment: the
          flat comparison would raise ``TypeError``, and pruning must not
          hide an error the unsegmented engine raises.
        * Any ``TypeError`` while comparing the literal against the
          bounds degrades to ``PARTIAL`` (the flat path's scalar-collapse
          semantics then apply during normal evaluation).
        """
        lo, hi = self.min, self.max
        if lo is None:
            return PARTIAL
        nulls = self.null_count
        try:
            if op == "=":
                if value < lo or value > hi:
                    return PRUNED
                if lo == hi and lo == value and nulls == 0:
                    return FULL
                return PARTIAL
            if op == "!=":
                if value < lo or value > hi:
                    return FULL
                if lo == hi and lo == value and nulls == 0:
                    return PRUNED
                return PARTIAL
            if op not in _RANGE_OPS:
                return PARTIAL
            if nulls:
                return PARTIAL
            if op == "<":
                if lo >= value:
                    return PRUNED
                if hi < value:
                    return FULL
            elif op == "<=":
                if lo > value:
                    return PRUNED
                if hi <= value:
                    return FULL
            elif op == ">":
                if hi <= value:
                    return PRUNED
                if lo > value:
                    return FULL
            elif op == ">=":
                if hi < value:
                    return PRUNED
                if lo >= value:
                    return FULL
            return PARTIAL
        except TypeError:
            return PARTIAL

    def range_hazard(self, op, value):
        """Whether evaluating ``op`` on this segment could raise.

        The flat engine raises ``TypeError`` for range comparisons over
        NULL-bearing or mixed-type object columns (and for incomparable
        literals); a zone-map skip must never hide that error. A group
        may therefore only be pruned when none of its predicates are
        hazardous — hazardous predicates are always evaluated, exactly
        to reproduce the error the flat path would raise. Conservative:
        ``True`` for any segment whose bounds are unknown.
        """
        if op not in _RANGE_OPS:
            return False
        if self.min is None or self.null_count:
            return True
        try:
            bool(self.min <= value)
            bool(value <= self.max)
        except TypeError:
            return True
        return False

    def __repr__(self):
        return "ZoneMap(min=%r, max=%r, nulls=%d)" % (
            self.min, self.max, self.null_count
        )


def choose_encoding(arr, dtype, allowed=DEFAULT_ENCODINGS):
    """Pick the encoding for one segment's values at seal time.

    Rules (first match wins):

    * FLOAT segments containing NaN, or both ``0.0`` and ``-0.0``, stay
      ``plain`` — dictionary and run-length both rely on equality, which
      NaN breaks and which cannot tell the two zeros apart.
    * ``"rle"`` when the average run length is at least
      :data:`MIN_AVG_RUN` (sorted/constant stretches).
    * ``"dict"`` when the distinct count is at most a quarter of the
      rows and the dictionary stays under :data:`MAX_DICT_SIZE` slots.
    * ``"plain"`` otherwise (always available as the fallback).

    Returns the chosen encoding name.
    """
    n = len(arr)
    if n == 0:
        return "plain"
    if dtype is DataType.FLOAT:
        zero_signs = np.signbit(arr[arr == 0])
        if bool(np.isnan(arr).any()) or (
                zero_signs.any() and not zero_signs.all()):
            return "plain"
    if "rle" in allowed:
        n_runs = len(_run_bounds(arr))
        if n / max(1, n_runs) >= MIN_AVG_RUN:
            return "rle"
    if "dict" in allowed:
        if dtype is DataType.TEXT:
            ndv = len(set(arr.tolist()))
        else:
            ndv = len(np.unique(arr))
        if ndv <= min(n // 4, MAX_DICT_SIZE):
            return "dict"
    return "plain"


class ColumnSegment:
    """One immutable encoded run of a column, with its zone map.

    Build via :meth:`encode`; the payload depends on :attr:`encoding`:

    * ``plain`` — ``values`` (the raw NumPy array);
    * ``dict`` — ``codes`` (narrow unsigned ints) + ``dictionary``
      (distinct values in first-appearance order);
    * ``rle`` — ``values`` (one per run) + ``run_lengths``.

    A plain segment can also be wrapped directly around a typed array
    (a snapshot does, for the table's tail): no encoding choice, no copy.
    """

    __slots__ = ("encoding", "dtype", "n_rows", "values", "codes",
                 "dictionary", "run_lengths", "_run_ends", "_zone_map",
                 "_value_counts")

    def __init__(self, encoding, dtype, n_rows, values=None, codes=None,
                 dictionary=None, run_lengths=None, zone_map=None):
        self.encoding = encoding
        self.dtype = dtype
        self.n_rows = int(n_rows)
        self.values = values
        self.codes = codes
        self.dictionary = dictionary
        self.run_lengths = run_lengths
        self._run_ends = (
            None if run_lengths is None else np.cumsum(run_lengths)
        )
        self._zone_map = zone_map
        self._value_counts = None

    @property
    def zone_map(self):
        """The segment's :class:`ZoneMap` (plain segments wrapped without
        one build it here, once, from their values)."""
        zone = self._zone_map
        if zone is None:
            zone = self._zone_map = ZoneMap.build(self.values, self.dtype)
        return zone

    @classmethod
    def encode(cls, arr, dtype, allowed=DEFAULT_ENCODINGS):
        """Seal ``arr`` (already in the column's NumPy dtype) into a segment."""
        encoding = choose_encoding(arr, dtype, allowed)
        if encoding == "rle":
            starts = _run_bounds(arr)
            lengths = np.diff(np.r_[starts, len(arr)]).astype(np.int64)
            run_values = arr[starts]
            zone = ZoneMap.build(run_values, dtype)
            if dtype is DataType.TEXT and zone.null_count:
                # Count NULL *rows*, not NULL runs.
                null_runs = [i for i, v in enumerate(run_values.tolist())
                             if v is None]
                zone.null_count = int(lengths[null_runs].sum())
            return cls("rle", dtype, len(arr), values=run_values,
                       run_lengths=lengths, zone_map=zone)
        if encoding == "dict":
            codes, dictionary = _factorize(arr)
            narrow = codes.astype(np.min_scalar_type(len(dictionary)))
            zone = ZoneMap.build(dictionary, dtype)
            if dtype is DataType.TEXT and zone.null_count:
                # Count NULL *rows*, not the dictionary's single None slot.
                null_code = next(
                    i for i, v in enumerate(dictionary.tolist())
                    if v is None
                )
                zone.null_count = int((codes == null_code).sum())
            return cls("dict", dtype, len(arr), codes=narrow,
                       dictionary=dictionary, zone_map=zone)
        # ``plain`` keeps a reference (segments are immutable by contract).
        return cls("plain", dtype, len(arr), values=arr)

    # -- access --------------------------------------------------------
    def decode(self):
        """The segment's values as a full NumPy array (original dtype)."""
        if self.encoding == "plain":
            return self.values
        if self.encoding == "dict":
            return self.dictionary.take(self.codes)
        return np.repeat(self.values, self.run_lengths)

    def take(self, ids):
        """Gather rows by segment-local ids without decoding the rest."""
        if self.encoding == "plain":
            return self.values[ids]
        if self.encoding == "dict":
            return self.dictionary.take(self.codes.take(ids))
        runs = np.searchsorted(self._run_ends, ids, side="right")
        return self.values[runs]

    def mask(self, predicates):
        """Boolean row mask of a conjunction on this column, evaluated in
        encoded space.

        ``predicates`` is a list of ``(op, value)`` pairs. Each is
        compared against the *dictionary* (dict: one comparison per
        distinct value), the run values (RLE) or the values (plain); the
        verdicts are ANDed there and mapped to rows once — ``take``
        through the codes, ``repeat`` over the run lengths. The result
        equals the AND of the flat evaluations, including the
        scalar-collapse rule for incomparable types (a scalar verdict
        applies to every row) and any ``TypeError`` an object-array
        comparison raises.
        """
        space = self.dictionary if self.encoding == "dict" else self.values
        hits = None
        for op, value in predicates:
            fn = _OPS.get(op)
            if fn is None:
                raise ExecutionError("unknown predicate operator %r" % (op,))
            m = np.asarray(fn(space, value))
            if m.ndim == 0:
                m = np.full(len(space), bool(m))
            m = m.astype(bool, copy=False)
            hits = m if hits is None else hits & m
        if self.encoding == "dict":
            return hits.take(self.codes)
        if self.encoding == "rle":
            return np.repeat(hits, self.run_lengths)
        return hits

    # -- statistics ----------------------------------------------------
    def value_counts(self):
        """``(values, counts)`` of the segment's distinct values, or ``None``.

        Free for dictionary segments, one pass over the runs for RLE, one
        ``np.unique`` for plain numeric segments (which keeps the first of
        ``0.0``/``-0.0``, as a dict would); computed once and cached.
        Returns ``None`` when exact counting is unsound (FLOAT segments
        containing NaN), signalling callers to fall back to a full-column
        scan.
        """
        if self._value_counts is not None:
            return self._value_counts
        arr = self.values
        if self.encoding == "dict":
            values = self.dictionary
            counts = np.bincount(self.codes, minlength=len(values))
        elif self.encoding == "rle" or self.dtype is DataType.TEXT:
            codes, values = _factorize(arr)
            counts = np.bincount(codes, weights=self.run_lengths,
                                 minlength=len(values))
        elif self.dtype is DataType.FLOAT and bool(np.isnan(arr).any()):
            return None
        else:
            values, counts = np.unique(arr, return_counts=True)
            zero = np.searchsorted(values, 0)
            if (self.dtype is DataType.FLOAT and zero < len(values)
                    and values[zero] == 0):
                values[zero] = arr[np.argmax(arr == 0)]
        self._value_counts = (values, counts.astype(np.int64))
        return self._value_counts

    def encoded_bytes(self):
        """Modeled storage footprint of this segment, in bytes."""
        width = VALUE_BYTES[self.dtype]
        if self.encoding == "plain":
            return self.n_rows * width
        if self.encoding == "dict":
            return (self.n_rows * self.codes.dtype.itemsize
                    + len(self.dictionary) * width)
        return len(self.values) * (width + RLE_LENGTH_BYTES)

    def __len__(self):
        return self.n_rows

    def __repr__(self):
        return "ColumnSegment(%s, rows=%d, bytes=%d)" % (
            self.encoding, self.n_rows, self.encoded_bytes()
        )


def merge_value_counts(segments, dtype):
    """Merged exact ``(values, counts)`` of a ``dtype`` column's
    ``segments``, or ``None`` — the incremental statistics path ANALYZE
    uses instead of re-scanning a full column.

    Numeric values come out ascending (one concatenate, a stable sort and
    ``reduceat``, so of ``0.0``/``-0.0`` the first in segment order is
    kept); TEXT values in first-appearance order, numbered through one
    dict. ``None`` signals that some segment could not count exactly
    (NaN-bearing FLOAT), so the caller must fall back to the decoded
    column.
    """
    parts = [seg.value_counts() for seg in segments]
    if any(vc is None for vc in parts):
        return None
    values = np.concatenate(
        [v for v, __ in parts] + [np.empty(0, dtype=dtype.numpy_dtype)])
    counts = np.concatenate([c for __, c in parts] + [np.empty(0, np.int64)])
    if dtype is DataType.TEXT:
        codes, values = _factorize(values)
        counts = np.bincount(codes, weights=counts, minlength=len(values))
        return values, counts.astype(np.int64)
    if len(values):
        order = np.argsort(values, kind="stable")
        values, counts = values[order], counts[order]
        starts = np.flatnonzero(np.r_[True, values[1:] != values[:-1]])
        values, counts = values[starts], np.add.reduceat(counts, starts)
    return values, counts
