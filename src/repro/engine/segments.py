"""Encoded column segments and zone maps — the physical storage layer.

A :class:`~repro.engine.storage.Table` stores each column as a sequence
of immutable fixed-capacity segments (plus one mutable tail). Every
sealed segment carries

* an **encoding** — ``"plain"`` (raw NumPy values) or ``"dict"``
  (narrow integer codes into a dictionary of distinct values, ascending
  for INT/FLOAT and in first-appearance order for TEXT; the win for
  low-cardinality TEXT/INT, sorted and constant stretches included) —
  chosen at seal time by :func:`choose_encoding`, and
* a **zone map** (:class:`ZoneMap`) — min/max over non-NULL values and
  the NULL count — letting the scan path prune the whole segment against
  a pushed-down predicate without touching data.

Everything here preserves the engine's observational contract exactly:
``decode()`` reproduces the original values bit-for-bit (value-for-value
for objects), ``mask(predicates)`` — a conjunction on one column, ANDed
in dictionary space and mapped to rows once: one compare on the
codes when the hits are one run of codes (every ``=``, and any range on
an ascending dictionary), else one ``take`` — returns
the AND of the flat NumPy evaluations (including the scalar-collapse
rule for incomparable types, and raising the same ``TypeError`` a flat
object-array comparison would raise), and :meth:`ZoneMap.classify` only
returns ``PRUNED``/``FULL`` verdicts that the flat evaluation provably
agrees with — anything uncertain (NaN bounds, mixed types, NULLs under
range operators) degrades to ``PARTIAL``, which just means "evaluate
normally".

This module sits below :mod:`repro.engine.storage` and imports only
:mod:`repro.engine.types` and :mod:`repro.engine.config` (for the
encoding names); the comparison-operator table is intentionally
duplicated from the operator layer (six entries) to keep the storage
layer at the bottom of the import graph.
"""

import operator

import numpy as np

from repro.common import ExecutionError
from repro.engine.config import DEFAULT_SEGMENT_ENCODINGS
from repro.engine.types import DataType

#: Modeled width of one decoded value, in bytes, per data type.
VALUE_BYTES = {DataType.INT: 8, DataType.FLOAT: 8, DataType.TEXT: 24}

#: Dictionary encoding applies only while the dictionary stays bounded.
MAX_DICT_SIZE = 65536

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
    number = seen.setdefault
    return np.fromiter((number(v, len(seen)) for v in arr.tolist()),
                       dtype=np.int64, count=len(arr))


def span_ranks(arr):
    """``(ranks, ndv)`` of a non-empty integer array, in O(n) when its
    value span is below twice its length (else ``None``: sort instead):
    a ``bincount`` over the offsets from the minimum marks the values
    present, and their ``cumsum`` ranks each row among them — exactly
    ``np.unique``'s inverse."""
    lo = arr.min()
    if int(arr.max()) - int(lo) >= 2 * len(arr):
        return None
    # In intp: exact for narrow signed dtypes, and modulo 2**64
    # (still exact, the span being small) for uint64 past int64.
    offsets = np.subtract(arr, lo, dtype=np.intp)
    numbering = np.cumsum(np.bincount(offsets) > 0) - 1
    return numbering[offsets], int(numbering[-1]) + 1


def _factorize(arr):
    """Codes + dictionary of one segment's values: object (TEXT) values
    in first-appearance order, numeric values ascending (a stable sort,
    so of ``0.0``/``-0.0`` the first in row order is kept)."""
    if arr.dtype == object:
        seen = {}
        codes = object_codes(arr, seen)
        dictionary = np.empty(len(seen), dtype=object)
        dictionary[:] = list(seen)
        return codes, dictionary
    dictionary, __, codes = np.unique(arr, return_index=True,
                                      return_inverse=True)
    return codes, dictionary


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


def choose_encoding(arr, dtype, allowed=DEFAULT_SEGMENT_ENCODINGS, ndv=None):
    """Pick the encoding for one segment's values at seal time.

    Rules (first match wins):

    * FLOAT segments containing NaN, or both ``0.0`` and ``-0.0``, stay
      ``plain`` — a dictionary relies on equality, which NaN breaks and
      which cannot tell the two zeros apart.
    * ``"dict"`` when the distinct count is at most a quarter of the
      rows and the dictionary stays under :data:`MAX_DICT_SIZE` slots.
    * ``"plain"`` otherwise (always available as the fallback).

    ``ndv`` is the distinct count when the caller has it (the INT seal's
    :func:`span_ranks`). Returns the chosen encoding name.
    """
    n = len(arr)
    if n == 0:
        return "plain"
    if dtype is DataType.FLOAT:
        zero_signs = np.signbit(arr[arr == 0])
        if bool(np.isnan(arr).any()) or (
                zero_signs.any() and not zero_signs.all()):
            return "plain"
    if "dict" in allowed:
        if ndv is None:
            ndv = (len(set(arr.tolist())) if dtype is DataType.TEXT
                   else len(np.unique(arr)))
        if ndv <= min(n // 4, MAX_DICT_SIZE):
            return "dict"
    return "plain"


class ColumnSegment:
    """One immutable encoded slice of a column, with its zone map.

    Build via :meth:`encode`; the payload depends on :attr:`encoding`:

    * ``plain`` — ``values`` (the raw NumPy array);
    * ``dict`` — ``codes`` (narrow unsigned ints) + ``dictionary``
      (distinct values: ascending for INT/FLOAT, so a range predicate
      hits one run of codes; in first-appearance order for TEXT, whose
      MCV ties ANALYZE resolves in that order).

    A plain segment can also be wrapped directly around a typed array
    (a snapshot does, for the table's tail): no encoding choice, no copy.
    """

    __slots__ = ("encoding", "dtype", "n_rows", "values", "codes",
                 "dictionary", "_zone_map", "_value_counts")

    def __init__(self, encoding, dtype, n_rows, values=None, codes=None,
                 dictionary=None, zone_map=None):
        self.encoding = encoding
        self.dtype = dtype
        self.n_rows = int(n_rows)
        self.values = values
        self.codes = codes
        self.dictionary = dictionary
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
    def encode(cls, arr, dtype, allowed=DEFAULT_SEGMENT_ENCODINGS):
        """Seal ``arr`` (already in the column's NumPy dtype) into a segment."""
        ranked = (span_ranks(arr) if dtype is DataType.INT and len(arr)
                  and "dict" in allowed else None)
        ndv = None if ranked is None else ranked[1]
        if choose_encoding(arr, dtype, allowed, ndv) == "dict":
            if ranked is None:
                codes, dictionary = _factorize(arr)
            else:
                codes = ranked[0]
                dictionary = np.empty(ndv, dtype=arr.dtype)
                dictionary[codes] = arr
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
        return self.dictionary.take(self.codes)

    def take(self, ids):
        """Gather rows by segment-local ids without decoding the rest."""
        if self.encoding == "plain":
            return self.values[ids]
        return self.dictionary.take(self.codes.take(ids))

    def mask(self, predicates):
        """Boolean row mask of a conjunction on this column, evaluated in
        encoded space.

        ``predicates`` is a list of ``(op, value)`` pairs. Each is
        compared against the *dictionary* (dict: one comparison per
        distinct value) or the values (plain); the verdicts are ANDed
        there and, for a dictionary, mapped to rows once — one compare
        on the codes when the hit codes form one run (see
        :meth:`_codes_mask`), else ``take`` through the codes. The result
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
            return self._codes_mask(hits)
        return hits

    def _codes_mask(self, hits):
        """Map the dictionary's verdicts onto rows: one run of hit codes
        ``[lo, lo + width)`` is one compare on the codes (unsigned, so
        ``codes - lo`` wraps below ``lo``); scattered hits cost one
        lookup per row."""
        hit = np.flatnonzero(hits)
        if not len(hit):
            return np.zeros(self.n_rows, dtype=bool)
        lo, width = int(hit[0]), len(hit)
        if int(hit[-1]) - lo + 1 != width:
            return hits.take(self.codes)
        if width == 1:
            return self.codes == lo
        return self.codes - lo < width

    # -- statistics ----------------------------------------------------
    def value_counts(self):
        """``(values, counts)`` of the segment's distinct values, or ``None``.

        Free for dictionary segments, one pass for plain TEXT segments, one
        ``np.unique`` for plain numeric segments (which keeps the first of
        ``0.0``/``-0.0``, as a dict would) unless they already ascend
        strictly; computed once, cached, not to be mutated. Returns
        ``None`` when exact counting is unsound (FLOAT segments containing
        NaN), signalling callers to fall back to a full-column scan.
        """
        if self._value_counts is not None:
            return self._value_counts
        arr = self.values
        if self.encoding == "dict":
            values = self.dictionary
            counts = np.bincount(self.codes, minlength=len(values))
        elif self.dtype is DataType.TEXT:
            codes, values = _factorize(arr)
            counts = np.bincount(codes, minlength=len(values))
        elif self.dtype is DataType.FLOAT and bool(np.isnan(arr).any()):
            return None
        elif bool((arr[1:] > arr[:-1]).all()):
            values, counts = arr, np.ones(len(arr), dtype=np.int64)
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
        return (self.n_rows * self.codes.dtype.itemsize
                + len(self.dictionary) * width)

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

    Numeric values come out ascending: one run is returned as it is (not
    to be mutated), disjoint runs concatenated, and overlapping ones take
    a stable sort and, if a value repeats, ``reduceat`` (of ``0.0``/
    ``-0.0`` the first in segment order is kept); TEXT values in
    first-appearance order, numbered through one dict. ``None`` signals
    that some segment could not count exactly (NaN-bearing FLOAT), so
    the caller must fall back to the decoded column.
    """
    parts = [seg.value_counts() for seg in segments]
    if any(vc is None for vc in parts):
        return None
    parts = [vc for vc in parts if len(vc[0])]
    if len(parts) == 1:
        return parts[0]
    values = np.concatenate(
        [v for v, __ in parts] + [np.empty(0, dtype=dtype.numpy_dtype)])
    counts = np.concatenate([c for __, c in parts] + [np.empty(0, np.int64)])
    if dtype is DataType.TEXT:
        codes, values = _factorize(values)
        counts = np.bincount(codes, weights=counts, minlength=len(values))
        return values, counts.astype(np.int64)
    if any(not a[-1] < b[0] for (a, __), (b, __) in zip(parts, parts[1:])):
        order = np.argsort(values, kind="stable")
        values, counts = values[order], counts[order]
        starts = np.flatnonzero(np.r_[True, values[1:] != values[:-1]])
        if len(starts) < len(values):
            values, counts = values[starts], np.add.reduceat(counts, starts)
    return values, counts
