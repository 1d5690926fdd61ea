"""Columnar in-memory storage: segmented tables.

A :class:`Table` stores each column as a sequence of immutable, sealed
:class:`~repro.engine.segments.ColumnSegment` stripes (shared row-group
boundaries across columns) plus one tail of append-only typed NumPy
buffers. Appends go to the tail and seal into encoded segments at
``segment_rows`` capacity, so batched inserts never re-copy already
sealed data. A table reports its modeled *encoded* size
(:meth:`Table.encoded_bytes`, :meth:`Table.row_bytes`), which the view
advisor prices storage by; the cost model counts rows, not bytes.

There is one captured state: a :class:`TableSnapshot`. The live table
reads through its *current* snapshot (built on the first read after a
write, dropped by the next write), ``Table.snapshot()`` hands that same
object to readers who want to keep it, and ``Table.restore(snapshot)``
rewinds the table to one.

A snapshot *views* the tail (read-only ``buf[:n]``), never copies it.
What keeps held views exact: appends only write rows ``[n, n + k)`` of
a buffer, past every view handed out; growth, sealing,
``replace_column`` and ``restore`` move the live table to a fresh
buffer and never resume appending into one a snapshot may view.
"""

import numpy as np

from repro.common import CatalogError
from repro.engine.config import (
    DEFAULT_SEGMENT_ENCODINGS,
    DEFAULT_SEGMENT_ROWS,
    check_encodings,
)
from repro.engine.segments import (
    VALUE_BYTES,
    ColumnSegment,
    merge_value_counts,
)
from repro.engine.types import DataType, TableSchema


class RowGroup:
    """One horizontal stripe of sealed column segments.

    All segments in a group cover the same ``n_rows`` rows starting at
    table offset ``start``; ``segments`` maps lower-cased column name to
    its :class:`~repro.engine.segments.ColumnSegment`.
    """

    __slots__ = ("start", "n_rows", "segments")

    def __init__(self, start, n_rows, segments):
        self.start = int(start)
        self.n_rows = int(n_rows)
        self.segments = segments

    def __len__(self):
        return self.n_rows

    def __repr__(self):
        return "RowGroup(start=%d, rows=%d)" % (self.start, self.n_rows)


class TableSnapshot:
    """The state of a :class:`Table` at one version, immutable.

    Pins the table's sealed row groups by reference — they are never
    mutated after sealing (``insert_rows`` only appends groups,
    ``replace_column`` builds fresh ones) — plus the tail as one plain
    group of read-only views the writer only appends past (module
    docstring), so a writer appending to (or re-sealing) the live table
    never disturbs readers holding the snapshot. Building one costs
    O(#columns), whatever the tail holds; decoded columns and column
    sorts (what an index probes) are cached on it, so every holder of the
    same snapshot shares them and a write, which drops the table's
    current snapshot, drops them with it.

    This class *defines* the executor-facing read surface
    (``row_groups``/``column_array``/``rows``/``column_arrays``/``row``/
    ``sorted_column``/``column_value_counts``/``n_segments``);
    :class:`Table` reuses the very same functions, which read through
    ``self.snapshot()``. It is also what :meth:`Table.restore` rewinds to.
    """

    __slots__ = ("table", "schema", "version", "_groups", "_n_sealed",
                 "_n_rows", "_decoded", "_sorted")

    def __init__(self, table, decoded=None):
        #: The live :class:`Table` this state was captured from.
        self.table = table
        self.schema = table.schema
        self.version = table._version
        self._groups = list(table._groups)
        self._n_sealed = len(self._groups)
        self._n_rows = table._n_rows
        self._decoded = {} if decoded is None else decoded
        self._sorted = {}
        n = table._tail_rows
        if n:
            segs = {}
            for c in self.schema.columns:
                key = c.name.lower()
                view = table._tail[key][:n]
                view.flags.writeable = False
                segs[key] = ColumnSegment("plain", c.dtype, n, values=view)
            self._groups.append(RowGroup(self._n_rows - n, n, segs))

    def snapshot(self):
        """Snapshots are already immutable; return self."""
        return self

    @property
    def name(self):
        """Table name from the schema."""
        return self.schema.name

    @property
    def n_rows(self):
        """Row count (of the live table now, of a snapshot when taken)."""
        return self._n_rows

    def __len__(self):
        return self._n_rows

    # -- segment access ------------------------------------------------
    def row_groups(self):
        """All row groups in table order, the tail as a synthetic group.

        The tail (when non-empty) is exposed as a plain-encoded group so
        scans see one uniform sequence of segments.
        """
        return list(self.snapshot()._groups)

    @property
    def n_segments(self):
        """Number of row groups, counting the non-empty tail as one."""
        return len(self.snapshot()._groups)

    # -- reads ---------------------------------------------------------
    def column_array(self, name):
        """Column ``name`` as one decoded NumPy array (cached)."""
        snap = self.snapshot()
        col = snap.schema.column(name)
        key = col.name.lower()
        cached = snap._decoded.get(key)
        if cached is not None:
            return cached
        parts = [g.segments[key].decode() for g in snap._groups]
        if not parts:
            arr = np.empty(0, dtype=col.dtype.numpy_dtype)
        elif len(parts) == 1:
            arr = parts[0]
        else:
            arr = np.concatenate(parts)
        snap._decoded[key] = arr
        return arr

    def sorted_column(self, name):
        """``(keys, row_ids)``: column ``name`` stably sorted (cached).

        ``keys`` ascends and ``row_ids[i]`` is the row ``keys[i]`` came
        from, equal keys in row order. Only valid values are held — NaN
        (a FLOAT NULL) and ``None`` are left out — so ``np.searchsorted``
        on ``keys`` is exact and a probe never returns a NULL row.
        """
        snap = self.snapshot()
        col = snap.schema.column(name)
        key = col.name.lower()
        cached = snap._sorted.get(key)
        if cached is not None:
            return cached
        values = snap.column_array(key)
        if col.dtype is DataType.TEXT:
            row_ids = np.flatnonzero([v is not None for v in values])
        elif col.dtype is DataType.FLOAT:
            row_ids = np.flatnonzero(~np.isnan(values))
        else:
            row_ids = np.arange(len(values))
        values = values[row_ids]
        order = np.argsort(values, kind="stable")
        cached = snap._sorted[key] = (values[order], row_ids[order])
        return cached

    def rows(self, indices=None):
        """Materialize rows as a list of tuples (optionally a subset)."""
        arrays = list(self.column_arrays(indices).values())
        if not arrays:
            return []
        return list(zip(*(a.tolist() for a in arrays)))

    def column_arrays(self, row_ids=None, columns=None):
        """Column arrays as ``{name: array}``, optionally gathered by row id.

        Args:
            row_ids: optional integer array/sequence selecting rows (one
                fancy-indexing gather per column); ``None`` returns the
                cached decoded arrays themselves — callers must not
                mutate them.
            columns: optional iterable of column names to restrict to.
        """
        snap = self.snapshot()
        if columns is None:
            names = [c.name.lower() for c in snap.schema.columns]
        else:
            names = [c.lower() for c in columns]
        if row_ids is None:
            return {name: snap.column_array(name) for name in names}
        idx = np.asarray(row_ids, dtype=np.int64)
        return {name: snap.column_array(name)[idx] for name in names}

    def row(self, index):
        """One row as a tuple."""
        snap = self.snapshot()
        if not 0 <= index < snap._n_rows:
            raise IndexError("row index out of range")
        return tuple(
            snap.column_array(c.name)[index] for c in snap.schema.columns
        )

    # -- statistics ----------------------------------------------------
    def column_value_counts(self, name):
        """Merged per-segment value counts, or ``None`` when unsound.

        Returns ``(values, counts)`` arrays — numeric values ascending,
        TEXT values in first-appearance order — merging each segment's
        cached counts (:func:`~repro.engine.segments.merge_value_counts`):
        the incremental path ANALYZE uses instead of re-scanning the full
        column. ``None`` signals that some segment could not count
        exactly (NaN-bearing FLOAT), so the caller must fall back to the
        decoded column.
        """
        snap = self.snapshot()
        col = snap.schema.column(name)
        return merge_value_counts(
            [g.segments[col.name.lower()] for g in snap._groups], col.dtype)

    def __repr__(self):
        return "TableSnapshot(%r, rows=%d, version=%d)" % (
            self.name, self._n_rows, self.version
        )


class Table:
    """An in-memory table: a :class:`TableSchema` plus column segments.

    Rows can be appended (``insert_rows``) and read either row-wise
    (``rows()``) or column-wise (``column_array``). Sealed segments are
    the canonical representation; every read goes through the table's
    current :class:`TableSnapshot` (tail views + decoded-column cache),
    which the next write drops.
    """

    def __init__(self, schema, columns=None, segment_rows=None,
                 segment_encodings=None):
        if not isinstance(schema, TableSchema):
            raise CatalogError("Table needs a TableSchema")
        self.schema = schema
        self._segment_rows = (
            int(segment_rows) if segment_rows else DEFAULT_SEGMENT_ROWS
        )
        if self._segment_rows < 1:
            raise CatalogError("segment_rows must be >= 1")
        self._segment_encodings = (
            check_encodings(segment_encodings, CatalogError)
            if segment_encodings else DEFAULT_SEGMENT_ENCODINGS
        )
        self._groups = []
        #: Per-column typed buffers; rows ``[0, _tail_rows)`` are the tail.
        self._tail = self._fresh_tail()
        self._tail_rows = 0
        self._n_rows = 0
        self._version = 0
        self._write_hooks = []
        #: The current TableSnapshot; ``None`` between a write and the
        #: next read.
        self._current = None
        if columns is not None:
            normalized = {}
            n_rows = None
            for c in schema.columns:
                key = c.name.lower()
                if key not in {k.lower() for k in columns}:
                    raise CatalogError("missing data for column %r" % (c.name,))
                source = columns.get(c.name, columns.get(key))
                if source is None:
                    for k, v in columns.items():
                        if k.lower() == key:
                            source = v
                            break
                arr = np.asarray(source, dtype=c.dtype.numpy_dtype)
                if n_rows is None:
                    n_rows = len(arr)
                elif len(arr) != n_rows:
                    raise CatalogError(
                        "column %r has %d rows, expected %d"
                        % (c.name, len(arr), n_rows)
                    )
                normalized[key] = arr
            self._n_rows = n_rows or 0
            cap = self._segment_rows
            sealed = (self._n_rows // cap) * cap
            for start in range(0, sealed, cap):
                segs = {}
                for c in schema.columns:
                    key = c.name.lower()
                    segs[key] = ColumnSegment.encode(
                        normalized[key][start:start + cap], c.dtype,
                        self._segment_encodings,
                    )
                self._groups.append(RowGroup(start, cap, segs))
            self._tail = {k: arr[sealed:] for k, arr in normalized.items()}
            self._tail_rows = self._n_rows - sealed
            # The caller's arrays double as the decoded cache, so
            # column_array() stays zero-copy for freshly built tables.
            self._current = TableSnapshot(self, decoded=normalized)

    @property
    def segment_rows(self):
        """Capacity of one sealed segment, in rows."""
        return self._segment_rows

    @property
    def segment_encodings(self):
        """Encodings the sealer may choose among."""
        return self._segment_encodings

    @property
    def version(self):
        """Monotonic write counter: one bump per mutating call.

        Rows loaded through the constructor count as version 0 — the
        table is born at that state; every ``insert_rows`` /
        ``replace_column`` afterwards advances it by one.
        """
        return self._version

    def add_write_hook(self, hook):
        """Register ``hook(table, before, after)``, called after every
        mutating call with the row counts from before and after it.

        The catalog installs one of these so every write, direct
        ``Table.insert_rows`` bulk loads (the data generators) included,
        advances the table's catalog versions without reading any table
        state: the counts tell it whether the write crossed a row-count
        band (its plan version's rule).
        """
        self._write_hooks.append(hook)
        return hook

    def remove_write_hook(self, hook):
        """Unregister a previously added write hook (missing is a no-op)."""
        try:
            self._write_hooks.remove(hook)
        except ValueError:
            pass

    def _notify_write(self, before):
        self._version += 1
        for hook in list(self._write_hooks):
            hook(self, before, self._n_rows)

    # -- captured state ------------------------------------------------
    def snapshot(self):
        """The current :class:`TableSnapshot` — immutable, safe to keep.

        Free when nothing was written since the last read (the same
        object comes back, decoded columns included); O(#columns) after
        a write, to wrap read-only views of the tail buffers — no row is
        copied or re-encoded. Sealed row groups are shared by reference
        either way.
        """
        snap = self._current
        if snap is None:
            snap = self._current = TableSnapshot(self)
        return snap

    def restore(self, snapshot):
        """Rewind this table to one of its own snapshots.

        Puts back exactly the captured physical state — same sealed
        groups (by reference), same tail, same row count and ``version``
        — and makes ``snapshot`` the current one again. Deliberately
        fires **no** write hook: ``Catalog.restore`` owns the version
        bookkeeping of a rewind as a whole.
        """
        if snapshot.table is not self:
            raise CatalogError(
                "snapshot of %r was not taken from this table"
                % (snapshot.name,)
            )
        self._groups = snapshot._groups[:snapshot._n_sealed]
        self._tail = self._fresh_tail()
        self._tail_rows = 0
        for group in snapshot._groups[snapshot._n_sealed:]:
            # Exactly full views: the next append grows into a fresh buffer.
            self._tail = {k: seg.values for k, seg in group.segments.items()}
            self._tail_rows = group.n_rows
        self._n_rows = snapshot._n_rows
        self._version = snapshot.version
        self._current = snapshot

    # -- the read surface: one definition, shared with TableSnapshot -----
    name = TableSnapshot.name
    n_rows = TableSnapshot.n_rows
    __len__ = TableSnapshot.__len__
    row_groups = TableSnapshot.row_groups
    n_segments = TableSnapshot.n_segments
    column_array = TableSnapshot.column_array
    sorted_column = TableSnapshot.sorted_column
    rows = TableSnapshot.rows
    column_arrays = TableSnapshot.column_arrays
    row = TableSnapshot.row
    column_value_counts = TableSnapshot.column_value_counts

    # -- writes --------------------------------------------------------
    def insert_rows(self, rows):
        """Append rows (iterable of sequences aligned with the schema).

        The whole batch is typed first: a value its column cannot hold
        (NULL or overflow in INT, text in a number) raises
        :class:`CatalogError` and leaves the table as it was. The tail
        seals into encoded segments each time it reaches ``segment_rows``;
        they are never touched again, so N batched inserts are O(total
        rows), not O(n²).
        """
        rows = list(rows)
        if not rows:
            return 0
        width = len(self.schema.columns)
        for r in rows:
            if len(r) != width:
                raise CatalogError(
                    "row width %d does not match schema width %d"
                    % (len(r), width)
                )
        batch = {}
        for j, col in enumerate(self.schema.columns):
            coerce = col.dtype.coerce
            try:
                batch[col.name.lower()] = np.array(
                    [coerce(r[j]) for r in rows], dtype=col.dtype.numpy_dtype
                )
            except (TypeError, ValueError, OverflowError) as exc:
                raise CatalogError(
                    "%s column %r of table %r cannot hold an inserted "
                    "value: %s" % (col.dtype.name, col.name, self.name, exc)
                ) from None
        self._current = None
        before, cap = self._n_rows, self._segment_rows
        done = 0
        while done < len(rows):
            n = self._tail_rows
            end = min(n + len(rows) - done, cap)
            for key, arr in batch.items():
                buf = self._tail[key]
                if len(buf) < end:
                    # Grow into a fresh buffer, never past what the tail
                    # holds before sealing; snapshots keep the old one.
                    buf = np.empty(min(cap, max(end, 2 * len(buf))), buf.dtype)
                    buf[:n] = self._tail[key][:n]
                    self._tail[key] = buf
                buf[n:end] = arr[done:done + end - n]
            done += end - n
            self._n_rows += end - n
            self._tail_rows = end
            if end == cap:
                self._seal_tail()
        self._notify_write(before)
        return len(rows)

    def _fresh_tail(self):
        return {c.name.lower(): np.empty(0, dtype=c.dtype.numpy_dtype)
                for c in self.schema.columns}

    def _seal_tail(self):
        """Seal the full tail: its buffers, exactly ``segment_rows`` long
        by now, go to the encoder and the table starts fresh ones."""
        cap = self._segment_rows
        segs = {
            key: ColumnSegment.encode(
                buf, self.schema.column(key).dtype, self._segment_encodings)
            for key, buf in self._tail.items()
        }
        self._groups.append(RowGroup(self._n_rows - cap, cap, segs))
        self._tail = self._fresh_tail()
        self._tail_rows = 0

    def replace_column(self, name, values):
        """Replace one column's values wholesale (length must match).

        Re-seals the column's segments along the existing row-group
        boundaries; other columns are untouched. Fresh :class:`RowGroup`
        objects are built rather than mutated in place, so row groups a
        :class:`TableSnapshot` pinned before the replace keep serving the
        old values.
        """
        col = self.schema.column(name)
        key = col.name.lower()
        arr = np.asarray(values, dtype=col.dtype.numpy_dtype)
        if len(arr) != self._n_rows:
            raise CatalogError(
                "column %r has %d rows, expected %d"
                % (name, len(arr), self._n_rows)
            )
        new_groups = []
        for g in self._groups:
            segments = dict(g.segments)
            segments[key] = ColumnSegment.encode(
                arr[g.start:g.start + g.n_rows], col.dtype,
                self._segment_encodings,
            )
            new_groups.append(RowGroup(g.start, g.n_rows, segments))
        self._current = None
        self._groups = new_groups
        self._tail[key] = arr[self._n_rows - self._tail_rows:]
        self._notify_write(self._n_rows)

    # -- byte model ----------------------------------------------------
    def column_encoded_bytes(self, name):
        """Modeled encoded bytes of one column (tail counted as plain)."""
        col = self.schema.column(name)
        key = col.name.lower()
        total = sum(g.segments[key].encoded_bytes() for g in self._groups)
        return total + self._tail_rows * VALUE_BYTES[col.dtype]

    def encoded_bytes(self):
        """Modeled encoded bytes of the whole table."""
        return sum(
            self.column_encoded_bytes(c.name) for c in self.schema.columns
        )

    def row_bytes(self):
        """Modeled bytes per row, averaged over encoded segments.

        An integer whenever the average is integral (always true for
        all-plain storage, where it equals the schema's value-width sum).
        """
        if not self._n_rows:
            return sum(VALUE_BYTES[c.dtype] for c in self.schema.columns)
        per_row = self.encoded_bytes() / self._n_rows
        return int(per_row) if per_row == int(per_row) else per_row

    def __repr__(self):
        return "Table(%r, rows=%d, segments=%d)" % (
            self.name, self._n_rows,
            len(self._groups) + (1 if self._tail_rows else 0),
        )
