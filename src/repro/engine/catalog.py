"""Catalog: tables, statistics, indexes (real and what-if), views.

The catalog is the surface the AI4DB advisors act on: the index advisor
creates/drops (possibly hypothetical) indexes, the view advisor registers
materialized views, ANALYZE refreshes the statistics the traditional
optimizer estimates from.
"""

from repro.common import CatalogError
from repro.engine.stats import TableStats
from repro.engine.storage import Table
from repro.engine.types import ColumnSchema, TableSchema


class IndexDef:
    """Catalog entry for an index: metadata only.

    The data a probe reads is the indexed column's cached sort on the
    table snapshot the plan runs over (``TableSnapshot.sorted_column``),
    so a definition never goes stale and survives writes unchanged.

    Attributes:
        name: unique index name.
        table: indexed table name.
        column: indexed column name.
        kind: ``"btree"`` or ``"hash"`` (a hash index answers only ``=``).
        hypothetical: when True the index cannot be probed — it exists
            only for what-if costing (the index-advisor workflow).
    """

    def __init__(self, name, table, column, kind="btree", hypothetical=False):
        if kind not in ("btree", "hash"):
            raise CatalogError("index kind must be 'btree' or 'hash'")
        self.name = name
        self.table = table
        self.column = column
        self.kind = kind
        self.hypothetical = hypothetical

    def size_bytes(self, n_rows):
        """Modeled size: one key + one pointer per row plus 20% overhead."""
        return int(n_rows * (8 + 8) * 1.2)

    def __repr__(self):
        tag = "what-if " if self.hypothetical else ""
        return "IndexDef(%s%s on %s.%s, %s)" % (
            tag, self.name, self.table, self.column, self.kind
        )


class ViewDef:
    """Catalog entry for a materialized view.

    The view materializes the join result of ``query`` with *all* columns of
    the joined tables (wide rows), so any query over the same table set and
    join edges whose predicates subsume the view's can be answered from it
    by applying residual predicates.

    Attributes:
        name: view name.
        query: the defining :class:`~repro.engine.query.ConjunctiveQuery`.
        table: the materialized :class:`~repro.engine.storage.Table`; column
            names are ``table__column``.
    """

    def __init__(self, name, query, table):
        self.name = name
        self.query = query
        self.table = table

    @property
    def n_rows(self):
        """Materialized row count."""
        return self.table.n_rows

    def size_bytes(self):
        """Modeled storage footprint of the materialization."""
        return self.table.n_rows * self.table.row_bytes()

    def matches(self, query):
        """Whether ``query`` can be answered from this view.

        Requires the same table set, the same join-edge set, and the view's
        predicates to be a subset of the query's predicates. Returns the
        residual predicates to apply on the view, or ``None`` when the view
        does not apply.
        """
        if set(t.lower() for t in query.tables) != set(
            t.lower() for t in self.query.tables
        ):
            return None
        if set(e.key() for e in query.join_edges) != set(
            e.key() for e in self.query.join_edges
        ):
            return None
        view_preds = set(p.key() for p in self.query.predicates)
        query_preds = set(p.key() for p in query.predicates)
        if not view_preds <= query_preds:
            return None
        return [p for p in query.predicates if p.key() not in view_preds]

    def __repr__(self):
        return "ViewDef(%r, rows=%d)" % (self.name, self.n_rows)


def _vector(versions, tables):
    if tables is None:
        names = sorted(versions)
    else:
        names = sorted({t.lower() for t in tables})
    return tuple((n, versions.get(n, 0)) for n in names)


class CatalogSnapshot:
    """The state of a :class:`Catalog` at one version vector, immutable.

    Pins each table's current :class:`~repro.engine.storage.
    TableSnapshot` plus the statistics, index, and view definitions and
    both version vectors as of capture time. The executor runs plans
    against one exactly as against the live catalog; mutating methods do
    not exist, so a write attempt fails loudly. It is also what
    :meth:`Catalog.restore` rewinds to.

    This class *defines* the lookup surface (``schema_epoch``/
    ``version``/``version_vector``/``plan_version_vector``/``table``/
    ``has_table``/``table_names``/``indexes``/``index_on``/``views``/
    ``matching_view``); :class:`Catalog` reuses the very same functions
    over its live maps.

    An index created *after* the capture is absent here, so a plan
    probing it raises (plans are built against the live catalog). An
    index definition is metadata — a probe reads the pinned table
    snapshot's own sort — and a view definition is never mutated once
    registered (the live catalog drops it when its rows change), so both
    keep matching the pinned rows.
    """

    __slots__ = ("_tables", "_stats", "_lazy_stats", "_indexes", "_views",
                 "_versions", "_plan_versions", "_schema_epoch")

    def __init__(self, catalog):
        self._tables = {
            key: table.snapshot() for key, table in catalog._tables.items()
        }
        self._stats = dict(catalog._stats)
        self._lazy_stats = {}
        self._indexes = dict(catalog._indexes)
        self._views = dict(catalog._views)
        self._versions = dict(sorted(catalog._versions.items()))
        self._plan_versions = dict(catalog._plan_versions)
        self._schema_epoch = catalog._schema_epoch

    def snapshot(self):
        """Snapshots are already immutable; return self."""
        return self

    @property
    def schema_epoch(self):
        """Version of the *table set* alone (create/drop table).

        Inserts, ANALYZE, and index/view changes leave it untouched — it
        invalidates only what depends on name resolution, such as the
        pipeline's SQL-text → lowered-query cache.
        """
        return self._schema_epoch

    def version(self, name):
        """The monotonic data version of one table (0 if never seen)."""
        return self._versions.get(name.lower(), 0)

    def version_vector(self, tables=None):
        """Sorted ``((name, version), ...)`` of data versions over
        ``tables`` (or all): the token of whatever depends on the rows."""
        return _vector(self._versions, tables)

    def plan_version_vector(self, tables=None):
        """Sorted ``((name, plan version), ...)`` over ``tables`` (or
        all): the plan caches' invalidation token (see :class:`Catalog`)."""
        return _vector(self._plan_versions, tables)

    def version_map(self):
        """``{table: version}`` in name order, by reference: read only."""
        return self._versions

    def table(self, name):
        """Look up a table (live) / pinned table snapshot by name."""
        try:
            return self._tables[name.lower()]
        except KeyError:
            raise CatalogError("no table named %r" % (name,))

    def has_table(self, name):
        """Whether the table exists."""
        return name.lower() in self._tables

    def table_names(self):
        """All table names (sorted)."""
        return sorted(t.name for t in self._tables.values())

    def stats(self, name):
        """Statistics for a table, computed lazily over the *pinned* data.

        A lazily computed entry is kept beside the captured map, never in
        it: the live catalog never observes a snapshot read, and
        ``Catalog.restore`` puts the statistics back exactly as captured.
        """
        key = name.lower()
        stats = self._stats.get(key) or self._lazy_stats.get(key)
        if stats is None:
            stats = self._lazy_stats[key] = TableStats.build(self.table(name))
        return stats

    def indexes(self, table=None):
        """All indexes, optionally restricted to one table."""
        out = list(self._indexes.values())
        if table is not None:
            out = [i for i in out if i.table.lower() == table.lower()]
        return out

    def index_on(self, table, column, include_hypothetical=True):
        """The index on ``table.column`` if one exists, else ``None``."""
        for idx in self._indexes.values():
            if (
                idx.table.lower() == table.lower()
                and idx.column.lower() == column.lower()
                and (include_hypothetical or not idx.hypothetical)
            ):
                return idx
        return None

    def views(self):
        """All materialized views."""
        return list(self._views.values())

    def matching_view(self, query):
        """Find ``(view, residual_predicates)`` answering ``query``, if any.

        Prefers the view with the fewest rows (cheapest to scan).
        """
        best = None
        for view in self._views.values():
            residual = view.matches(query)
            if residual is None:
                continue
            if best is None or view.n_rows < best[0].n_rows:
                best = (view, residual)
        return best

    def __repr__(self):
        return "CatalogSnapshot(tables=%d)" % len(self._tables)


class Catalog:
    """Holds all tables, statistics, indexes, and materialized views.

    Each table has two monotonic **per-table** versions, both stored
    counters, so reading either never touches a table:

    * the **data version** (:meth:`version` / :meth:`version_vector`)
      moves on every mutation: DDL, ANALYZE, index and view changes bump
      it explicitly, and a write hook installed on every table covers
      each write, direct ``Table.insert_rows`` bulk loads (the data
      generators) included, without any polling of row counts.
      Snapshots, the server's commit log, sessions and the estimator
      memos that count rows key on it;
    * the **plan version** (:meth:`plan_version_vector`), the plan
      caches' token, moves only where a plan could come out different:
      DDL, ANALYZE (lazy or explicit), index and view changes, a write
      that drops a view over the table, and a write that takes the row
      count into a new power-of-two band (``n.bit_length()``), which the
      planner's scan-vs-index choice reads. A plan kept across any other
      write reads its rows from the snapshot it runs on; an installed
      estimator that reads live rows has its plans refreshed only at
      ANALYZE or at a band crossing.

    A coarser :attr:`schema_epoch` moves only when the set of tables
    changes (what SQL-text lowering depends on). Caches key on a vector
    restricted to the tables they cover, so a hot writer on one table
    never invalidates plans over the others.

    Every mutating call bumps a table version as its last change, and
    each bump moves a private generation counter; :meth:`snapshot` hands
    out one :class:`CatalogSnapshot` per generation.
    """

    def __init__(self, segment_rows=None, segment_encodings=None):
        self._tables = {}
        self._stats = {}
        self._indexes = {}
        self._views = {}
        # Per-table versions survive drop_table (the entry is the floor a
        # re-created table of the same name continues from), keeping
        # every published version monotonic.
        self._versions = {}
        self._plan_versions = {}
        self._schema_epoch = 0
        self._generation = 0
        self._current = None  # (generation, CatalogSnapshot)
        # Storage knobs applied to tables this catalog creates; ``None``
        # means the Table defaults. Pre-built tables (register_table)
        # keep whatever layout they were constructed with.
        self.segment_rows = segment_rows
        self.segment_encodings = segment_encodings

    def _bump_table(self, name, plan=True):
        key = name.lower()
        self._versions[key] = self._versions.get(key, 0) + 1
        if plan:
            self._plan_versions[key] = self._plan_versions.get(key, 0) + 1
        self._generation += 1

    def _on_table_write(self, table, before, after):
        """The write hook on every registered table, handed the row counts
        from before and after the write: bump its data version, drop every
        materialized view reading it, and bump its plan version too when
        a view went or the count entered a new power-of-two band.

        Reads no rows and no table state. Indexes need nothing: the write
        dropped the table's current snapshot and its column sorts with it,
        the next probe re-sorts, and snapshots pinned earlier keep their
        own.
        """
        key = table.name.lower()
        dropped = self._drop_views_over(key)
        self._bump_table(
            key, plan=dropped or before.bit_length() != after.bit_length())

    def _drop_views_over(self, key):
        """Drop every view reading table ``key``; whether any was."""
        names = [n for n, v in self._views.items()
                 if key in (t.lower() for t in v.query.tables)]
        for name in names:
            del self._views[name]
        return bool(names)

    # -- the lookup surface: one definition, shared with CatalogSnapshot --
    schema_epoch = CatalogSnapshot.schema_epoch
    version = CatalogSnapshot.version
    version_vector = CatalogSnapshot.version_vector
    plan_version_vector = CatalogSnapshot.plan_version_vector
    table = CatalogSnapshot.table
    has_table = CatalogSnapshot.has_table
    table_names = CatalogSnapshot.table_names
    indexes = CatalogSnapshot.indexes
    index_on = CatalogSnapshot.index_on
    views = CatalogSnapshot.views
    matching_view = CatalogSnapshot.matching_view

    def version_map(self):
        """``{table: version}`` in name order, a copy."""
        return dict(self.version_vector())

    # ------------------------------------------------------------------
    # Tables
    # ------------------------------------------------------------------
    def create_table(self, name, columns, sensitive=()):
        """Create an empty table.

        Args:
            name: table name.
            columns: list of ``(name, type)`` pairs or :class:`ColumnSchema`.
            sensitive: column names to flag as sensitive (ground truth for
                the security experiments).

        Returns:
            the new :class:`Table`.
        """
        key = name.lower()
        if key in self._tables:
            raise CatalogError("table %r already exists" % (name,))
        sensitive_set = {s.lower() for s in sensitive}
        cols = []
        for c in columns:
            if isinstance(c, ColumnSchema):
                cols.append(c)
            else:
                cname, ctype = c
                cols.append(
                    ColumnSchema(
                        cname, ctype, sensitive=cname.lower() in sensitive_set
                    )
                )
        table = Table(
            TableSchema(name, cols),
            segment_rows=self.segment_rows,
            segment_encodings=self.segment_encodings,
        )
        self._tables[key] = table
        table.add_write_hook(self._on_table_write)
        self._schema_epoch += 1
        self._bump_table(key)
        return table

    def register_table(self, table):
        """Register a pre-built :class:`Table` (used by the data generators)."""
        key = table.name.lower()
        if key in self._tables:
            raise CatalogError("table %r already exists" % (table.name,))
        self._tables[key] = table
        table.add_write_hook(self._on_table_write)
        self._schema_epoch += 1
        self._bump_table(key)
        return table

    def drop_table(self, name):
        """Drop a table and its dependent stats, indexes and views.

        The table's version entries are kept (and bumped): a later table
        of the same name continues from them, so versions never move
        backward.
        """
        key = name.lower()
        if key not in self._tables:
            raise CatalogError("no table named %r" % (name,))
        self._tables[key].remove_write_hook(self._on_table_write)
        del self._tables[key]
        self._stats.pop(key, None)
        for idx_name in [
            n for n, d in self._indexes.items() if d.table.lower() == key
        ]:
            del self._indexes[idx_name]
        self._drop_views_over(key)
        self._schema_epoch += 1
        self._bump_table(key)

    # ------------------------------------------------------------------
    # Statistics
    # ------------------------------------------------------------------
    def analyze(self, name=None, n_buckets=32):
        """Collect statistics for one table (or all tables when ``None``)."""
        if name is None:
            for t in list(self._tables.values()):
                self.analyze(t.name, n_buckets=n_buckets)
            return None
        table = self.table(name)
        stats = TableStats.build(table, n_buckets=n_buckets)
        self._stats[name.lower()] = stats
        self._bump_table(name)
        return stats

    def stats(self, name):
        """Statistics for a table, computing them lazily if missing."""
        key = name.lower()
        if key not in self._stats:
            self.analyze(name)
        return self._stats[key]

    # ------------------------------------------------------------------
    # Indexes
    # ------------------------------------------------------------------
    def create_index(self, name, table, column, kind="btree", hypothetical=False):
        """Create a (real or what-if) single-column index."""
        if name.lower() in {n.lower() for n in self._indexes}:
            raise CatalogError("index %r already exists" % (name,))
        target = self.table(table)
        col = target.schema.column(column)  # validates the column exists
        idx = IndexDef(name, target.name, col.name, kind, hypothetical)
        if not hypothetical:
            target.sorted_column(col.name)  # DDL pays for the first sort
        self._indexes[name] = idx
        self._bump_table(idx.table)
        return idx

    def drop_index(self, name):
        """Drop an index by name."""
        for key in list(self._indexes):
            if key.lower() == name.lower():
                table = self._indexes[key].table
                del self._indexes[key]
                self._bump_table(table)
                return
        raise CatalogError("no index named %r" % (name,))

    # ------------------------------------------------------------------
    # Materialized views
    # ------------------------------------------------------------------
    def register_view(self, view):
        """Register a materialized :class:`ViewDef`."""
        key = view.name.lower()
        if key in self._views:
            raise CatalogError("view %r already exists" % (view.name,))
        self._views[key] = view
        # A view changes planning for queries over its base tables (the
        # planner may now answer from it), so those are what it bumps.
        for t in view.query.tables:
            self._bump_table(t)
        return view

    def drop_view(self, name):
        """Drop a materialized view."""
        key = name.lower()
        if key not in self._views:
            raise CatalogError("no view named %r" % (name,))
        view = self._views.pop(key)
        for t in view.query.tables:
            self._bump_table(t)

    def view_size_total(self):
        """Total modeled bytes across all materialized views."""
        return sum(v.size_bytes() for v in self._views.values())

    # ------------------------------------------------------------------
    # Snapshots
    # ------------------------------------------------------------------
    def snapshot(self):
        """The immutable :class:`CatalogSnapshot` of the current state.

        The same object until the next mutation, as ``Table.snapshot()``
        per table. The first call after one builds it: O(#tables), each
        table handing back its current
        :class:`~repro.engine.storage.TableSnapshot` (O(#columns) for a
        written table, whose tail is viewed, never copied). The
        generation is read before building and a mutation moves it after
        its last change, so a snapshot built mid-mutation is never handed
        to a later reader. Holders see this exact catalog (tables, stats,
        indexes, views, versions) whatever writers do afterwards.
        """
        generation, current = self._generation, self._current
        if current is not None and current[0] == generation:
            return current[1]
        snap = CatalogSnapshot(self)
        self._current = (generation, snap)
        return snap

    def restore(self, snapshot):
        """Rewind this catalog, and every table in it, to ``snapshot``.

        Puts the captured state back bit-identically:

        * tables created after the capture are detached (their write
          hook is removed, so later writes through a stale reference
          cannot bump versions or touch indexes);
        * tables dropped after the capture come back, each live
          :class:`~repro.engine.storage.Table` rewound to its pinned
          :class:`~repro.engine.storage.TableSnapshot`;
        * statistics, index and view definitions, both version vectors
          and the schema epoch return to the captured values.

        Restoring fires no write hook and moves versions **backward** —
        the one deliberate exception to the catalog's monotonicity rule,
        sound because the data is rewound with them (a cached plan whose
        token matches again planned over bit-identical state). Callers
        that cached plans *during* the rewound window must drop them:
        the session API calls ``pipeline.invalidate()`` after every
        restore. Idempotent; ``snapshot`` becomes the current one.
        """
        hook = self._on_table_write
        for table in self._tables.values():
            table.remove_write_hook(hook)
        self._tables = {}
        for key, pinned in snapshot._tables.items():
            pinned.table.restore(pinned)
            pinned.table.add_write_hook(hook)
            self._tables[key] = pinned.table
        self._stats = dict(snapshot._stats)
        self._indexes = dict(snapshot._indexes)
        self._views = dict(snapshot._views)
        self._versions = dict(snapshot._versions)
        self._plan_versions = dict(snapshot._plan_versions)
        self._schema_epoch = snapshot._schema_epoch
        self._generation += 1
        self._current = (self._generation, snapshot)

    # ------------------------------------------------------------------
    def describe(self):
        """Human-readable one-line-per-object summary (for examples/demos)."""
        lines = []
        for t in sorted(self._tables.values(), key=lambda x: x.name.lower()):
            lines.append(
                "table %s(%s) rows=%d"
                % (
                    t.name,
                    ", ".join(
                        "%s %s" % (c.name, c.dtype.value) for c in t.schema.columns
                    ),
                    t.n_rows,
                )
            )
        for i in self.indexes():
            lines.append("index %s on %s.%s (%s)%s" % (
                i.name, i.table, i.column, i.kind,
                " [what-if]" if i.hypothetical else "",
            ))
        for v in self.views():
            lines.append("view %s rows=%d" % (v.name, v.n_rows))
        return "\n".join(lines)
