"""Engine-independent expected results, straight from the generator's arrays.

A workload statement is a :class:`Query` — a tiny declarative spec that
:func:`render` turns into SQL text for the engine and :func:`evaluate`
answers with NumPy over the generated column arrays. The engine never
sees the spec and the oracle never sees the engine, so agreement means
agreeing with something other than ourselves (ROADMAP aim 3).

:class:`MixedLedger` holds the ``mixed_rw`` invariants: per-client
``COUNT(*)`` monotonicity, final table contents equal to the initial
rows plus the seed-determined inserts, and one commit per write.
"""

import math
import operator

import numpy as np

_OPS = {"=": operator.eq, "<": operator.lt, "<=": operator.le,
        ">": operator.gt, ">=": operator.ge}


class Query:
    """One conjunctive SELECT.

    Attributes:
        tables: table names, the driving (leftmost) table first.
        joins: ``(left_table, left_col, right_table, right_col)``
            equi-joins; every right column must be unique (an N:1
            lookup), which holds for every ``id`` in the catalog.
        where: ``(table, column, op, literal)`` predicates.
        select: output items — ``("col", table, column)`` or
            ``(func, table, column)`` with func in count/sum/avg/min/max
            (``("count", None, None)`` is ``COUNT(*)``).
        group: ``(table, column)`` or ``None``.
    """

    __slots__ = ("tables", "joins", "where", "select", "group")

    def __init__(self, tables, select, where=(), joins=(), group=None):
        self.tables = tuple(tables)
        self.joins = tuple(joins)
        self.where = tuple(where)
        self.select = tuple(select)
        self.group = group


def _literal(value):
    return "'%s'" % value if isinstance(value, str) else repr(value)


def render(query):
    """The SQL text of ``query`` (fully qualified column names)."""
    items = []
    for func, table, column in query.select:
        if func == "col":
            items.append("%s.%s" % (table, column))
        elif column is None:
            items.append("COUNT(*)")
        else:
            items.append("%s(%s.%s)" % (func.upper(), table, column))
    conds = ["%s.%s = %s.%s" % j for j in query.joins]
    conds += ["%s.%s %s %s" % (t, c, op, _literal(v))
              for t, c, op, v in query.where]
    sql = "SELECT %s FROM %s" % (", ".join(items), ", ".join(query.tables))
    if conds:
        sql += " WHERE " + " AND ".join(conds)
    if query.group is not None:
        sql += " GROUP BY %s.%s" % query.group
    return sql


def _aggregate(func, values):
    if func == "count":
        return int(len(values))
    if len(values) == 0:
        return None
    if func == "sum":
        return values.sum().item()
    if func == "avg":
        return float(values.mean())
    if func == "min":
        return values.min().item()
    return values.max().item()


def evaluate(query, tables):
    """Expected rows of ``query`` over ``tables[name][column]`` arrays.

    Row order is unspecified (compare with :func:`rows_match`).
    """
    first = query.tables[0]
    frame = {first: np.arange(len(tables[first]["id"]))}
    for lt, lc, rt, rc in query.joins:
        right = tables[rt][rc]
        order = np.argsort(right, kind="stable")
        keys = right[order]
        if len(keys) > 1 and bool((keys[1:] == keys[:-1]).any()):
            raise ValueError("join target %s.%s is not unique" % (rt, rc))
        probe = tables[lt][lc][frame[lt]]
        pos = np.minimum(np.searchsorted(keys, probe), len(keys) - 1)
        hit = keys[pos] == probe
        frame = {t: idx[hit] for t, idx in frame.items()}
        frame[rt] = order[pos[hit]]
    keep = np.ones(len(frame[first]), dtype=bool)
    for t, c, op, value in query.where:
        keep &= _OPS[op](tables[t][c][frame[t]], value)
    frame = {t: idx[keep] for t, idx in frame.items()}

    def column(t, c):
        return tables[t][c][frame[t]]

    if all(func == "col" for func, __, __ in query.select):
        arrays = [column(t, c).tolist() for __, t, c in query.select]
        return list(zip(*arrays))
    if query.group is None:
        return [tuple(
            _aggregate(func, frame[first] if c is None else column(t, c))
            for func, t, c in query.select
        )]
    keys = column(*query.group)
    rows = []
    for key in sorted(set(keys.tolist())):
        member = keys == key
        row = []
        for func, t, c in query.select:
            if func == "col":
                row.append(key)
            else:
                values = member if c is None else column(t, c)
                row.append(_aggregate(func, values[member]))
        rows.append(tuple(row))
    return rows


def _sort_key(row):
    return tuple((v is None, 0 if v is None else v) for v in row)


def rows_match(actual, expected, rel_tol=1e-9):
    """Multiset equality; ints and strings exact, floats to ``rel_tol``
    (the engine and NumPy may sum in different orders)."""
    if len(actual) != len(expected):
        return False
    try:
        pairs = zip(sorted(actual, key=_sort_key),
                    sorted(expected, key=_sort_key))
        for got, want in pairs:
            if len(got) != len(want):
                return False
            for a, b in zip(got, want):
                if isinstance(a, float) or isinstance(b, float):
                    if a is None or b is None or not math.isclose(
                            a, b, rel_tol=rel_tol, abs_tol=1e-12):
                        return False
                elif a != b:
                    return False
    except TypeError:
        return False
    return True


class MixedLedger:
    """Ground truth for ``mixed_rw``: what the write tables must hold.

    Built from the generated arrays plus the seed-determined write plan
    (``writes``: ``(table_or_None, rows)`` per planned write, ANALYZE
    carrying no table); the engine's answers are checked against it,
    never the reverse.
    """

    def __init__(self, data, w_tables, writes):
        self.initial = {t: data.n_rows(t) for t in w_tables}
        self._rows = dict(self.initial)
        self._k_sum = {t: int(data.tables[t]["k"].sum()) for t in w_tables}
        self.commits = 0
        for table, rows in writes:
            self.commits += 1
            if table is not None:
                self._rows[table] += len(rows)
                self._k_sum[table] += sum(r[1] for r in rows)
        self._last_count = {}

    def count_ok(self, client, table, count, own_rows):
        """A ``COUNT(*)`` a client read: monotone per client, and at
        least the initial rows plus that client's acknowledged inserts."""
        key = (client, table)
        ok = (count >= self._last_count.get(key, 0)
              and count >= self.initial[table] + own_rows)
        self._last_count[key] = count
        return ok

    def final_rows(self, table):
        """Expected ``[(COUNT(*), SUM(k))]`` once every write landed."""
        return [(self._rows[table], self._k_sum[table])]
