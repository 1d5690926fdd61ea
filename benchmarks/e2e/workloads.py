"""The four workloads: seeded statement streams, one stressed layer each.

Every workload is a closed loop (a client issues its next statement only
after the previous reply), because the callers of an embedded analytics
engine wait for replies. The engine receives only SQL text or row
tuples; the specs (:class:`oracle.Query`) stay on the benchmark's side.

An *op* is a tuple ``(kind, arg, check)``:

* ``("read", sql, check)`` with ``check`` one of ``("golden", i)`` —
  rows must equal warm statement ``i``'s oracle-verified rows;
  ``("cold", i)`` — rows are kept and verified against the oracle after
  the timed window; ``("count", table)`` — the ``mixed_rw`` monotone
  ``COUNT(*)``; ``("shape", n_columns)`` — one row of that width (the
  exact value depends on the interleaving of concurrent writers).
* ``("insert_sql", sql, ("status", "INSERT 1", table, rows))``
* ``("insert_rows", (table, rows), ("status", n, table, rows))``
* ``("analyze", sql, ("status", "ANALYZE", None, ()))``

Mixing rules that keep the percentiles steady across seeds: statement
*classes* have fixed shares of every block (only the order and the
literals move with the seed), and the shares are chosen so that the
median and the 95th percentile each fall well inside one class instead
of on the border between two.
"""

import numpy as np

from dataset import C_VALUES, D_ROWS, W_TABLES
from oracle import Query, render

COUNT = ("count", None, None)

#: Traffic share of each ``point_warm`` class per block of 20, and how
#: many distinct statements each class holds (48 in all — they fit the
#: 256-entry plan cache, so both caches always hit).
POINT_CLASSES = (
    ("f_point", 9, 20),
    ("f_range", 4, 10),
    ("d_point", 3, 8),
    ("d_join", 4, 10),
)

#: Tables joined by the statement in each of ``cold_plan``'s 10 slots:
#: the median falls in the 3-table class (40..70%) and the 95th
#: percentile in the 4-table class (70..100%). The order is the same for
#: every seed, because the slot number is also a literal (``b <= slot``)
#: and so decides how much each class filters.
COLD_PATTERN = (1, 1, 2, 2, 3, 3, 3, 4, 4, 4)

#: ``mixed_rw`` block of 100 statements per client: 80 reads, 20 writes.
MIXED_BLOCK = (("count", 24), ("w_agg", 24), ("d_point", 16),
               ("f_point", 16), ("insert_sql", 10), ("insert_rows", 10))
BULK_ROWS = 64
ANALYZE_EVERY = 400


def zipf_weights(n, s=1.2):
    w = 1.0 / np.arange(1, n + 1) ** s
    return w / w.sum()


def _cols(table, *names):
    return tuple(("col", table, n) for n in names)


def f_point(row_id):
    return Query(["f"], _cols("f", "id", "k", "g", "v", "c"),
                 where=[("f", "id", "=", int(row_id))])


def d_point(row_id):
    return Query(["d1"], _cols("d1", "id", "a", "b"),
                 where=[("d1", "id", "=", int(row_id))])


class Workload:
    """A named statement stream.

    Attributes:
        name: workload name (as in ``BENCHMARK.json``).
        n_clients: load-generating threads (never more than ``nproc``).
        golden: warm :class:`Query` list; ``("golden", i)`` indexes it.
        fixed_count: statements per client when the workload is
            count-bound (``mixed_rw``), else ``None`` (time-bound).
    """

    def __init__(self, name, n_clients=1, golden=(), fixed_count=None):
        self.name = name
        self.n_clients = n_clients
        self.golden = list(golden)
        self.golden_sql = [render(q) for q in self.golden]
        self.fixed_count = fixed_count

    def ops(self, client):
        """The (possibly endless) op iterator of one client."""
        raise NotImplementedError

    def warmup_sql(self):
        """Statements run once, untimed, before measuring."""
        return list(self.golden_sql)

    def _golden_op(self, i):
        return ("read", self.golden_sql[i], ("golden", i))


def _cycle(indices, make_op):
    ops = [make_op(i) for i in indices]
    while True:
        yield from ops


class PointWarm(Workload):
    """48 warm point/range/small-join statements, Zipf-chosen."""

    BLOCKS = 500

    def __init__(self, seed, data):
        rng = np.random.default_rng([seed, 1])
        n_f = data.n_rows("f")
        golden = []
        self._classes = []
        for name, share, n_distinct in POINT_CLASSES:
            start = len(golden)
            if name == "f_point":
                ids = rng.choice(n_f, n_distinct, replace=False)
                golden += [f_point(i) for i in ids]
            elif name == "f_range":
                # Near the low end of the key space: the engine's index
                # range scan reads from one bound only, so its cost grows
                # with the distance from the nearer end, and this class
                # is here for the per-statement route, not for that scan.
                for lo in rng.choice(n_f // 100, n_distinct, replace=False):
                    golden.append(Query(
                        ["f"], _cols("f", "id", "v"),
                        where=[("f", "id", ">=", int(lo)),
                               ("f", "id", "<", int(lo) + 100)]))
            elif name == "d_point":
                ids = rng.choice(D_ROWS, n_distinct, replace=False)
                golden += [d_point(i) for i in ids]
            else:
                for x in rng.choice(np.arange(10, 91), n_distinct,
                                    replace=False):
                    golden.append(Query(
                        ["d1", "d2"], [COUNT, ("sum", "d2", "b")],
                        joins=[("d1", "id", "d2", "id")],
                        where=[("d1", "a", "<", int(x))]))
            self._classes.append((start, share, n_distinct))
        super().__init__("point_warm", golden=golden)
        slots = np.repeat(np.arange(len(self._classes)),
                          [share for __, share, __ in self._classes])
        picks = [
            iter((start + rng.choice(n, size=self.BLOCKS * share,
                                     p=zipf_weights(n))).tolist())
            for start, share, n in self._classes
        ]
        self._sequence = [
            next(picks[c])
            for __ in range(self.BLOCKS)
            for c in rng.permutation(slots).tolist()
        ]

    def ops(self, client):
        return _cycle(self._sequence, self._golden_op)


class ColdPlan(Workload):
    """Never-repeated 1..4-table joins over ``d1..d4``: every statement
    misses both caches, so parse/lower/plan is the cost."""

    WARMUP = 40

    def __init__(self, seed, data):
        rng = np.random.default_rng([seed, 2])
        self._offset = int(rng.integers(0, 5_000))
        super().__init__("cold_plan")

    def query(self, i):
        """Statement ``i``; the literals make each text unique."""
        slot = i % 10
        u = i // 10 + self._offset
        n = COLD_PATTERN[slot]
        tables = ["d%d" % (j + 1) for j in range(n)]
        joins = [(tables[j], "a", tables[j + 1], "id")
                 for j in range(n - 1)]
        # 37 is coprime with 100: still one text per ``u``, but any run
        # of 100 statements sees every window, so no block of the timed
        # window is cheaper than another. A tenth of ``d1`` survives, so
        # planning outweighs execution.
        lo = u * 37 % 100
        where = [("d1", "id", ">=", (u // 100) % D_ROWS),
                 ("d1", "a", ">=", lo), ("d1", "a", "<", lo + 10),
                 (tables[-1], "b", "<=", slot)]
        return Query(tables, [COUNT, ("sum", tables[-1], "b")],
                     joins=joins, where=where)

    def ops(self, client):
        i = 0
        while True:
            yield ("read", render(self.query(i)), ("cold", i))
            i += 1

    def warmup_sql(self):
        # Indices below zero never recur in the measured stream.
        return [render(self.query(-1 - i)) for i in range(self.WARMUP)]


class ScanAgg(Workload):
    """Six warm full-scan aggregates over ``f`` (one joins ``d1``).

    The join aggregate sits mid-range in cost and is issued twice per
    cycle of seven, so the median stays inside that one class.
    """

    def __init__(self, seed, data):
        rng = np.random.default_rng([seed, 3])

        def window(column, span, domain):
            lo = int(rng.integers(0, domain - span + 1))
            return [("f", column, ">=", lo), ("f", column, "<", lo + span)]

        g, c, v = ("f", "g"), ("f", "c"), ("f", "v")
        golden = [
            Query(["f"], [("col",) + g, COUNT, ("sum",) + v],
                  where=window("k", 400, 1000), group=g),
            Query(["f"], [("col",) + g, ("avg",) + v],
                  where=window("k", 250, 1000), group=g),
            Query(["f"], [("col",) + c, COUNT, ("sum",) + v],
                  where=window("k", 250, 1000), group=c),
            Query(["f"], [("col",) + c, ("min",) + v, ("max",) + v],
                  where=window("g", 10, 50), group=c),
            Query(["f"], [("col",) + g, ("min",) + v, ("max",) + v, COUNT],
                  where=[("f", "c", "=", str(rng.choice(C_VALUES)))],
                  group=g),
            Query(["f", "d1"],
                  [("col", "d1", "b"), COUNT, ("sum",) + v],
                  joins=[("f", "k", "d1", "id")],
                  where=window("g", 5, 50), group=("d1", "b")),
        ]
        super().__init__("scan_agg", golden=golden)
        self._order = rng.permutation([0, 1, 2, 3, 4, 5, 5]).tolist()

    def ops(self, client):
        return _cycle(self._order, self._golden_op)


class MixedRW(Workload):
    """80% reads / 20% writes from ``min(2, nproc)`` clients on two
    tenants; a fixed statement count per client, so every run of a seed
    performs identical inserts and ends in the same catalog state."""

    def __init__(self, seed, data, n_clients, per_client):
        n_f = data.n_rows("f")
        rng = np.random.default_rng([seed, 4])
        golden = ([f_point(i) for i in rng.choice(n_f, 8, replace=False)]
                  + [d_point(i) for i in rng.choice(D_ROWS, 8,
                                                    replace=False)])
        super().__init__("mixed_rw", n_clients=n_clients, golden=golden,
                         fixed_count=per_client)
        self.plans = [self._plan(seed, c, per_client)
                      for c in range(n_clients)]

    def _plan(self, seed, client, count):
        rng = np.random.default_rng([seed, 4, client + 1])
        kinds = np.repeat(np.arange(len(MIXED_BLOCK)),
                          [n for __, n in MIXED_BLOCK])
        next_id = 10_000_000 * (client + 1)
        turn = {name: client for name, __ in MIXED_BLOCK + (("analyze", 0),)}
        ops = []

        def table_for(kind):
            turn[kind] += 1
            return W_TABLES[turn[kind] % len(W_TABLES)]

        def fresh_rows(n):
            nonlocal next_id
            rows = [(next_id + j, int(k), round(float(v), 6))
                    for j, (k, v) in enumerate(
                        zip(rng.integers(0, 100, n), rng.random(n)))]
            next_id += n
            return rows

        while len(ops) < count:
            for k in rng.permutation(kinds).tolist()[:count - len(ops)]:
                kind = MIXED_BLOCK[k][0]
                if (len(ops) + 1) % ANALYZE_EVERY == 0:
                    # Takes the slot of whatever statement was drawn.
                    ops.append(("analyze", "ANALYZE %s" % table_for("analyze"),
                                ("status", "ANALYZE", None, ())))
                    continue
                if kind == "f_point":
                    ops.append(self._golden_op(int(rng.integers(0, 8))))
                    continue
                if kind == "d_point":
                    ops.append(self._golden_op(8 + int(rng.integers(0, 8))))
                    continue
                t = table_for(kind)
                if kind == "count":
                    op = ("read", "SELECT COUNT(*) FROM %s" % t,
                          ("count", t))
                elif kind == "insert_sql":
                    rows = fresh_rows(1)
                    op = (kind,
                          "INSERT INTO %s VALUES (%d, %d, %r)" % (
                              (t,) + rows[0]),
                          ("status", "INSERT 1", t, rows))
                elif kind == "insert_rows":
                    rows = fresh_rows(BULK_ROWS)
                    op = (kind, (t, rows), ("status", BULK_ROWS, t, rows))
                else:
                    op = ("read", render(Query(
                        [t], [COUNT, ("sum", t, "v")],
                        where=[(t, "k", "=", int(rng.integers(100)))]
                    )), ("shape", 2))
                ops.append(op)
        return ops

    def ops(self, client):
        return iter(self.plans[client])

    def writes(self):
        """Every planned write as ``(table_or_None, rows)`` — inserts
        carry their rows, ANALYZE carries none."""
        for plan in self.plans:
            for __, __, check in plan:
                if check[0] == "status":
                    yield check[2], check[3]


def make(name, seed, data, n_clients=1, per_client=None):
    """Build the named workload for ``seed``."""
    if name == "point_warm":
        return PointWarm(seed, data)
    if name == "cold_plan":
        return ColdPlan(seed, data)
    if name == "scan_agg":
        return ScanAgg(seed, data)
    if name == "mixed_rw":
        return MixedRW(seed, data, n_clients, per_client)
    raise ValueError("unknown workload %r" % (name,))
