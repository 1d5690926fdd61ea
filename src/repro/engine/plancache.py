"""The token-invalidated LRU cache behind the pipeline's caches.

:class:`PlanCache` backs every cache of :class:`~repro.engine.pipeline.
QueryPipeline` — plans keyed by query signature, lowered queries keyed
by SQL text, lowered templates keyed by statement shape, and each
shape's custom/generic plan state — and is usable on its own.
"""

import threading
from collections import OrderedDict

from repro.common import PlanError


class _CacheEntry:
    __slots__ = ("value", "token", "hits")

    def __init__(self, value, token):
        self.value = value
        self.token = token
        self.hits = 0


class PlanCache:
    """An LRU cache whose entries are invalidated by token drift.

    The token is an arbitrary hashable compared by equality — the
    pipeline stores per-table plan-version vectors (the concurrency suite
    hammers it with plain integers).

    Args:
        capacity: maximum number of live entries; least-recently-used
            entries are evicted beyond it.

    Counters (``hits``/``misses``/``invalidations``) are cumulative until
    :meth:`reset_counters`; entries survive counter resets and are dropped
    only by token drift, LRU eviction, or :meth:`clear`.

    Thread safety: every operation holds one internal lock, so concurrent
    ``execute()`` calls (and a mutator bumping table versions between
    them) see a consistent cache — lookup + stale-entry removal is atomic,
    and counters never drift from the entries they describe.
    """

    def __init__(self, capacity):
        if capacity < 1:
            raise PlanError("plan cache capacity must be >= 1")
        self.capacity = capacity
        self._entries = OrderedDict()
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.invalidations = 0

    def get(self, key, token):
        """The cached value for ``key`` at ``token``, or ``None``.

        An entry stored under a different token is stale: it is removed,
        counted as an invalidation, and the lookup is a miss.
        """
        return self.lookup(key, token)[0]

    def lookup(self, key, token):
        """Like :meth:`get`, but reports what happened and why.

        Returns ``(value, outcome, stale_token)``: ``outcome`` is
        ``"hit"``, ``"miss"`` (never cached), or ``"invalidated"`` (the
        entry's token drifted — it is dropped and counted); for
        ``"invalidated"`` the ``stale_token`` the dropped entry was
        stored under comes back so the caller can diff it against the
        current token and name the cause.
        """
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self.misses += 1
                return None, "miss", None
            if entry.token != token:
                stale = entry.token
                del self._entries[key]
                self.invalidations += 1
                self.misses += 1
                return None, "invalidated", stale
            self._entries.move_to_end(key)
            entry.hits += 1
            self.hits += 1
            return entry.value, "hit", None

    def put(self, key, value, token):
        """Insert/replace ``key``, evicting the LRU entry if over capacity."""
        with self._lock:
            self._entries[key] = _CacheEntry(value, token)
            self._entries.move_to_end(key)
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)

    def clear(self):
        """Drop every entry (counters are kept)."""
        with self._lock:
            self._entries.clear()

    def reset_counters(self):
        """Zero the hit/miss/invalidation counters (entries are kept)."""
        with self._lock:
            self.hits = 0
            self.misses = 0
            self.invalidations = 0

    def stats(self):
        """A plain-dict counter snapshot (JSON-friendly)."""
        with self._lock:
            return {
                "hits": self.hits,
                "misses": self.misses,
                "invalidations": self.invalidations,
                "size": len(self._entries),
                "capacity": self.capacity,
            }

    def values(self):
        """The cached values, least recently used first (an entry whose
        token drifted stays until its next lookup)."""
        with self._lock:
            return [entry.value for entry in self._entries.values()]

    def __len__(self):
        with self._lock:
            return len(self._entries)

    def __contains__(self, key):
        with self._lock:
            return key in self._entries

    def __repr__(self):
        return "PlanCache(size=%d/%d, hits=%d, misses=%d)" % (
            len(self._entries), self.capacity, self.hits, self.misses,
        )
