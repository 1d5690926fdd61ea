"""Admission control: per-tenant work quotas over a token bucket.

The serving layer's scheduler. Every tenant owns a :class:`TokenBucket`
denominated in the engine's deterministic ``work`` units (the same
quantity the executor measures and the cost model estimates — see
``PAPER.md``'s substitution table). A query is admitted by charging its
plan's **cost estimate** against its tenant's bucket; when execution
finishes, the charge is settled against the run's measured ``total_work``
(over-estimates are refunded, under-estimates charged extra), so over
time each tenant pays for exactly the work it consumed — the conservation
property the admission test suite asserts, and the "estimates as
admission currency, validated against actuals" loop that *Are We Ready
For Learned Cardinality Estimation?* (PAPERS.md) motivates.

An over-quota query waits in its tenant's queue. Grants walk the
tenants round-robin, skipping tenants whose bucket cannot pay yet, so one
flooding tenant can neither starve the others nor block them behind its
debt. An arrival that would push the total number of waiters past
``queue_depth`` is shed with :class:`AdmissionError` instead; a depth of
0 therefore never queues — every over-quota query is shed at once (load
shedding).

Determinism: the controller takes an injectable ``clock`` so tests drive
refill with a manual clock and assert grant *order*, not wall time.
"""

import threading
import time
from collections import OrderedDict, deque

from repro.common import ExecutionError
from repro.engine.config import (
    DEFAULT_ADMISSION_QUEUE_DEPTH,
    DEFAULT_QUOTA_REFILL,
    DEFAULT_TENANT_QUOTA,
)
from repro.engine.errors import AdmissionError

#: Fallback cost charged when a statement has no usable estimate.
MIN_CHARGE = 1.0

#: How often a waiter re-checks its bucket against a real-time clock, in
#: seconds. Purely a liveness bound — grants are normally triggered by
#: ``settle``/``cancel`` notifications, this tick only covers refill by
#: the passage of time.
_WAIT_TICK = 0.05


class TokenBucket:
    """One tenant's work quota: capacity, refill rate, current balance.

    The balance may go **negative**: a query whose actual work exceeded
    its estimate settles into debt, which future refill must pay off
    before the tenant is admitted again — mis-estimates are charged to
    the tenant that caused them, never to the others.
    """

    __slots__ = ("capacity", "refill_rate", "tokens", "_last")

    def __init__(self, capacity, refill_rate, now=0.0):
        if capacity <= 0:
            raise ExecutionError("token bucket capacity must be > 0")
        if refill_rate < 0:
            raise ExecutionError("token bucket refill rate must be >= 0")
        self.capacity = float(capacity)
        self.refill_rate = float(refill_rate)
        self.tokens = float(capacity)
        self._last = float(now)

    def refill(self, now):
        """Accrue tokens for the time since the last refill (capped)."""
        elapsed = max(0.0, float(now) - self._last)
        self._last = float(now)
        if elapsed and self.refill_rate:
            self.tokens = min(self.capacity, self.tokens
                              + elapsed * self.refill_rate)

    def can_pay(self, cost):
        """Whether a charge of ``cost`` is admissible right now.

        A query costing more than the whole capacity is admissible at a
        full bucket (it then drives the balance deep into debt) —
        otherwise it could never run at all.
        """
        return self.tokens >= min(float(cost), self.capacity)

    def charge(self, cost):
        """Deduct ``cost`` (the balance may go negative)."""
        self.tokens -= float(cost)

    def deposit(self, delta):
        """Settle a refund (or extra charge, when negative), capped at
        capacity."""
        self.tokens = min(self.capacity, self.tokens + float(delta))

    def __repr__(self):
        return "TokenBucket(%.1f/%.1f @ %.1f/s)" % (
            self.tokens, self.capacity, self.refill_rate,
        )


class AdmissionTicket:
    """The receipt for one admitted query; settle it when work lands."""

    __slots__ = ("tenant", "cost", "outcome", "queue_wait", "seq",
                 "settled")

    def __init__(self, tenant, cost, outcome, queue_wait, seq):
        self.tenant = tenant
        self.cost = cost
        self.outcome = outcome
        self.queue_wait = queue_wait
        self.seq = seq
        self.settled = False

    def __repr__(self):
        return "AdmissionTicket(%s, cost=%.1f, %s)" % (
            self.tenant, self.cost, self.outcome,
        )


class _Waiter:
    __slots__ = ("tenant", "cost", "seq", "granted", "abandoned")

    def __init__(self, tenant, cost, seq):
        self.tenant = tenant
        self.cost = cost
        self.seq = seq
        self.granted = False
        self.abandoned = False


class AdmissionController:
    """Grants, queues, or sheds queries against per-tenant work quotas.

    Args:
        tenant_quota: token-bucket capacity per tenant, in work units.
        quota_refill_rate: bucket refill rate, work units per second.
        queue_depth: bound on waiters across all tenants; arrivals beyond
            it are shed (``0``: never wait).
        timeout: max seconds a query may wait for admission (real time,
            measured on ``time.monotonic`` regardless of ``clock``).
        clock: the time source for bucket refill — injectable so tests
            are deterministic; defaults to ``time.monotonic``.

    Thread safety: one condition variable guards buckets, queues, and
    counters; ``settle``/``cancel`` notify waiters, and waiters also tick
    on a short timeout so pure time-based refill makes progress.
    """

    def __init__(self, tenant_quota=None, quota_refill_rate=None,
                 queue_depth=None, timeout=30.0, clock=None):
        self.tenant_quota = (
            DEFAULT_TENANT_QUOTA if tenant_quota is None
            else float(tenant_quota)
        )
        self.quota_refill_rate = (
            DEFAULT_QUOTA_REFILL if quota_refill_rate is None
            else float(quota_refill_rate)
        )
        self.queue_depth = (
            DEFAULT_ADMISSION_QUEUE_DEPTH if queue_depth is None
            else int(queue_depth)
        )
        self.timeout = float(timeout)
        self._clock = time.monotonic if clock is None else clock
        self._cond = threading.Condition()
        self._buckets = {}
        # Per-tenant queues of _Waiter, walked round-robin from _rr_pos.
        self._tenant_queues = OrderedDict()
        self._rr_order = []
        self._rr_pos = 0
        self._seq = 0
        self._counters = {}

    # -- internals (call with the condition held) -----------------------
    def _bucket(self, tenant):
        bucket = self._buckets.get(tenant)
        if bucket is None:
            bucket = TokenBucket(
                self.tenant_quota, self.quota_refill_rate, now=self._clock()
            )
            self._buckets[tenant] = bucket
            self._rr_order.append(tenant)
            self._counters[tenant] = {
                "admitted": 0, "queued": 0, "shed": 0, "timed_out": 0,
                "charged": 0.0, "refunded": 0.0, "settled_work": 0.0,
            }
        return bucket

    def _refill_all(self):
        now = self._clock()
        for bucket in self._buckets.values():
            bucket.refill(now)

    def _queue_len(self):
        return sum(len(q) for q in self._tenant_queues.values())

    def _discard(self, waiter):
        """Eagerly remove a timed-out waiter from its queue, so abandoned
        entries never inflate the queue depth (a stale depth would shunt
        later arrivals onto the slow queued path for no reason)."""
        queue = self._tenant_queues.get(waiter.tenant)
        if queue:
            try:
                queue.remove(waiter)
            except ValueError:
                pass  # already granted-and-popped concurrently

    def _grant_ready(self):
        """Grant every waiter that is now eligible, round-robin.

        Returns how many waiters were granted (callers notify the
        condition only when that is nonzero, so idle ticks never wake
        the whole herd).
        """
        self._refill_all()
        granted = 0
        # Walk tenants round-robin from the pointer, granting at most one
        # query per tenant per lap, skipping tenants whose bucket cannot
        # pay yet (no cross-tenant head-of-line blocking).
        progress = True
        while progress:
            progress = False
            n = len(self._rr_order)
            for step in range(n):
                idx = (self._rr_pos + step) % n
                tenant = self._rr_order[idx]
                queue = self._tenant_queues.get(tenant)
                while queue and queue[0].abandoned:
                    queue.popleft()
                if not queue:
                    continue
                head = queue[0]
                if not self._buckets[tenant].can_pay(head.cost):
                    continue
                self._buckets[tenant].charge(head.cost)
                head.granted = True
                queue.popleft()
                self._rr_pos = (idx + 1) % n
                progress = True
                granted += 1
                break
        return granted

    # -- public API ------------------------------------------------------
    def admit(self, tenant, est_cost):
        """Admit one query for ``tenant`` at estimated cost ``est_cost``.

        Returns an :class:`AdmissionTicket` (outcome ``"admitted"`` or
        ``"queued"``); raises :class:`AdmissionError` when the query is
        shed (a full queue — always, at depth 0 — or an admission
        timeout).
        Callers **must** pair every returned ticket with a
        :meth:`settle` (or :meth:`cancel` on execution failure), or the
        estimate's error is never refunded.
        """
        cost = max(MIN_CHARGE, float(est_cost or 0.0))
        with self._cond:
            bucket = self._bucket(tenant)
            bucket.refill(self._clock())
            counters = self._counters[tenant]
            # Work-conserving fast path: ordering is per-tenant, so a
            # payable tenant with no waiters of its own is admitted
            # immediately — exactly what its next round-robin lap would
            # do, without waking every parked waiter.
            if not self._tenant_queues.get(tenant) and bucket.can_pay(cost):
                bucket.charge(cost)
                counters["admitted"] += 1
                counters["charged"] += cost
                self._seq += 1
                return AdmissionTicket(tenant, cost, "admitted", 0.0,
                                       self._seq)
            if self._queue_len() >= self.queue_depth:
                counters["shed"] += 1
                raise AdmissionError(
                    "tenant %r over quota and admission queue full "
                    "(%d of %d waiting)"
                    % (tenant, self._queue_len(), self.queue_depth)
                )
            self._seq += 1
            waiter = _Waiter(tenant, cost, self._seq)
            self._tenant_queues.setdefault(tenant, deque()).append(waiter)
            counters["queued"] += 1
            t_wait0 = time.monotonic()
            deadline = t_wait0 + self.timeout
            if self._grant_ready():
                self._cond.notify_all()
            while not waiter.granted:
                remaining = deadline - time.monotonic()
                if remaining <= 0.0:
                    waiter.abandoned = True
                    self._discard(waiter)
                    counters["timed_out"] += 1
                    counters["shed"] += 1
                    raise AdmissionError(
                        "tenant %r timed out after %.1fs waiting for "
                        "admission" % (tenant, self.timeout)
                    )
                self._cond.wait(timeout=min(_WAIT_TICK, remaining))
                if self._grant_ready():
                    self._cond.notify_all()
            counters["admitted"] += 1
            counters["charged"] += waiter.cost
            return AdmissionTicket(
                tenant, waiter.cost, "queued",
                time.monotonic() - t_wait0, waiter.seq,
            )

    def settle(self, ticket, actual_work):
        """Close one admission: refund/charge the estimate's error.

        ``actual_work`` is the run's measured ``total_work``; the
        tenant's net charge
        becomes exactly that (charge ``est`` up front, deposit
        ``est - actual`` here). Idempotent per ticket.
        """
        if ticket.settled:
            return
        ticket.settled = True
        actual = max(0.0, float(actual_work))
        with self._cond:
            bucket = self._bucket(ticket.tenant)
            delta = ticket.cost - actual
            bucket.deposit(delta)
            counters = self._counters[ticket.tenant]
            counters["refunded"] += delta
            counters["settled_work"] += actual
            # With no tenant waiting there is nothing to grant: the next
            # admit refills the buckets it reads.
            if any(self._tenant_queues.values()) and self._grant_ready():
                self._cond.notify_all()

    def cancel(self, ticket):
        """Refund an admitted query that never ran (execution raised)."""
        if ticket.settled:
            return
        ticket.settled = True
        with self._cond:
            self._bucket(ticket.tenant).deposit(ticket.cost)
            self._counters[ticket.tenant]["refunded"] += ticket.cost
            if self._grant_ready():
                self._cond.notify_all()

    def kick(self):
        """Re-evaluate waiters now (e.g. after advancing a manual clock)."""
        with self._cond:
            self._grant_ready()
            self._cond.notify_all()

    def balance(self, tenant):
        """Tenant's current token balance (refilled to now)."""
        with self._cond:
            bucket = self._bucket(tenant)
            bucket.refill(self._clock())
            return bucket.tokens

    def queue_depth_now(self):
        """How many queries are currently waiting for admission."""
        with self._cond:
            return self._queue_len()

    def stats(self):
        """Per-tenant counter snapshot (JSON-friendly).

        ``charged - refunded == settled_work`` for every tenant whose
        tickets were all settled — the quota-conservation invariant.
        """
        with self._cond:
            return {
                tenant: dict(counters)
                for tenant, counters in sorted(self._counters.items())
            }

    def __repr__(self):
        with self._cond:
            return "AdmissionController(tenants=%d, waiting=%d)" % (
                len(self._buckets), self._queue_len(),
            )
