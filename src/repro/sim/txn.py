"""Transaction workload simulator: locks, conflicts, aborts, makespan.

Substrate for the learned transaction-management experiments (E11). A
transaction is a timed sequence of key accesses; the simulator executes a
*scheduled* batch on ``n_workers`` under strict two-phase locking with a
wait-timeout abort policy, and reports makespan, aborts and wait time.
Scheduling policy is the experimental variable: FIFO vs. cost-ordered vs.
the learned conflict-aware scheduler in
:mod:`repro.ai4db.design.txn_mgmt`.
"""

import heapq

import numpy as np

from repro.common import ensure_rng


class Transaction:
    """One transaction: read/write key sets plus a service duration.

    Attributes:
        txn_id: unique integer id.
        reads: frozenset of keys read.
        writes: frozenset of keys written.
        duration: service time in milliseconds (excluding waits).
        kind: workload class label ("payment", "order", "scan", ...).
    """

    __slots__ = ("txn_id", "reads", "writes", "duration", "kind")

    def __init__(self, txn_id, reads, writes, duration, kind="generic"):
        self.txn_id = txn_id
        self.reads = frozenset(reads)
        self.writes = frozenset(writes)
        self.duration = float(duration)
        self.kind = kind

    def conflicts_with(self, other):
        """Whether the two transactions have a lock conflict (RW/WR/WW)."""
        if self.writes & other.writes:
            return True
        if self.writes & other.reads:
            return True
        if self.reads & other.writes:
            return True
        return False

    def keys(self):
        """All keys the transaction touches."""
        return self.reads | self.writes

    def __repr__(self):
        return "Transaction(#%d, r=%d, w=%d, %.1fms)" % (
            self.txn_id, len(self.reads), len(self.writes), self.duration
        )


def hotspot_workload(n_txns=300, n_keys=1000, hot_keys=20, hot_fraction=0.6,
                     reads_per_txn=4, writes_per_txn=2, seed=0):
    """A hotspot OLTP batch: most accesses hit a few hot keys.

    Args:
        n_txns: number of transactions.
        n_keys: key space size.
        hot_keys: number of contended keys.
        hot_fraction: probability an access goes to the hot set.
        seed: randomness seed.

    Returns:
        list of :class:`Transaction`.
    """
    rng = ensure_rng(seed)
    txns = []
    for i in range(n_txns):
        def draw(count):
            keys = set()
            for __ in range(count):
                if rng.random() < hot_fraction:
                    keys.add(int(rng.integers(0, hot_keys)))
                else:
                    keys.add(int(rng.integers(hot_keys, n_keys)))
            return keys

        n_r = max(1, int(rng.poisson(reads_per_txn)))
        n_w = int(rng.poisson(writes_per_txn))
        reads = draw(n_r)
        writes = draw(n_w)
        duration = float(rng.uniform(1.0, 8.0) + 2.0 * (n_r + n_w))
        kind = "write" if writes else "read"
        txns.append(Transaction(i, reads - writes, writes, duration, kind))
    return txns


class ScheduleResult:
    """Outcome of simulating a schedule.

    Attributes:
        makespan: wall-clock ms until the last transaction commits.
        total_wait: summed lock-wait milliseconds.
        aborts: number of abort-and-retry events.
        committed: number of committed transactions.
        avg_latency: mean commit latency (queue + wait + service).
    """

    def __init__(self, makespan, total_wait, aborts, committed, avg_latency):
        self.makespan = makespan
        self.total_wait = total_wait
        self.aborts = aborts
        self.committed = committed
        self.avg_latency = avg_latency

    def __repr__(self):
        return (
            "ScheduleResult(makespan=%.1f, waits=%.1f, aborts=%d, latency=%.1f)"
            % (self.makespan, self.total_wait, self.aborts, self.avg_latency)
        )


class LockTableSimulator:
    """Simulates strict 2PL execution of a scheduled transaction batch.

    The schedule is a list of worker queues (one list of transactions per
    worker). Each worker runs its queue in order; a transaction acquires
    all its locks at start (conservative 2PL — keeps the simulation
    deterministic and deadlock-free) and releases at commit. If the locks
    are not available, the transaction waits; if the wait would exceed
    ``timeout_ms`` it aborts, pays ``abort_penalty_ms``, and retries at the
    back of its worker's queue (up to ``max_retries``).

    Args:
        timeout_ms: lock-wait timeout before abort.
        abort_penalty_ms: penalty added on each abort.
        max_retries: retries before giving up (counted as committed last).
    """

    def __init__(self, timeout_ms=50.0, abort_penalty_ms=5.0, max_retries=10):
        self.timeout_ms = timeout_ms
        self.abort_penalty_ms = abort_penalty_ms
        self.max_retries = max_retries

    def run(self, worker_queues):
        """Simulate; returns a :class:`ScheduleResult`."""
        # lock_free_at[key] = (time read locks drain, time write lock drains)
        write_free = {}
        read_free = {}
        total_wait = 0.0
        aborts = 0
        latencies = []
        makespan = 0.0
        # Event loop: workers advance independently; we process the worker
        # with the smallest current time next (priority queue).
        queues = [list(q) for q in worker_queues]
        heap = [(0.0, w) for w in range(len(queues)) if queues[w]]
        heapq.heapify(heap)
        worker_time = [0.0] * len(queues)
        retries = {}
        arrival = {}
        for q in queues:
            for t in q:
                arrival.setdefault(t.txn_id, 0.0)
        while heap:
            now, w = heapq.heappop(heap)
            if not queues[w]:
                continue
            txn = queues[w].pop(0)
            # Earliest time all needed locks are free.
            ready = now
            for key in txn.keys():
                ready = max(ready, write_free.get(key, 0.0))
            for key in txn.writes:
                ready = max(ready, read_free.get(key, 0.0))
            wait = ready - now
            if wait > self.timeout_ms and retries.get(txn.txn_id, 0) < self.max_retries:
                # Abort: pay the penalty, requeue at the back.
                aborts += 1
                retries[txn.txn_id] = retries.get(txn.txn_id, 0) + 1
                worker_time[w] = now + self.abort_penalty_ms
                queues[w].append(txn)
                heapq.heappush(heap, (worker_time[w], w))
                continue
            total_wait += max(0.0, wait)
            start = max(now, ready)
            end = start + txn.duration
            for key in txn.writes:
                write_free[key] = max(write_free.get(key, 0.0), end)
            for key in txn.reads:
                read_free[key] = max(read_free.get(key, 0.0), end)
            worker_time[w] = end
            makespan = max(makespan, end)
            latencies.append(end - arrival[txn.txn_id])
            if queues[w]:
                heapq.heappush(heap, (worker_time[w], w))
        committed = len(latencies)
        avg_latency = float(np.mean(latencies)) if latencies else 0.0
        return ScheduleResult(makespan, total_wait, aborts, committed, avg_latency)


def fifo_schedule(txns, n_workers):
    """Round-robin FIFO assignment (the traditional baseline)."""
    queues = [[] for _ in range(n_workers)]
    for i, t in enumerate(txns):
        queues[i % n_workers].append(t)
    return queues


def cost_ordered_schedule(txns, n_workers):
    """Shortest-job-first assignment by predicted duration (cost baseline)."""
    ordered = sorted(txns, key=lambda t: t.duration)
    queues = [[] for _ in range(n_workers)]
    loads = [0.0] * n_workers
    for t in ordered:
        w = int(np.argmin(loads))
        queues[w].append(t)
        loads[w] += t.duration
    return queues
