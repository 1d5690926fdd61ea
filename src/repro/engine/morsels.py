"""Morsel-driven parallel execution substrate.

Morsel-driven parallelism (Leis et al., the HyPer scheduler) splits each
operator's input into fixed-size row ranges — *morsels* — and lets a pool
of workers pull them from a shared queue, so imbalance in per-morsel cost
is absorbed by scheduling rather than by static partitioning. This module
supplies the three pieces the executor's ``"parallel"`` mode builds on:

* :func:`morsel_slices` — deterministic ``(start, stop)`` decomposition of
  an ``n``-row batch into morsels;
* :class:`MorselQueue` — per-worker deques over one batch's morsels with
  LIFO work stealing from the busiest victim;
* :class:`MorselPool` — fans worker loops out over a process-wide
  ``ThreadPoolExecutor`` (NumPy kernels release the GIL) and returns the
  per-morsel results **in morsel order**, which is what keeps parallel
  execution deterministic: scheduling decides only *who* computes a
  morsel, never where its output lands.

Morsel size and worker count are :class:`~repro.engine.config.
EngineConfig` knobs; nothing here reads the environment.
"""

import threading
import time
from collections import deque
from concurrent.futures import ThreadPoolExecutor

from repro.common import ExecutionError


def morsel_slices(n_rows, morsel_rows):
    """Split ``n_rows`` into ``(start, stop)`` ranges of ``morsel_rows``.

    The decomposition is purely arithmetic — same inputs, same slices —
    which is the first half of the parallel determinism guarantee.
    """
    if morsel_rows < 1:
        raise ExecutionError("morsel size must be >= 1")
    return [
        (start, min(start + morsel_rows, n_rows))
        for start in range(0, n_rows, morsel_rows)
    ]


class MorselQueue:
    """One batch's morsel indices, spread over per-worker deques.

    Workers pop their own deque from the front; a worker whose deque is
    empty steals from the *back* of the fullest victim (classic
    work-stealing order: owners eat FIFO, thieves LIFO, minimizing
    contention on the same end). A single lock is enough at this scale —
    morsel grains are thousands of rows, so queue operations are rare
    relative to kernel time.
    """

    def __init__(self, n_tasks, n_workers):
        if n_workers < 1:
            raise ExecutionError("MorselQueue needs at least one worker")
        self._deques = [deque() for __ in range(n_workers)]
        for task in range(n_tasks):
            self._deques[task % n_workers].append(task)
        self._lock = threading.Lock()

    def next_for(self, worker_id):
        """``(task_index, stolen)`` for this worker, or ``(None, False)``."""
        with self._lock:
            own = self._deques[worker_id]
            if own:
                return own.popleft(), False
            victim = max(self._deques, key=len)
            if victim:
                return victim.pop(), True
            return None, False

    def __len__(self):
        return sum(len(d) for d in self._deques)


class WorkerStats:
    """Per-worker accounting for one parallel operator invocation."""

    __slots__ = ("worker_id", "morsels", "steals", "seconds")

    def __init__(self, worker_id):
        self.worker_id = worker_id
        self.morsels = 0
        self.steals = 0
        self.seconds = 0.0

    def as_dict(self):
        return {
            "worker_id": self.worker_id,
            "morsels": self.morsels,
            "steals": self.steals,
            "seconds": self.seconds,
        }


# One process-wide thread pool, grown on demand. Worker loops never block
# on each other (any loop drains the whole shared queue via stealing), so
# sharing a pool between concurrently executing queries cannot deadlock —
# it only serializes some morsels, which scheduling absorbs.
_SHARED_LOCK = threading.Lock()
_SHARED_POOL = None
_SHARED_SIZE = 0


def _shared_executor(min_threads):
    global _SHARED_POOL, _SHARED_SIZE
    with _SHARED_LOCK:
        if _SHARED_POOL is None or _SHARED_SIZE < min_threads:
            old = _SHARED_POOL
            _SHARED_POOL = ThreadPoolExecutor(
                max_workers=min_threads, thread_name_prefix="repro-morsel"
            )
            _SHARED_SIZE = min_threads
            if old is not None:
                old.shutdown(wait=False)
        return _SHARED_POOL


class MorselPool:
    """Runs per-morsel tasks on ``n_workers`` work-stealing worker loops.

    ``run(fn, n_tasks)`` evaluates ``fn(task_index)`` for every index and
    returns ``(results, worker_stats)`` with ``results`` in task order —
    the caller concatenates them and gets output independent of thread
    scheduling. The first worker exception (if any) is re-raised after all
    workers have drained.
    """

    def __init__(self, n_workers):
        self.n_workers = n_workers
        if self.n_workers < 1:
            raise ExecutionError("worker count must be >= 1")

    def run(self, fn, n_tasks):
        if n_tasks <= 0:
            return [], []
        if self.n_workers == 1 or n_tasks == 1:
            # Degenerate pool: run inline, same accounting shape.
            stats = WorkerStats(0)
            t0 = time.perf_counter()
            results = [fn(i) for i in range(n_tasks)]
            stats.morsels = n_tasks
            stats.seconds = time.perf_counter() - t0
            return results, [stats]
        queue = MorselQueue(n_tasks, self.n_workers)
        results = [None] * n_tasks
        errors = []

        def worker_loop(worker_id):
            stats = WorkerStats(worker_id)
            t0 = time.perf_counter()
            while True:
                task, stolen = queue.next_for(worker_id)
                if task is None:
                    break
                stats.steals += int(stolen)
                try:
                    results[task] = fn(task)
                except BaseException as exc:  # noqa: BLE001 - reraised below
                    errors.append(exc)
                    break
                stats.morsels += 1
            stats.seconds = time.perf_counter() - t0
            return stats

        pool = _shared_executor(self.n_workers)
        futures = [
            pool.submit(worker_loop, wid) for wid in range(self.n_workers)
        ]
        worker_stats = [f.result() for f in futures]
        if errors:
            raise errors[0]
        return results, worker_stats

    def __repr__(self):
        return "MorselPool(n_workers=%d)" % (self.n_workers,)
