"""The fleet search's process pool: one wave of primitives, many workers.

:class:`ParallelEngine` owns one ``ProcessPoolExecutor`` whose workers
each rebuild the fleet measurer from a pickled
:class:`~repro.fleet.pool.FleetWorkerSpec`.  It turns the wave's missing
``(class, batch)`` primitives into contiguous shards, runs them on the
workers, and hands the outcomes back in task order, recording
``parallel.*`` telemetry.  It owns no search semantics: the caller plans
the wave, merges what comes back, and measures in place whatever did
not come back.  Width 1 builds no engine.
"""

from __future__ import annotations

import multiprocessing
import pickle
import time
from concurrent.futures import Future, ProcessPoolExecutor

from ..fleet.pool import init_worker, is_ready, run_shard
from ..obs.observer import NULL_OBSERVER


class ParallelEngine:
    """Runs one wave on ``workers`` processes and accounts for it.

    Each outcome carries ``busy_s``, the worker seconds it took, which
    the utilization telemetry sums.  A spec that cannot be pickled, or a
    platform without working process pools, leaves the engine without
    workers: every shard then fails, and the caller measures it.
    """

    def __init__(self, spec, workers: int, observer=NULL_OBSERVER):
        self.workers = workers
        self.observer = observer
        self.candidates = self.shards = self.fallbacks = 0
        self.busy_s = self.dispatch_s = self.startup_s = 0.0
        try:
            payload = pickle.dumps(spec)
            methods = multiprocessing.get_all_start_methods()
            # fork skips re-importing the package per worker and ships the
            # initializer payload through cheap COW memory
            context = multiprocessing.get_context(
                "fork" if "fork" in methods else methods[0]
            )
            self._executor = ProcessPoolExecutor(
                max_workers=workers, mp_context=context,
                initializer=init_worker, initargs=(payload,),
            )
            self._error = None
        except Exception as exc:
            self._executor, self._error = None, exc

    def prewarm(self) -> None:
        """Kick every worker's spawn and initializer without blocking, so
        the first shard lands on a warm pool."""
        start = time.perf_counter()
        if self._executor is not None:
            for _ in range(self.workers):
                self._executor.submit(is_ready)
        self.startup_s += time.perf_counter() - start

    def _submit(self, shard) -> Future:
        """``run_shard(shard)`` in a worker; without a pool, or on a
        broken one, a future holding the error."""
        try:
            if self._executor is None:
                raise self._error
            return self._executor.submit(run_shard, shard)
        except Exception as exc:
            failed = Future()
            failed.set_exception(exc)
            return failed

    # -- dispatch ---------------------------------------------------------

    def measure_wave(self, tasks: list) -> list:
        """Run the wave's tasks; outcomes return in task order.

        Shards are contiguous runs of the task list, so concatenating
        shard results in shard order *is* task order -- no sorting, no
        ties to break.  A shard whose worker failed (killed, pipe torn,
        an error raised) returns nothing: its primitives stay unmerged,
        and the caller measures them in place, to the same values by
        the determinism contract of :mod:`repro.fleet.pool`.
        """
        if not tasks:
            return []
        observer = self.observer
        start = time.perf_counter()
        shards = _shard(tasks, self.workers)
        futures = [self._submit(shard) for shard in shards]
        outcomes: list = []
        for future in futures:
            try:
                outcomes.extend(future.result())
            except Exception:
                self.fallbacks += 1
                observer.count("parallel.inline_fallbacks")
        wall = time.perf_counter() - start
        busy = sum(o.busy_s for o in outcomes)
        self.candidates += len(tasks)
        self.shards += len(shards)
        self.busy_s += busy
        self.dispatch_s += wall
        observer.count("parallel.rounds")
        observer.count("parallel.candidates", len(tasks))
        for shard in shards:
            observer.histogram("parallel.shard_size", len(shard))
        observer.histogram("parallel.dispatch_us", wall * 1e6)
        utilization = busy / (wall * self.workers) if wall > 0 else 0.0
        observer.series("parallel.utilization", utilization)
        observer.instant(
            "parallel/round",
            candidates=len(tasks), shards=len(shards),
            wall_us=wall * 1e6, utilization=round(utilization, 3),
        )
        return outcomes

    def summary(self) -> dict:
        return {
            "workers": self.workers,
            "candidates": self.candidates,
            "shards": self.shards,
            "worker_busy_s": round(self.busy_s, 6),
            "dispatch_s": round(self.dispatch_s, 6),
            "pool_startup_s": round(self.startup_s, 6),
            "inline_fallbacks": self.fallbacks,
        }

    def close(self) -> None:
        # wait for worker exit: shutdown(wait=False) leaves the executor's
        # management thread racing interpreter teardown, which surfaces as
        # spurious "Bad file descriptor" noise at exit
        if self._executor is not None:
            self._executor.shutdown(wait=True, cancel_futures=True)


def _shard(items: list, workers: int) -> list[list]:
    """Contiguous, balanced partition of ``items`` into ≤ ``workers`` runs."""
    if not items:
        return []
    count = min(max(1, workers), len(items))
    base, extra = divmod(len(items), count)
    shards = []
    start = 0
    for i in range(count):
        size = base + (1 if i < extra else 0)
        shards.append(items[start:start + size])
        start += size
    return shards
