"""Wave dispatch for the fleet strategy search.

:class:`ParallelEngine` turns one wave of independent tasks -- the fleet
search's missing ``(class, batch)`` primitives
(:mod:`repro.fleet.pool`) -- into contiguous shards, runs them on a
worker pool, and hands the outcomes back in task order, recording
``parallel.*`` telemetry.  It owns no search semantics: the caller plans
the wave and merges what comes back.
"""

from __future__ import annotations

import time

from ..obs.observer import NULL_OBSERVER


class EngineStats:
    def __init__(self) -> None:
        self.rounds = 0
        self.candidates = 0
        self.shards = 0
        self.busy_s = 0.0
        self.dispatch_s = 0.0
        self.inline_fallbacks = 0
        self.pool_startup_s = 0.0


class ParallelEngine:
    """Dispatches planned waves onto a worker pool and accounts for it.

    Each outcome carries ``busy_s``, the worker seconds it took, which
    the utilization telemetry sums.
    """

    def __init__(self, pool, observer=NULL_OBSERVER):
        self.pool = pool
        self.observer = observer
        self.stats = EngineStats()
        self._fallback = None

    def prewarm(self) -> None:
        start = time.perf_counter()
        self.pool.prewarm()
        self.stats.pool_startup_s += time.perf_counter() - start

    # -- dispatch ---------------------------------------------------------

    def measure_wave(self, tasks: list) -> list:
        """Run one wave's tasks; outcomes return in task order.

        Shards are contiguous runs of the task list, so concatenating
        shard results in shard order *is* task order -- no sorting, no
        ties to break.
        """
        if not tasks:
            return []
        start = time.perf_counter()
        shards = _shard(tasks, self.pool.workers)
        futures = [self.pool.run_shard(shard) for shard in shards]
        outcomes: list = []
        for shard, future in zip(shards, futures):
            outcomes.extend(self._collect(shard, future))
        wall = time.perf_counter() - start
        busy = sum(o.busy_s for o in outcomes)
        self.stats.rounds += 1
        self.stats.candidates += len(tasks)
        self.stats.shards += len(shards)
        self.stats.busy_s += busy
        self.stats.dispatch_s += wall
        observer = self.observer
        observer.count("parallel.rounds")
        observer.count("parallel.candidates", len(tasks))
        for shard in shards:
            observer.histogram("parallel.shard_size", len(shard))
        observer.histogram("parallel.dispatch_us", wall * 1e6)
        utilization = (
            busy / (wall * self.pool.workers) if wall > 0 else 0.0
        )
        observer.series("parallel.utilization", utilization)
        observer.instant(
            "parallel/round",
            candidates=len(tasks), shards=len(shards),
            wall_us=wall * 1e6, utilization=round(utilization, 3),
        )
        return outcomes

    def _collect(self, shard, future) -> list:
        """Resolve one shard, degrading to in-caller execution if the
        process pool broke (worker killed, pipe torn): slower, never
        wrong -- the outcome log is identical by the determinism
        contract.  An inline pool's error is the caller's own."""
        try:
            return future.result()
        except Exception:
            if self.pool.kind == "inline":
                raise
            self.stats.inline_fallbacks += 1
            self.observer.count("parallel.inline_fallbacks")
            if self._fallback is None:
                from .pool import InlinePool

                self._fallback = InlinePool(
                    self.pool.state_cls, self.pool.shard_fn, self.pool.spec
                )
            return self._fallback.run_shard(shard).result()

    def summary(self) -> dict:
        s = self.stats
        return {
            "workers": self.pool.workers,
            "pool": getattr(self.pool, "kind", "unknown"),
            "rounds": s.rounds,
            "candidates": s.candidates,
            "shards": s.shards,
            "worker_busy_s": round(s.busy_s, 6),
            "dispatch_s": round(s.dispatch_s, 6),
            "pool_startup_s": round(s.pool_startup_s, 6),
            "inline_fallbacks": s.inline_fallbacks,
        }

    def close(self) -> None:
        self.pool.close()


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
