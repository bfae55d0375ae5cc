"""Worker pools: process-backed, or in the caller at width 1.

A pool is parameterized by its worker: a state class built from a
picklable spec (one per process) and a shard function ``run_shard(state,
tasks)`` -- the fleet search's are in :mod:`repro.fleet.pool`.

Both pools expose the same calls (``run_shard``, ``prewarm``), and
``run_shard`` returns a future-like handle, so the engine never branches
on pool kind.  :func:`make_pool` picks the process pool for ``workers > 1`` and
falls back to :class:`InlinePool` when it can't stand one up (platforms
without working process pools, pickling failures at spawn) -- degraded
throughput, never degraded results.
"""

from __future__ import annotations

import pickle


class _Resolved:
    """A finished in-caller call, behind ``Future.result``'s interface
    (``concurrent.futures`` is imported only by the process pool)."""

    def __init__(self, value=None, error: BaseException | None = None):
        self._value = value
        self._error = error

    def result(self):
        if self._error is not None:
            raise self._error
        return self._value


class InlinePool:
    """Width 1: shards run in the caller, on one long-lived worker state.

    ``state`` lends an existing one (the fleet search's own measurer);
    otherwise one is built from ``spec`` on first use, never during
    ``prewarm``, where it would serialize with the caller's own set-up.
    """

    kind = "inline"
    workers = 1

    def __init__(self, state_cls, shard_fn, spec=None, state=None):
        self.state_cls = state_cls
        self.shard_fn = shard_fn
        self.spec = spec
        self._state = state

    def prewarm(self) -> None:
        return None

    def run_shard(self, tasks) -> _Resolved:
        """``shard_fn(state, tasks)`` in the caller, as a resolved future."""
        try:
            if self._state is None:
                self._state = self.state_cls(self.spec)
            return _Resolved(self.shard_fn(self._state, list(tasks)))
        except Exception as exc:  # surfaces at result(), like a future
            return _Resolved(error=exc)

    def close(self) -> None:
        self._state = None


class ProcessPool:
    """``ProcessPoolExecutor`` wrapper with spec-initialized workers."""

    kind = "process"

    def __init__(self, state_cls, shard_fn, spec, workers: int):
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        self.state_cls = state_cls
        self.shard_fn = shard_fn
        self.spec = spec
        self.workers = workers
        methods = multiprocessing.get_all_start_methods()
        # fork skips re-importing the package per worker and ships the
        # initializer payload through cheap COW memory
        context = multiprocessing.get_context(
            "fork" if "fork" in methods else methods[0]
        )
        self._executor = ProcessPoolExecutor(
            max_workers=workers,
            mp_context=context,
            initializer=_pool_init,
            initargs=(state_cls, pickle.dumps(spec)),
        )
        self._warmup: list = []

    def prewarm(self) -> None:
        """Kick every worker's spawn + initializer without blocking.

        Overlaps worker startup with the parent's own enumerator and
        native-baseline work; the first real shard then lands on a warm
        fleet.  Futures are retained so startup failures surface on the
        first dispatch rather than vanishing."""
        self._warmup = [
            self._executor.submit(_pool_warmup) for _ in range(self.workers)
        ]

    def run_shard(self, tasks):
        """``shard_fn(state, tasks)`` in a worker, as a future;
        ``shard_fn`` must be module-level."""
        return self._executor.submit(_pool_call, self.shard_fn, list(tasks))

    def close(self) -> None:
        # wait for worker exit: shutdown(wait=False) leaves the executor's
        # management thread racing interpreter teardown, which surfaces as
        # spurious "Bad file descriptor" noise at exit
        self._executor.shutdown(wait=True, cancel_futures=True)


def make_pool(spec, workers: int, state_cls, shard_fn):
    """Build the best pool available for ``workers``.

    Any failure to stand up a process pool (unsupported platform,
    unpicklable spec member) degrades to the inline pool -- the engine
    still runs, merely without parallel speedup.
    """
    if workers > 1:
        try:
            return ProcessPool(state_cls, shard_fn, spec, workers)
        except Exception:
            pass
    return InlinePool(state_cls, shard_fn, spec)


# -- process-pool entry points (module level: picklable by reference) -----

_STATE = None


def _pool_init(state_cls, payload: bytes) -> None:
    global _STATE
    _STATE = state_cls(pickle.loads(payload))


def _pool_warmup() -> bool:
    """No-op task: forces worker spawn + initializer while the parent is
    still doing its own setup, so the fleet is warm before the first wave."""
    return _STATE is not None


def _pool_call(shard_fn, tasks):
    return shard_fn(_STATE, tasks)
