"""Exclusive per-phase wall-clock accounting.

A :class:`PhaseClock` splits a run's wall time into named phases
(``enumerate`` / ``lower`` / ``simulate`` / ``explore`` / ...).  Phases
nest, and the accounting is *exclusive*: entering a nested phase pauses
the enclosing one, so a slow inner phase can never be attributed to the
phase that happened to wrap it.  The sum of all phase times therefore
equals the total timed wall clock (up to timer-read overhead), which
``tests/perf/test_timers.py`` asserts.

Instrumented code holds a clock reference and calls it unconditionally;
:data:`NULL_CLOCK` is the do-nothing default (the same null-object idiom
as :data:`repro.obs.metrics.NULL_REGISTRY`), so un-benchmarked runs pay
one attribute lookup and an empty context manager.
"""

from __future__ import annotations

import time
from contextlib import contextmanager, nullcontext


class PhaseClock:
    """Stack-based exclusive phase timer."""

    __slots__ = ("seconds", "counts", "_stack")

    def __init__(self) -> None:
        #: phase name -> exclusive seconds spent in it
        self.seconds: dict[str, float] = {}
        #: phase name -> number of times it was entered
        self.counts: dict[str, int] = {}
        # each frame is [name, resume_timestamp]; only the top frame runs
        self._stack: list[list] = []

    @contextmanager
    def phase(self, name: str):
        now = time.perf_counter()
        if self._stack:
            outer = self._stack[-1]
            self.seconds[outer[0]] = self.seconds.get(outer[0], 0.0) + now - outer[1]
        self._stack.append([name, now])
        try:
            yield self
        finally:
            now = time.perf_counter()
            frame = self._stack.pop()
            self.seconds[frame[0]] = self.seconds.get(frame[0], 0.0) + now - frame[1]
            self.counts[frame[0]] = self.counts.get(frame[0], 0) + 1
            if self._stack:
                self._stack[-1][1] = now  # resume the enclosing phase

    @property
    def total_s(self) -> float:
        """Sum of all exclusive phase times == total timed wall clock."""
        return sum(self.seconds.values())

    def snapshot(self) -> dict:
        return {
            "total_s": self.total_s,
            "phases": {
                name: {"seconds": self.seconds[name], "count": self.counts.get(name, 0)}
                for name in sorted(self.seconds)
            },
        }


class _NullClock:
    """Disabled clock: ``phase`` is a free no-op context manager."""

    __slots__ = ()
    seconds: dict = {}
    counts: dict = {}
    total_s = 0.0

    def phase(self, name: str):
        return nullcontext(self)

    def snapshot(self) -> dict:
        return {"total_s": 0.0, "phases": {}}


#: shared disabled clock -- the default everywhere timing hooks in
NULL_CLOCK = _NullClock()
