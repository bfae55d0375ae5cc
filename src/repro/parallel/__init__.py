"""The exploration engine (docs/performance.md).

Plans each exploration round's candidate configurations as a wave,
measures them -- in the caller at width 1, on a pool of worker processes
above it -- and hands the outcomes back for the wirer to merge into the
profile index in canonical order.  There is one loop at every width, so
``--workers N`` changes wall-clock time only: same winner, same index
contents, same epoch time.
"""

from .engine import ParallelEngine, engine_supported, plan_wave
from .pool import InlinePool, ProcessPool, make_pool
from .wire import CandidateOutcome, CandidateTask, WorkerSpec

__all__ = [
    "CandidateOutcome",
    "CandidateTask",
    "InlinePool",
    "ParallelEngine",
    "ProcessPool",
    "WorkerSpec",
    "engine_supported",
    "make_pool",
    "plan_wave",
]
