"""The fleet search's process pool (docs/performance.md).

``repro fleet --workers N`` measures each wave of missing primitives on
a pool of worker processes: :class:`ParallelEngine` shards the wave and
gathers the outcomes in task order, :func:`make_pool` stands up a
:class:`ProcessPool` above width 1 and an :class:`InlinePool` in the
caller otherwise.  The outcomes do not depend on the width, so
``--workers`` changes wall-clock time only.  Single-job exploration has
no pool: it measures one configuration per mini-batch, in the caller.
"""

from .engine import ParallelEngine
from .pool import InlinePool, ProcessPool, make_pool

__all__ = [
    "InlinePool",
    "ParallelEngine",
    "ProcessPool",
    "make_pool",
]
