"""The fleet search's process pool (docs/performance.md).

``repro fleet --workers N`` above 1 measures the wave of missing
primitives on worker processes: :class:`~repro.parallel.engine.ParallelEngine`
shards the wave and gathers the outcomes in task order.  The outcomes do
not depend on the width, so ``--workers`` changes wall-clock time only.
Width 1, and single-job exploration, run no pool: they measure in the
caller.
"""
