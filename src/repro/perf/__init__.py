"""Fast-path exploration: making the optimizer itself cheap.

Astra's premise is that mini-batches are cheap probes, but a naive wirer
re-lowers and re-simulates every candidate configuration from scratch --
the optimizer becomes the hot path.  This package keeps every winner
identical while removing the redundant work:

* :mod:`repro.perf.signature` -- stable structural signatures for
  execution plans (fusion groups, library choices, stream map, barriers,
  profiling set, allocation identity);
* :mod:`repro.perf.cache` -- the compilation cache that memoizes
  lowering (the dependency/order analysis shared across structurally
  identical plans);
* :mod:`repro.perf.ranker` -- the cost-model-guided pre-ranker that
  prunes provably-losing fusion/kernel choices before any simulated
  mini-batch is spent on them (``--no-prune`` restores exhaustive
  search; an equivalence test pins that both converge identically).

Per-phase wall-clock accounting (enumerate / lower / simulate / explore)
is the :meth:`~repro.obs.observer.Observer.phases` view.  See
``docs/performance.md`` for the cache key and the pruning invariant, and
``benchmarks/perf/README.md`` for how the optimizer itself is timed.
"""

from .cache import LoweringCache
from .ranker import FastPath, estimate_choices_us, prune_fk_tree
from .signature import plan_digest, structure_key

__all__ = [
    "FastPath",
    "LoweringCache",
    "estimate_choices_us",
    "plan_digest",
    "prune_fk_tree",
    "structure_key",
]
