"""The plan-structure compilation cache.

Memoizes the structural half of
:meth:`repro.runtime.dispatcher.Dispatcher.lower`:
:func:`~repro.perf.signature.structure_key` -> (unit dependencies, issue
order).  It hits whenever only kernel parameters, stream maps, barriers
or the profiling set changed -- i.e. on almost every exploration round --
and skips the dependency recursion and toposort while the dispatcher
still emits fresh items.

The cache is LRU-bounded.  Hit/miss/eviction counters are published to
the metrics registry under ``perf.cache.*`` and mirrored in
:meth:`stats` for the bench harness.

Correctness contract (pinned by the differential test): a cache-served
schedule serializes bit-identically to a fresh ``Dispatcher.lower`` of
the same plan.
"""

from __future__ import annotations

from collections import OrderedDict

from ..obs.metrics import NULL_REGISTRY
from .signature import structure_key


class LoweringCache:
    """LRU memo of plan structure for lowering."""

    def __init__(self, capacity: int = 256, metrics=None):
        self.capacity = capacity
        self.metrics = metrics if metrics is not None else NULL_REGISTRY
        self._structures: OrderedDict[tuple, tuple] = OrderedDict()
        self._counts = {
            "structure_hits": 0, "structure_misses": 0, "evictions": 0,
        }

    def _count(self, name: str) -> None:
        self._counts[name] += 1
        self.metrics.counter(f"perf.cache.{name}").inc()

    def lower(self, dispatcher, plan):
        """Memoized ``dispatcher.lower(plan)``."""
        skey = structure_key(plan)
        entry = self._structures.get(skey)
        if entry is None:
            self._count("structure_misses")
            deps = dispatcher.unit_dependencies(plan)
            order = dispatcher.order_units(plan, deps)
            self._structures[skey] = (deps, [u.unit_id for u in order])
            while len(self._structures) > self.capacity:
                self._structures.popitem(last=False)
                self._count("evictions")
            return dispatcher.lower(plan, deps=deps, order=order)

        self._structures.move_to_end(skey)
        self._count("structure_hits")
        deps, order_ids = entry
        by_id = {u.unit_id: u for u in plan.units}
        return dispatcher.lower(
            plan, deps=deps, order=[by_id[uid] for uid in order_ids]
        )

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups answered by the cache."""
        hits = self._counts["structure_hits"]
        total = hits + self._counts["structure_misses"]
        return hits / total if total else 0.0

    def stats(self) -> dict:
        return {
            **self._counts,
            "structure_entries": len(self._structures),
            "hit_rate": self.hit_rate,
        }
