"""The plan-structure compilation cache.

Memoizes the structural half of lowering:
:func:`~repro.perf.signature.structure_key` ->
:class:`~repro.runtime.dispatcher.CompiledSchedule` (dependencies, issue
order, kernel table, record and readback layout).  It hits whenever only
kernel parameters, stream maps, barriers or the profiling set changed --
i.e. on almost every exploration round -- and the dispatcher then only
binds the candidate's streams, events and barriers.  A hit whose units
are not the entry's unit objects (a kernel-library change, say) keeps
the entry's dependencies and issue order and recompiles the rest,
covering check included.  A plan that fails the compile checks (a node
covered twice, a dispatch order that breaks a dependency) stores nothing.

The cache is LRU-bounded.  Hit/miss/eviction counters are recorded on
the observer under ``perf.cache.*`` and mirrored in
:meth:`stats` for the report's ``fast_path["cache"]``.

Correctness contract (pinned by the differential test): a cache-served
schedule serializes bit-identically to a fresh ``Dispatcher.lower`` of
the same plan.
"""

from __future__ import annotations

from collections import OrderedDict

from ..obs.observer import NULL_OBSERVER
from .signature import structure_key


class LoweringCache:
    """LRU memo of compiled plan structure for lowering."""

    def __init__(self, capacity: int = 256, observer=NULL_OBSERVER):
        self.capacity = capacity
        self.observer = observer
        self._structures: OrderedDict[tuple, object] = OrderedDict()
        self._counts = {
            "structure_hits": 0, "structure_misses": 0, "evictions": 0,
        }

    def _count(self, name: str) -> None:
        self._counts[name] += 1
        self.observer.count(f"perf.cache.{name}")

    def lower(self, dispatcher, plan):
        """Memoized ``dispatcher.lower(plan)``."""
        skey = structure_key(plan)
        entry = self._structures.get(skey)
        if entry is None:
            self._count("structure_misses")
            compiled = self._compile(dispatcher, plan, skey)
        else:
            self._structures.move_to_end(skey)
            self._count("structure_hits")
            compiled = entry
            if not entry.fits(plan):
                compiled = self._compile(dispatcher, plan, skey, entry)
        return dispatcher.lower(plan, compiled)

    def _compile(self, dispatcher, plan, skey, entry=None):
        """Compile ``plan`` into the slot for ``skey``, reusing ``entry``'s
        dependencies and issue order when there is one."""
        compiled = dispatcher.compile(plan, like=entry)
        self._structures[skey] = compiled
        while len(self._structures) > self.capacity:
            self._structures.popitem(last=False)
            self._count("evictions")
        return compiled

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
