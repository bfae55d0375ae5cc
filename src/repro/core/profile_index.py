"""Profile index: measurement store with context-mangled keys.

Section 4.6: "the mechanism that Astra uses to manage different forms of
exploration is intelligent indexing of profile data, and mangling the key
to this index helps dynamically control whether to re-run an instance of
the exploration or not."

A key is a tuple ``context + local``: the local part identifies the
adaptive variable and its choice (e.g. ``("fusion", group_id, chunk)``),
and the context prefix carries every higher-level binding the measurement
depends on (allocation strategy, stream mapping, input bucket).  Exploring
under a new context misses in the index and triggers re-measurement;
returning to an old context hits and costs nothing.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

Key = tuple


def mangle(context: Key, local: Key) -> Key:
    """Prefix a local profile key with its context (section 4.6)."""
    return tuple(context) + tuple(local)


@dataclass
class ProfileEntry:
    value: float
    hits: int = 1


class ProfileIndex:
    """Measurement store.  Values are microseconds; smaller is better."""

    def __init__(self) -> None:
        self._store: dict[Key, ProfileEntry] = {}
        self.lookups = 0
        self.misses = 0

    def record(self, key: Key, value: float) -> None:
        entry = self._store.get(key)
        if entry is None:
            self._store[key] = ProfileEntry(value)
        else:
            # deterministic hardware: repeated measurements agree; keep the
            # latest (identical in base-clock mode, jittery under autoboost)
            entry.value = value
            entry.hits += 1

    def merge(self, measurements) -> dict:
        """Merge ``(key, value)`` pairs, in the order given, into the store.

        This is the canonical write path for worker-produced measurements
        (and for the wirer's own recording): iteration order is insertion
        order, so merging in candidate order reproduces the same store
        byte for byte at every worker count.  Semantics differ from :meth:`record` in two
        deliberate ways:

        * **dedupe** -- a key that is already present is skipped
          (first-writer-wins), never re-recorded: two workers measuring
          the same configuration must not bump its hit count twice;
        * **quarantine is sticky** -- an entry holding the quarantine
          sentinel (``QUARANTINED_US``) is never overwritten by a fresh
          sample: the sentinel means *this configuration kept faulting
          under the active policy*, and a worker that happened to get a
          clean sample later must not resurrect it behind the wirer's
          back.

        Returns ``{"merged", "duplicates", "quarantine_protected"}``
        counts for the engine's merge metrics.
        """
        from .measurement import QUARANTINED_US

        merged = duplicates = protected = 0
        items = (
            measurements.items()
            if hasattr(measurements, "items") else measurements
        )
        for key, value in items:
            existing = self._store.get(key)
            if existing is not None:
                if existing.value == QUARANTINED_US and value != QUARANTINED_US:
                    protected += 1
                else:
                    duplicates += 1
                continue
            self._store[key] = ProfileEntry(value)
            merged += 1
        return {
            "merged": merged,
            "duplicates": duplicates,
            "quarantine_protected": protected,
        }

    def get(self, key: Key) -> float | None:
        self.lookups += 1
        entry = self._store.get(key)
        if entry is None:
            self.misses += 1
            return None
        return entry.value

    def __contains__(self, key: Key) -> bool:
        return key in self._store

    def __len__(self) -> int:
        return len(self._store)

    # -- observability -------------------------------------------------------

    @property
    def hits(self) -> int:
        return self.lookups - self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of :meth:`get` calls answered from the store."""
        return self.hits / self.lookups if self.lookups else 0.0

    def stats(self) -> dict:
        return {
            "entries": len(self._store),
            "lookups": self.lookups,
            "misses": self.misses,
            "hits": self.hits,
            "hit_rate": self.hit_rate,
        }

    def observe_into(self, registry) -> None:
        """Publish entry count and hit rate as gauges into a
        :class:`~repro.obs.metrics.MetricsRegistry`."""
        for name, value in self.stats().items():
            registry.gauge(f"profile_index.{name}").set(value)

    def best_under(self, prefix: Key) -> tuple[Key, float] | None:
        """Smallest value among keys sharing ``prefix`` (diagnostics)."""
        best: tuple[Key, float] | None = None
        plen = len(prefix)
        for key, entry in self._store.items():
            if key[:plen] == tuple(prefix):
                if best is None or entry.value < best[1]:
                    best = (key, entry.value)
        return best

    def snapshot(self) -> dict[Key, float]:
        return {k: e.value for k, e in self._store.items()}

    # -- persistence --------------------------------------------------------
    #
    # A training job that restarts (preemption, checkpoint/resume) should
    # not pay for exploration twice: persisting the index lets the next run
    # re-wire from measurements alone.  Keys are tuples of primitives, so a
    # JSON list encoding round-trips exactly.

    def dumps(self) -> str:
        entries = [
            {"key": list(key), "value": entry.value, "hits": entry.hits}
            for key, entry in self._store.items()
        ]
        return json.dumps({"version": 1, "entries": entries})

    @classmethod
    def loads(cls, text: str) -> "ProfileIndex":
        data = json.loads(text)
        if data.get("version") != 1:
            raise ValueError(f"unsupported profile-index version {data.get('version')}")
        index = cls()
        for entry in data["entries"]:
            index._store[untuple(entry["key"])] = ProfileEntry(
                entry["value"], entry["hits"]
            )
        return index


def untuple(part):
    """Invert JSON's tuple->list coercion at every nesting level.

    Mangled keys nest arbitrarily deep (a context may itself embed mangled
    keys, e.g. a strategy key holding contiguity-group tuples), so a
    single-level conversion silently produces keys that never match again.
    """
    if isinstance(part, list):
        return tuple(untuple(item) for item in part)
    return part
