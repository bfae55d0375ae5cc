"""Exploration checkpoints: preempted jobs resume instead of re-exploring.

Section 4.6's profile index is "designed to survive restarts": because
every measurement lives under a context-mangled key and every phase
consults the index before spending a mini-batch, the index *is* the
durable exploration state.  A checkpoint is therefore mostly the
serialized index plus the run's bookkeeping (work-conservation timeline,
spent-budget cursor, per-phase stats) and the fault injector's ledger.
Autoboost jitter and injected faults draw from per-candidate substreams
keyed by the spent-budget cursor, so they continue bit-identically
across the restart without any RNG state of their own.

On resume the custom-wirer replays its phase structure: every already-
measured configuration hits the index (no mini-batch spent), update trees
finalize to the same best assignments, and the end-to-end comparisons are
answered from their own index keys -- so an interrupted exploration
converges to the same configuration as an uninterrupted one without
re-spending mini-batches on already-profiled configurations.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field

from ..core.profile_index import ProfileIndex

CHECKPOINT_VERSION = 1


@dataclass
class ExplorationCheckpoint:
    """Serializable snapshot of one :class:`~repro.core.wirer.CustomWirer`.

    ``signature`` fingerprints (graph, device, features, seed); restoring
    onto a mismatched wirer raises, because index keys would silently
    never match and the run would quietly re-explore everything.
    """

    signature: dict
    index_doc: dict
    total_spent: int = 0
    timeline: list = field(default_factory=list)
    overhead_samples: list = field(default_factory=list)
    best_so_far: float | None = None
    #: phase name -> [minibatches, index_hits] carried into resumed stats
    phase_carry: dict = field(default_factory=dict)
    injector_state: dict | None = None
    preempted_at: int | None = None
    completed: bool = False

    # -- (de)serialization -------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "version": CHECKPOINT_VERSION,
            "signature": self.signature,
            "index": self.index_doc,
            "total_spent": self.total_spent,
            "timeline": [[phase, t] for phase, t in self.timeline],
            "overhead_samples": list(self.overhead_samples),
            "best_so_far": self.best_so_far,
            "phase_carry": {k: list(v) for k, v in self.phase_carry.items()},
            "injector_state": self.injector_state,
            "preempted_at": self.preempted_at,
            "completed": self.completed,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ExplorationCheckpoint":
        if data.get("version") != CHECKPOINT_VERSION:
            raise ValueError(
                f"unsupported checkpoint version {data.get('version')}"
            )
        return cls(
            signature=data["signature"],
            index_doc=data["index"],
            total_spent=data.get("total_spent", 0),
            timeline=[(phase, t) for phase, t in data.get("timeline", [])],
            overhead_samples=list(data.get("overhead_samples", [])),
            best_so_far=data.get("best_so_far"),
            phase_carry={
                k: tuple(v) for k, v in data.get("phase_carry", {}).items()
            },
            injector_state=data.get("injector_state"),
            preempted_at=data.get("preempted_at"),
            completed=data.get("completed", False),
        )

    def dumps(self, **kwargs) -> str:
        return json.dumps(self.to_dict(), **kwargs)

    @classmethod
    def loads(cls, text: str) -> "ExplorationCheckpoint":
        return cls.from_dict(json.loads(text))

    def save(self, path: str) -> None:
        """Atomic write: a preemption racing the save must never leave a
        torn checkpoint -- a corrupt file is worse than none."""
        tmp = f"{path}.tmp"
        with open(tmp, "w") as fh:
            fh.write(self.dumps())
        os.replace(tmp, path)

    @classmethod
    def load(cls, path: str) -> "ExplorationCheckpoint":
        with open(path) as fh:
            return cls.loads(fh.read())

    # -- accessors ---------------------------------------------------------

    def profile_index(self) -> ProfileIndex:
        return ProfileIndex.loads(json.dumps(self.index_doc))

    def check_signature(self, signature: dict) -> None:
        if self.signature != signature:
            mismatched = sorted(
                k for k in set(self.signature) | set(signature)
                if self.signature.get(k) != signature.get(k)
            )
            raise ValueError(
                f"checkpoint does not match this run (differs in {mismatched}); "
                "refusing to resume -- index keys would silently never match"
            )
