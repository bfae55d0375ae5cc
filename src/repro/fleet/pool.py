"""The fleet strategy wave's worker, for :mod:`repro.parallel.pool`.

The exploration engine dispatches shards of strategy keys, in the
wave's canonical order, to workers that rebuild the whole measurement
stack from a pickled :class:`FleetWorkerSpec` and return one
:class:`FleetOutcome` per key, in the same order.  Strategies cross the
process boundary **by value** (:meth:`Strategy.key`), never as objects,
and the spec carries the parent's calibration snapshot so workers start
from the same primitives the pre-ranker priced.  An outcome ships only
the index delta the parent merges, plus the engine's timing fields: the
parent recomposes the winner from the merged primitives itself.

Determinism is the same contract the exploration worker has: a
worker's measurements depend only on (spec, strategy key) -- fault
sub-states are keyed by primitive, not by worker or order -- so the
merged index is byte-identical for any worker count, including the
inline pool.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass

from .measure import FleetMeasurer
from .spec import FleetSpec
from .strategy import Strategy


@dataclass(frozen=True)
class FleetWorkerSpec:
    """Everything a worker needs to rebuild the measurer, picklable."""

    builder: object  # module-level model builder (pickled by reference)
    config: object
    fleet: FleetSpec
    use_astra: bool = False
    features: str = "FK"
    seed: int = 0
    faults: object = None
    #: parent-measured primitives (calibration + seed strategy), merged
    #: into each worker's index before its first task
    seed_entries: tuple = ()


@dataclass
class FleetOutcome:
    """The index delta one strategy measurement produced."""

    #: every (key, value) the measurement added -- primitives first,
    #: then the strategy entry -- merged first-writer-wins by the parent
    records: tuple = ()
    busy_s: float = 0.0
    worker_pid: int = 0
    spans: tuple = ()


class FleetWorkerState:
    """A live measurer inside one worker (or the caller, inline)."""

    def __init__(self, spec: FleetWorkerSpec):
        self.spec = spec
        self.measurer = FleetMeasurer(
            spec.builder, spec.config, spec.fleet,
            use_astra=spec.use_astra, features=spec.features,
            seed=spec.seed, faults=spec.faults,
        )
        self.measurer.index.merge(spec.seed_entries)


def run_shard(state: FleetWorkerState, keys) -> list[FleetOutcome]:
    outcomes = []
    for key in keys:
        start = time.perf_counter()
        before = set(state.measurer.index.snapshot())
        state.measurer.measure_strategy(Strategy.from_key(key))
        snapshot = state.measurer.index.snapshot()
        records = tuple(
            (k, value) for k, value in snapshot.items() if k not in before
        )
        outcomes.append(FleetOutcome(
            records=records,
            busy_s=time.perf_counter() - start,
            worker_pid=os.getpid(),
        ))
    return outcomes
