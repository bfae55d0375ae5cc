"""The fleet strategy wave's worker, for :mod:`repro.parallel.pool`.

The exploration engine dispatches :class:`FleetTask` shards -- (ordinal,
strategy key) pairs -- to workers that rebuild the whole measurement
stack from a pickled :class:`FleetWorkerSpec` and return
:class:`FleetOutcome` rows in ordinal order.  Strategies cross the
process boundary **by value** (:meth:`Strategy.key`), never as objects,
and the spec carries the parent's calibration snapshot so workers start
from the same primitives the pre-ranker priced.

Determinism is the same contract the exploration worker has: a
worker's measurements depend only on (spec, strategy key) -- fault
sub-states are keyed by primitive, not by worker or order -- so the
merged index is byte-identical for any worker count, including the
inline pool.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field

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
class FleetTask:
    """One planned strategy measurement (canonical ordinal order)."""

    ordinal: int
    key: tuple  # Strategy.key()


@dataclass
class FleetOutcome:
    """One measured strategy plus the index delta it produced."""

    ordinal: int
    key: tuple
    per_sample_us: float
    step_us: float
    samples: int
    detail: dict = field(default_factory=dict)
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


def run_shard(state: FleetWorkerState, tasks) -> list[FleetOutcome]:
    outcomes = []
    for task in tasks:
        start = time.perf_counter()
        before = set(state.measurer.index.snapshot())
        outcome = state.measurer.measure_strategy(Strategy.from_key(task.key))
        snapshot = state.measurer.index.snapshot()
        records = tuple(
            (key, value) for key, value in snapshot.items()
            if key not in before
        )
        outcomes.append(FleetOutcome(
            ordinal=task.ordinal,
            key=task.key,
            per_sample_us=outcome.per_sample_us,
            step_us=outcome.step_us,
            samples=outcome.samples,
            detail=outcome.detail,
            records=records,
            busy_s=time.perf_counter() - start,
            worker_pid=os.getpid(),
        ))
    return outcomes
