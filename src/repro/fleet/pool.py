"""The fleet search wave's worker process, for :mod:`repro.parallel.engine`.

The unit of fleet work is the *primitive* (:meth:`FleetMeasurer.primitives`):
one ``("compute", cls, shard)`` or ``("stage", cls, micro)``
measurement, which every strategy placing that subgraph on that device
class shares.  Above width 1, :class:`~repro.parallel.engine.ParallelEngine`
dispatches shards of the wave's distinct primitives, in first-appearance
order, to worker processes.  Each worker rebuilds the measurer once from
a pickled :class:`FleetWorkerSpec` (:func:`init_worker`) and returns one
:class:`FleetOutcome` per primitive, in the same order (:func:`run_shard`).
An outcome ships the index delta the measurement added and the
primitive's analytic price, so the parent composes strategies and prices
their bounds without building the primitives' graphs.  The spec carries
the parent's :class:`~repro.fleet.measure.FleetJob`, so a worker builds
no full-batch model just to derive it.  Width 1 runs no worker: the
search's composition measures each missing primitive in place.

Determinism: a primitive's measurement depends only on (spec,
primitive) -- fault sub-states are keyed by primitive, not by worker or
order, and primitives never read each other's entries -- so the merged
index is the same for any worker count, and a primitive whose shard
failed measures to the same value when the parent measures it in place.
"""

from __future__ import annotations

import pickle
import time
from dataclasses import dataclass
from itertools import islice

from .measure import FleetJob, FleetMeasurer
from .spec import FleetSpec


@dataclass(frozen=True)
class FleetWorkerSpec:
    """Everything a worker needs to rebuild the measurer, picklable."""

    builder: object  # module-level model builder (pickled by reference)
    config: object
    fleet: FleetSpec
    job: FleetJob
    use_astra: bool = False
    features: str = "FK"
    seed: int = 0
    faults: object = None
    exhaustive: bool = False

    def measurer(self) -> FleetMeasurer:
        return FleetMeasurer(
            self.builder, self.config, self.fleet,
            use_astra=self.use_astra, features=self.features,
            seed=self.seed, faults=self.faults, job=self.job,
            exhaustive=self.exhaustive,
        )


@dataclass
class FleetOutcome:
    """What one primitive's measurement produced."""

    primitive: tuple = ()
    #: every (key, value) the measurement added, in recording order,
    #: merged first-writer-wins by the parent
    records: tuple = ()
    #: :meth:`FleetMeasurer.price` of the primitive
    price: object = None
    busy_s: float = 0.0


# -- worker-process entry points (module level: picklable by reference) ---

#: the worker's measurer, built once by :func:`init_worker`
_MEASURER: FleetMeasurer | None = None


def init_worker(payload: bytes) -> None:
    global _MEASURER
    _MEASURER = pickle.loads(payload).measurer()


def is_ready() -> bool:
    """No-op task: forces worker spawn and :func:`init_worker`."""
    return _MEASURER is not None


def run_shard(primitives) -> list[FleetOutcome]:
    measurer = _MEASURER
    outcomes = []
    for primitive in primitives:
        start = time.perf_counter()
        mark = len(measurer.index)
        measurer.measure_primitive(primitive)
        # the index only appends: its new keys are the ones past the mark
        records = tuple(islice(measurer.index.snapshot().items(), mark, None))
        outcomes.append(FleetOutcome(
            primitive=primitive,
            records=records,
            price=measurer.price(primitive),
            busy_s=time.perf_counter() - start,
        ))
    return outcomes
