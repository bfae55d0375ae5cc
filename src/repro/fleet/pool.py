"""The fleet search wave's worker, for :mod:`repro.parallel.pool`.

The unit of fleet work is the *primitive* (:meth:`FleetMeasurer.primitives`):
one ``("compute", cls, shard)`` or ``("stage", cls, micro)``
measurement, which every strategy placing that subgraph on that device
class shares.  The exploration engine dispatches shards of the wave's
distinct primitives, in first-appearance order, to workers that rebuild
the measurer from a pickled :class:`FleetWorkerSpec` and return one
:class:`FleetOutcome` per primitive, in the same order.  An outcome
ships the index delta the measurement added and the primitive's
analytic price, so the parent composes strategies and prices their
bounds without building the primitives' graphs.  At width 1 the inline pool
lends the search's own measurer instead of building a second one.

Determinism is the same contract the exploration worker has: a
primitive's measurement depends only on (spec, primitive) -- fault
sub-states are keyed by primitive, not by worker or order, and
primitives never read each other's entries -- so the merged index is the
same for any worker count, including the inline pool.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from itertools import islice

from .measure import FleetMeasurer
from .spec import FleetSpec


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
    worker_pid: int = 0
    spans: tuple = ()


class FleetWorkerState:
    """A live measurer inside one worker, or the search's own, lent."""

    def __init__(self, spec: FleetWorkerSpec | None = None, measurer=None):
        if measurer is None:
            measurer = FleetMeasurer(
                spec.builder, spec.config, spec.fleet,
                use_astra=spec.use_astra, features=spec.features,
                seed=spec.seed, faults=spec.faults,
            )
        self.measurer = measurer


def run_shard(state: FleetWorkerState, primitives) -> list[FleetOutcome]:
    measurer = state.measurer
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
            worker_pid=os.getpid(),
        ))
    return outcomes
