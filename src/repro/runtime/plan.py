"""Execution plans: every choice the optimizer can make, reified.

A plan is one point in Astra's optimization state space (section 3): which
GEMMs are fused and at what granularity, which kernel library each GEMM
launch uses, which stream each kernel is dispatched to and in what order,
where super-epoch barriers fall, and which memory-allocation strategy is
active.  The native, cuDNN and XLA baselines are just particular fixed
plans; Astra's custom-wirer *iterates* over plans, one per mini-batch.

The dispatcher (:mod:`repro.runtime.dispatcher`) lowers a plan to the
dispatch-item list the GPU simulator executes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..gpu.kernels import Kernel
from ..gpu.memory import AllocationPlan

_UNASSIGNED = (-1, -1)


@dataclass
class Unit:
    """One schedulable unit: a single kernel launch covering >= 1 DFG nodes.

    ``pre_copies`` are gather kernels that must run immediately before the
    main kernel in the same stream (e.g. compacting non-contiguous fused
    operands).  ``host_us`` > 0 models CPU-side work that stalls dispatch
    instead of launching a device kernel (XLA embedding pathology).

    Units are shared between plans (the enumerator caches them as
    templates), so nothing that is specific to one plan -- its stream
    map, its epoch coordinates -- lives on a unit.
    """

    unit_id: int
    kernel: Kernel | None
    node_ids: tuple[int, ...]
    label: str = ""
    pre_copies: tuple[Kernel, ...] = ()
    host_us: float = 0.0

    def __post_init__(self) -> None:
        if self.kernel is None and self.host_us <= 0.0:
            raise ValueError(f"unit {self.unit_id} has neither kernel nor host work")
        if not self.node_ids:
            raise ValueError(f"unit {self.unit_id} covers no nodes")


@dataclass
class ExecutionPlan:
    """A complete, executable configuration for one mini-batch.

    ``units`` must cover each compute node at most once; nodes not covered
    by any unit are free (reshapes, constant fills).  ``stream_of`` maps
    unit ids to streams (missing = stream 0), ``epoch_of`` maps them to
    their (super_epoch, epoch) coordinates (missing = unassigned, which
    :meth:`epoch` reports as ``(-1, -1)``).  ``dispatch_order`` optionally
    overrides the topological issue order -- Astra's stream adaptation
    explores both assignment *and* dispatch order (section 4.5.3).
    """

    units: list[Unit]
    allocation: AllocationPlan | None = None
    stream_of: dict[int, int] = field(default_factory=dict)
    epoch_of: dict[int, tuple[int, int]] = field(default_factory=dict)
    dispatch_order: list[int] | None = None
    #: unit ids after which a cross-stream barrier is inserted
    barriers_after: frozenset[int] = frozenset()
    #: record per-unit timing events (profiled exploration mini-batches)
    profile: bool = True
    #: restrict event marking to these unit ids (None = every unit); the
    #: paper profiles only "regions of interest" to amortize overhead (5.2)
    profile_unit_ids: frozenset[int] | None = None
    label: str = "plan"

    def stream(self, unit_id: int) -> int:
        return self.stream_of.get(unit_id, 0)

    def epoch(self, unit_id: int) -> tuple[int, int]:
        """(super_epoch, epoch) of a unit; ``(-1, -1)`` when unassigned."""
        return self.epoch_of.get(unit_id, _UNASSIGNED)

    @property
    def num_streams(self) -> int:
        return max([self.stream(u.unit_id) for u in self.units], default=0) + 1

    def unit_by_id(self, unit_id: int) -> Unit:
        for unit in self.units:
            if unit.unit_id == unit_id:
                return unit
        raise KeyError(unit_id)

    def validate_covering(self, graph=None) -> None:
        """Each *compute* node may be covered by at most one unit.  Leaf
        nodes (params/inputs) may appear in several units: weight-pack
        prologue copies reference the leaves they gather."""
        seen: set[int] = set()
        for unit in self.units:
            if unit.kernel is not None and unit.kernel.kind == "copy" and unit.label.startswith("pack"):
                continue
            for nid in unit.node_ids:
                if nid in seen:
                    raise ValueError(f"node %{nid} covered by multiple units")
                seen.add(nid)
