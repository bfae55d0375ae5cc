"""Stable structural signatures for execution plans.

:func:`plan_digest` names a plan by *what the dispatcher sees*: the unit
list (kernels with all their shape / library / traffic parameters,
covered nodes, gather pre-copies, host work, epoch coordinates), the
stream map, the explicit dispatch order, barrier placement, the
profiling configuration, and the allocation identity (label, arena size,
contiguity-group structure).  Two plans with equal digests lower to
bit-identical schedules; anything that could change a single dispatch
item changes the digest.  The serve layer signs a job by its native
plan's digest (:func:`repro.serve.keys.job_digest`), and a fleet search
names its profile context by it.

Deliberately excluded: ``plan.label`` -- it is cosmetic (it names the
plan in traces and reports) and never reaches a dispatch item, so e.g.
``astra`` and ``astra/production`` plans that are otherwise identical
share one digest.  Unit labels *are* included: ``validate_covering``
treats ``pack_*`` units specially, so they are structural.

:func:`structure_key` is the coarser hashable tuple the compilation
cache (:mod:`repro.perf.cache`) keys its dependency/order analysis by.
The property tests pin injectivity of both on structurally distinct
plans.
"""

from __future__ import annotations

import dataclasses
import hashlib

#: part of every key, so a layout change to a key changes every digest
SIGNATURE_VERSION = 1


def _kernel_key(kernel) -> tuple | None:
    """Canonical identity of one kernel: class name + every dataclass
    field (shapes, library, traffic, node coverage)."""
    if kernel is None:
        return None
    return (type(kernel).__name__,) + tuple(
        (f.name, getattr(kernel, f.name)) for f in dataclasses.fields(kernel)
    )


def _allocation_key(allocation) -> tuple | None:
    if allocation is None:
        return None
    return (allocation.label, allocation.arena_size_bytes, allocation.strategy_key())


def _plan_key(plan) -> tuple:
    """Full structural key: equal keys => identical lowering."""
    units = []
    for unit in plan.units:
        super_epoch, epoch = plan.epoch(unit.unit_id)
        units.append((
            unit.unit_id,
            _kernel_key(unit.kernel),
            unit.node_ids,
            unit.label,
            tuple(_kernel_key(k) for k in unit.pre_copies),
            unit.host_us,
            epoch,
            super_epoch,
        ))
    return (
        "plan-sig", SIGNATURE_VERSION,
        tuple(units),
        tuple(sorted(plan.stream_of.items())),
        tuple(plan.dispatch_order) if plan.dispatch_order is not None else None,
        tuple(sorted(plan.barriers_after)),
        plan.profile,
        (
            tuple(sorted(plan.profile_unit_ids))
            if plan.profile_unit_ids is not None
            else None
        ),
        _allocation_key(plan.allocation),
    )


def plan_digest(plan) -> str:
    """sha256 hex digest of the plan's full structural key (the ``repr``
    of its canonical tuple)."""
    return hashlib.sha256(repr(_plan_key(plan)).encode("utf-8")).hexdigest()


def structure_key(plan) -> tuple:
    """Coarser signature of what the *dependency analysis* sees.

    ``Dispatcher.unit_dependencies`` depends only on each unit's id and
    covered nodes (plus the graph, fixed per dispatcher), and the issue
    order only additionally on ``dispatch_order``.  Plans that differ
    merely in kernel parameters (library choices, gather sizes), stream
    maps, barriers or profiling share one deps/order computation -- which
    is most of what consecutive exploration rounds are.
    """
    return (
        "plan-structure", SIGNATURE_VERSION,
        tuple(
            (unit.unit_id, unit.node_ids, unit.kernel is not None,
             unit.host_us > 0.0)
            for unit in plan.units
        ),
        tuple(plan.dispatch_order) if plan.dispatch_order is not None else None,
    )
