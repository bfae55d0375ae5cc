"""Stable structural signatures for execution plans.

The compilation cache (:mod:`repro.perf.cache`) keys lowered schedules by
*what the dispatcher sees*: the unit list (kernels with all their shape /
library / traffic parameters, covered nodes, gather pre-copies, host
work, epoch coordinates), the stream map, the explicit dispatch order,
barrier placement, the profiling configuration, and the allocation
identity (label, arena size, contiguity-group structure).  Two plans with
equal signatures lower to bit-identical schedules; anything that could
change a single dispatch item changes the signature.

Deliberately excluded: ``plan.label`` -- it is cosmetic (it names the
plan in traces and reports) and never reaches a dispatch item, so e.g.
``astra`` and ``astra/production`` plans that are otherwise identical
share cached work.  Unit labels *are* included: ``validate_covering``
treats ``pack_*`` units specially, so they are structural.

Two forms exist: :func:`plan_key` / :func:`structure_key` return plain
hashable tuples -- the hot-path dictionary keys the compilation cache
uses on every lookup -- and :func:`plan_signature` wraps the plan key as
a canonical string (``repr`` of the tuple) plus a sha256 digest for
serialization.  The property tests pin injectivity on structurally
distinct plans and ``dumps``/``loads`` round-trip stability.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json

SIGNATURE_VERSION = 1


#: identity-keyed kernel-key memo.  The enumerator's template cache hands
#: out unit *copies* that share kernel objects, so across exploration
#: rounds the same kernel instance is re-signed thousands of times.  The
#: stored strong reference keeps the object alive, which keeps its id()
#: valid; the ``is`` check makes an id collision impossible to act on.
#: Kernels are construct-once values (never mutated after ``__post_init__``).
_KERNEL_KEY_MEMO: dict[int, tuple] = {}
_KERNEL_KEY_CAP = 8192


def _kernel_key(kernel) -> tuple | None:
    """Canonical identity of one kernel: class name + every dataclass
    field (shapes, library, traffic, node coverage)."""
    if kernel is None:
        return None
    entry = _KERNEL_KEY_MEMO.get(id(kernel))
    if entry is not None and entry[0] is kernel:
        return entry[1]
    key = (type(kernel).__name__,) + tuple(
        (f.name, getattr(kernel, f.name)) for f in dataclasses.fields(kernel)
    )
    if len(_KERNEL_KEY_MEMO) >= _KERNEL_KEY_CAP:
        _KERNEL_KEY_MEMO.clear()
    _KERNEL_KEY_MEMO[id(kernel)] = (kernel, key)
    return key


def _allocation_key(allocation) -> tuple | None:
    if allocation is None:
        return None
    return (allocation.label, allocation.arena_size_bytes, allocation.strategy_key())


@dataclasses.dataclass(frozen=True)
class PlanSignature:
    """Canonical structural key of a plan plus its sha256 digest."""

    key: str
    digest: str

    def dumps(self) -> str:
        return json.dumps(
            {"version": SIGNATURE_VERSION, "key": self.key, "digest": self.digest}
        )

    @classmethod
    def loads(cls, text: str) -> "PlanSignature":
        doc = json.loads(text)
        if doc.get("version") != SIGNATURE_VERSION:
            raise ValueError(f"unsupported signature version {doc.get('version')}")
        sig = cls(key=doc["key"], digest=doc["digest"])
        if _digest(sig.key) != sig.digest:
            raise ValueError("signature digest does not match its key")
        return sig


def _digest(key: str) -> str:
    return hashlib.sha256(key.encode("utf-8")).hexdigest()


def plan_key(plan) -> tuple:
    """Full structural key: equal keys => identical lowering.

    A plain nested tuple of hashable values -- usable directly as a dict
    key, with no serialization cost on the cache's hot path.
    """
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


def plan_signature(plan) -> PlanSignature:
    """Serializable form of :func:`plan_key`: canonical string + digest."""
    key = repr(plan_key(plan))
    return PlanSignature(key=key, digest=_digest(key))


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
