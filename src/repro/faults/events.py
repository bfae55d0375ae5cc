"""Typed fault events: what the injection layer produces and the runtime
half consumes.

Astra's premise is that mini-batch measurements are trustworthy enough to
drive online optimization; real fleets violate that premise in specific,
nameable ways (clock throttling, multi-tenant interference, lost profiling
events, transient launch failures, preemption).  This module gives each
violation a *type*, so the executor can surface "this measurement is
untrustworthy because X" instead of silently-wrong numbers, and the wirer
can pick a recovery policy per fault class (retry, re-measure, quarantine,
prune, degrade, checkpoint).

Two kinds of objects live here:

* :class:`FaultError` subclasses -- faults that *abort* a mini-batch
  (launch failure, device OOM, preemption).  They carry enough context to
  be retried, pruned, or checkpointed.
* :class:`FaultEvent` records -- faults that *taint* a mini-batch without
  aborting it (a dropped or corrupted cudaEvent timestamp).  The executor
  attaches them to the :class:`~repro.runtime.executor.MiniBatchResult`
  and withholds the affected measurements from the profile index.

Every injected fault, aborting or not, is also appended to the injector's
ledger as a :class:`FaultRecord` so chaos runs can assert that each fault
is accounted for in ``fault.*`` metrics and run-report records.
"""

from __future__ import annotations

from dataclasses import dataclass, field

#: fault classes, in taxonomy order (see docs/robustness.md)
FAULT_SLOWDOWN = "slowdown"          # transient per-kernel straggler
FAULT_THROTTLE = "clock_throttle"    # windowed whole-device slowdown
FAULT_LAUNCH = "launch_fail"         # kernel launch returns an error
FAULT_EVENT_DROP = "event_drop"      # cudaEvent timestamp lost
FAULT_EVENT_CORRUPT = "event_corrupt"  # cudaEvent timestamp perturbed
FAULT_OOM = "oom"                    # arena exceeds device memory
FAULT_PREEMPT = "preempt"            # job preempted mid-exploration

FAULT_KINDS = (
    FAULT_SLOWDOWN,
    FAULT_THROTTLE,
    FAULT_LAUNCH,
    FAULT_EVENT_DROP,
    FAULT_EVENT_CORRUPT,
    FAULT_OOM,
    FAULT_PREEMPT,
)

@dataclass(frozen=True)
class FaultRecord:
    """One injected fault, as logged in the injector's ledger."""

    kind: str
    minibatch: int
    detail: str = ""


class FaultError(RuntimeError):
    """Base of every fault that aborts a mini-batch.

    ``kind`` matches the taxonomy constant; ``transient`` tells the wirer
    whether retrying the same configuration can possibly succeed.
    """

    kind = "fault"
    transient = True

    def __init__(self, message: str, minibatch: int = -1):
        super().__init__(message)
        self.minibatch = minibatch

    # subclasses take domain arguments, not the base (message, minibatch)
    # pair, so the default exception reduce protocol re-raises a TypeError
    # on unpickle; each subclass pins its own constructor arguments.  The
    # fleet search's process pool ships worker-side faults back this way.
    def __reduce__(self):
        return (type(self), (str(self), self.minibatch))


class KernelLaunchError(FaultError):
    """A kernel launch failed; the mini-batch's work is lost.

    Transient by definition (the paper's measurement loops, like Learning
    to Optimize Tensor Programs, simply re-run failed measurements)."""

    kind = FAULT_LAUNCH
    transient = True

    def __init__(self, label: str, minibatch: int = -1):
        super().__init__(f"kernel launch failed: {label}", minibatch)
        self.label = label

    def __reduce__(self):
        return (KernelLaunchError, (self.label, self.minibatch))


class DeviceOOMError(FaultError):
    """The plan's arena does not fit device memory.

    Deterministic for a given (plan, capacity): retrying the same
    allocation strategy cannot succeed, so the wirer prunes it."""

    kind = FAULT_OOM
    transient = False

    def __init__(self, arena_bytes: int, capacity_bytes: int, minibatch: int = -1):
        super().__init__(
            f"arena {arena_bytes} B exceeds device memory {capacity_bytes} B",
            minibatch,
        )
        self.arena_bytes = arena_bytes
        self.capacity_bytes = capacity_bytes

    def __reduce__(self):
        return (
            DeviceOOMError,
            (self.arena_bytes, self.capacity_bytes, self.minibatch),
        )


class PreemptionError(FaultError):
    """The job was preempted; exploration state must be checkpointed.

    Raised *between* mini-batches (before any work is dispatched), so the
    profile index holds only complete measurements when the checkpoint is
    cut.  ``checkpoint_path`` is filled in by whoever saved state."""

    kind = FAULT_PREEMPT
    transient = False

    def __init__(self, minibatch: int):
        super().__init__(f"job preempted at mini-batch {minibatch}", minibatch)
        self.checkpoint_path: str | None = None

    def __reduce__(self):
        return (PreemptionError, (self.minibatch,))


@dataclass(frozen=True)
class FaultEvent:
    """A non-aborting fault that taints part of one mini-batch's profile.

    ``unit_id`` is the schedule unit whose measurement is affected (-1
    when the fault is not attributable to one unit)."""

    kind: str
    detail: str = ""
    unit_id: int = -1


@dataclass
class MinibatchFaultLog:
    """Faults injected while executing one mini-batch.

    The simulator fills it in as it runs; the executor reads it back to
    decide which measurements to withhold.  ``dropped_records`` /
    ``corrupted_records`` index into the simulator's kernel-record list;
    ``corruption_factors`` gives the multiplicative timestamp error for
    each corrupted record (detectably absurd or plausibly wrong -- the
    executor catches the former, min-of-k + MAD re-measurement the
    latter)."""

    minibatch: int = -1
    dropped_records: set[int] = field(default_factory=set)
    corrupted_records: dict[int, float] = field(default_factory=dict)
    slowdowns: int = 0
    throttled: bool = False

    @property
    def any_measurement_faults(self) -> bool:
        return bool(self.dropped_records or self.corrupted_records)
