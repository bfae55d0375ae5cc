"""Executor: runs a lowered schedule on the GPU simulator and extracts the
fine-grained measurements that drive Astra's adaptation.

The measurements mirror section 4.7's metrics:

* per-unit elapsed time (GEMM / fused-GEMM / elementwise kernels);
* per-epoch stream metric: time from the start of the unit's super-epoch
  to the completion of *all* kernels dispatched on all streams up to and
  including that epoch;
* end-to-end mini-batch time and CPU profiling overhead.

With a :class:`~repro.faults.injector.FaultInjector` attached, the
executor is the boundary where injected faults become *typed*: aborting
faults (launch failure, device OOM, scheduled preemption) raise
:class:`~repro.faults.events.FaultError` subclasses, and measurement
faults (dropped or detectably-corrupted timestamps) are surfaced as
:class:`~repro.faults.events.FaultEvent` records on the result while the
affected measurements are withheld -- never silently-wrong numbers.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..gpu.device import GPUSpec
from ..gpu.streams import ExecutionResult, StreamSimulator
from ..obs.observer import NULL_OBSERVER
from .dispatcher import Dispatcher, LoweredSchedule, Readback
from .plan import ExecutionPlan


@dataclass
class MiniBatchResult:
    """Everything observed while executing one mini-batch."""

    total_time_us: float
    cpu_time_us: float
    profiling_overhead_us: float
    #: unit id -> kernel execution time (including its gather pre-copies)
    unit_times: dict[int, float]
    #: (super_epoch, epoch) -> stream-completion metric (section 4.7)
    epoch_metrics: dict[tuple[int, int], float]
    #: raw simulator output, for tests and deep inspection
    raw: ExecutionResult
    #: measurement faults surfaced this mini-batch (affected unit times and
    #: epoch metrics are withheld, not silently wrong)
    faults: list = field(default_factory=list)

    @property
    def profiling_overhead_fraction(self) -> float:
        if self.total_time_us <= 0:
            return 0.0
        return self.profiling_overhead_us / self.total_time_us

    @property
    def tainted(self) -> bool:
        return bool(self.faults)


class Executor:
    """Runs execution plans for a fixed graph on a simulated device.

    With ``validate=True`` every lowered schedule is statically checked
    by :mod:`repro.check` before it reaches the simulator; a defective
    schedule raises :class:`~repro.check.ScheduleValidationError` instead
    of executing, and per-kind violation counters are recorded on
    ``observer`` (``check.schedules_validated``,
    ``check.violations.<kind>``), with the lower, validate and simulate
    spans of every run.

    With ``injector`` set, every run consults the fault-injection layer:
    scheduled preemption fires between mini-batches, plans whose arena
    exceeds the usable device memory raise
    :class:`~repro.faults.events.DeviceOOMError` before dispatch, launch
    failures abort mid-simulation, and tainted measurements are withheld
    (``fault.*`` counters record each occurrence).
    """

    def __init__(
        self,
        graph,
        device: GPUSpec,
        seed: int | tuple = 0,
        validate: bool = False,
        observer=NULL_OBSERVER,
        injector=None,
        cache=None,
    ):
        self.graph = graph
        self.device = device
        self.dispatcher = Dispatcher(graph)
        self.validate = validate
        self.observer = observer
        self.injector = injector
        #: optional :class:`repro.perf.cache.LoweringCache` memoizing
        #: plan -> LoweredSchedule across structurally identical plans
        self.cache = cache
        self._simulator = StreamSimulator(device, seed=seed, injector=injector)

    def run(self, plan: ExecutionPlan, validate: bool | None = None) -> MiniBatchResult:
        with self.observer.span("lower"):
            if self.cache is not None:
                lowered = self.cache.lower(self.dispatcher, plan)
            else:
                lowered = self.dispatcher.lower(plan)
        return self.run_lowered(lowered, validate=validate)

    def validate_lowered(self, lowered: LoweredSchedule):
        """Check one lowered schedule; raise on violations.

        Returns the :class:`~repro.check.ValidationReport` so callers in
        the exploration loop can inspect pass statistics.
        """
        # deferred import: repro.check sits above runtime in the layering
        from ..check import ScheduleValidationError, validate_schedule

        report = validate_schedule(lowered)
        self.observer.count("check.schedules_validated")
        for kind, count in report.by_kind().items():
            self.observer.count(f"check.violations.{kind}", count)
        if not report.ok:
            raise ScheduleValidationError(report)
        return report

    def _check_memory(self, plan: ExecutionPlan) -> None:
        """Device-OOM gate: the plan's arena must fit the usable memory.

        The capacity comes from the device model (``GPUSpec.memory_bytes``);
        an armed ``oom`` fault window can shrink it further (a co-tenant
        occupying part of the device)."""
        if plan.allocation is None:
            return
        from ..faults.events import FAULT_OOM, DeviceOOMError

        arena = plan.allocation.arena_size_bytes
        capacity = self.device.memory_bytes
        minibatch = -1
        if self.injector is not None:
            capacity = self.injector.effective_memory_bytes(self.device)
            minibatch = self.injector.minibatch
        if arena > capacity:
            if self.injector is not None:
                self.injector.record(FAULT_OOM, f"arena {arena} > {capacity}")
            self.observer.count("fault.oom")
            raise DeviceOOMError(arena, capacity, minibatch)

    def run_lowered(
        self, lowered: LoweredSchedule, validate: bool | None = None
    ) -> MiniBatchResult:
        from ..faults.events import FAULT_PREEMPT, KernelLaunchError, PreemptionError

        do_validate = self.validate if validate is None else validate
        if do_validate:
            with self.observer.span("validate"):
                self.validate_lowered(lowered)
        fault_log = None
        if self.injector is not None:
            try:
                fault_log = self.injector.begin_minibatch()
            except PreemptionError:
                self.observer.count(f"fault.{FAULT_PREEMPT}")
                raise
        self._check_memory(lowered.plan)
        try:
            with self.observer.span("simulate"):
                result = self._simulator.run(lowered.program)
        except KernelLaunchError:
            self.observer.count("fault.launch_fail")
            self.observer.count("fault.minibatches_lost")
            raise
        readback = lowered.readback
        unit_times, faults, tainted_units = self._unit_times(readback, result, fault_log)
        epoch_metrics = self._epoch_metrics(readback, result, tainted_units)
        return MiniBatchResult(
            total_time_us=result.total_time_us,
            cpu_time_us=result.cpu_time_us,
            profiling_overhead_us=result.profiling_overhead_us,
            unit_times=unit_times,
            epoch_metrics=epoch_metrics,
            raw=result,
            faults=faults,
        )

    def _unit_times(
        self,
        readback: Readback,
        result: ExecutionResult,
        fault_log=None,
    ) -> tuple[dict[int, float], list, set[int]]:
        starts = result.start_times
        ends = result.end_times
        times: dict[int, float] = {}
        faults: list = []
        tainted: set[int] = set()
        dropped = fault_log.dropped_records if fault_log is not None else ()
        corrupted = fault_log.corrupted_records if fault_log is not None else {}
        for uid, idx, backs in zip(readback.uids, readback.mains, readback.backs):
            if idx in dropped:
                from ..faults.events import FAULT_EVENT_DROP, FaultEvent

                # the timestamp pair backing this measurement was lost:
                # surface the fault and withhold the number entirely
                faults.append(FaultEvent(
                    FAULT_EVENT_DROP, f"unit {uid} timestamp lost", unit_id=uid,
                ))
                self.observer.count("fault.event_drop")
                tainted.add(uid)
                continue
            elapsed = ends[idx] - starts[idx]
            if idx in corrupted:
                elapsed *= corrupted[idx]
                # plausibility check: a corrupted elapsed time that falls
                # outside the mini-batch is detectably absurd and is
                # withheld; one inside the envelope survives as a
                # plausible-but-wrong sample for min-of-k/MAD to reject
                if elapsed <= 0.0 or elapsed > result.total_time_us:
                    from ..faults.events import FAULT_EVENT_CORRUPT, FaultEvent

                    faults.append(FaultEvent(
                        FAULT_EVENT_CORRUPT, f"unit {uid} timestamp implausible",
                        unit_id=uid,
                    ))
                    self.observer.count("fault.event_corrupt_detected")
                    tainted.add(uid)
                    continue
            # charge the unit for its gather copies: they exist only
            # because of this unit's fusion/allocation choice
            for back in backs:
                elapsed += ends[back] - starts[back]
            times[uid] = elapsed
        return times, faults, tainted

    def _epoch_metrics(
        self,
        readback: Readback,
        result: ExecutionResult,
        tainted_units: set[int] | None = None,
    ) -> dict[tuple[int, int], float]:
        starts = result.start_times
        ends = result.end_times
        tainted = tainted_units or set()
        # per super-epoch, an epoch's stream metric is its running end
        # minus the super-epoch's first start.  Units with a lost or
        # implausible timestamp are left out, and an epoch that contains
        # one is withheld -- its metric would be built on the missing
        # measurement -- though its other units still advance the end
        metrics: dict[tuple[int, int], float] = {}
        for uids, firsts, epochs in readback.epoch_groups:
            if tainted:
                firsts = [f for u, f in zip(uids, firsts) if u not in tainted]
                if not firsts:
                    continue
            start = min([starts[i] for i in firsts])
            running_end = 0.0
            for key, members, mains in epochs:
                withheld = bool(tainted) and not tainted.isdisjoint(members)
                if withheld:
                    mains = [i for u, i in zip(members, mains) if u not in tainted]
                    if not mains:
                        continue
                running_end = max(running_end, max([ends[i] for i in mains]))
                if not withheld:
                    metrics[key] = running_end - start
        return metrics
