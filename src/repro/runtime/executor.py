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
from ..obs.metrics import NULL_REGISTRY
from ..perf.timers import NULL_CLOCK
from .dispatcher import Dispatcher, LoweredSchedule
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
    of executing, and per-kind violation counters are published to
    ``metrics`` (``check.schedules_validated``,
    ``check.violations.<kind>``).

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
        seed: int = 0,
        validate: bool = False,
        metrics=None,
        injector=None,
        cache=None,
        clock=None,
    ):
        self.graph = graph
        self.device = device
        self.dispatcher = Dispatcher(graph)
        self.validate = validate
        self.metrics = metrics if metrics is not None else NULL_REGISTRY
        self.injector = injector
        #: optional :class:`repro.perf.cache.LoweringCache` memoizing
        #: plan -> LoweredSchedule across structurally identical plans
        self.cache = cache
        self.clock = clock if clock is not None else NULL_CLOCK
        self._simulator = StreamSimulator(device, seed=seed, injector=injector)

    def run(self, plan: ExecutionPlan, validate: bool | None = None) -> MiniBatchResult:
        with self.clock.phase("lower"):
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
        self.metrics.counter("check.schedules_validated").inc()
        for kind, count in report.by_kind().items():
            self.metrics.counter(f"check.violations.{kind}").inc(count)
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
            self.metrics.counter("fault.oom").inc()
            raise DeviceOOMError(arena, capacity, minibatch)

    def run_lowered(
        self, lowered: LoweredSchedule, validate: bool | None = None
    ) -> MiniBatchResult:
        from ..faults.events import FAULT_PREEMPT, KernelLaunchError, PreemptionError

        do_validate = self.validate if validate is None else validate
        if do_validate:
            with self.clock.phase("validate"):
                self.validate_lowered(lowered)
        fault_log = None
        if self.injector is not None:
            try:
                fault_log = self.injector.begin_minibatch()
            except PreemptionError:
                self.metrics.counter(f"fault.{FAULT_PREEMPT}").inc()
                raise
        self._check_memory(lowered.plan)
        try:
            with self.clock.phase("simulate"):
                result = self._simulator.run(lowered.items)
        except KernelLaunchError:
            self.metrics.counter("fault.launch_fail").inc()
            self.metrics.counter("fault.minibatches_lost").inc()
            raise
        unit_times, faults, tainted_units = self._unit_times(
            lowered, result, fault_log
        )
        epoch_metrics = self._epoch_metrics(lowered, result, tainted_units)
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
        lowered: LoweredSchedule,
        result: ExecutionResult,
        fault_log=None,
    ) -> tuple[dict[int, float], list, set[int]]:
        from ..faults.events import FAULT_EVENT_CORRUPT, FAULT_EVENT_DROP, FaultEvent

        times: dict[int, float] = {}
        faults: list = []
        tainted: set[int] = set()
        dropped = fault_log.dropped_records if fault_log is not None else ()
        corrupted = fault_log.corrupted_records if fault_log is not None else {}
        for unit in lowered.plan.units:
            idx = lowered.unit_record_index.get(unit.unit_id)
            if idx is None:
                continue
            if idx in dropped:
                # the timestamp pair backing this measurement was lost:
                # surface the fault and withhold the number entirely
                faults.append(FaultEvent(
                    FAULT_EVENT_DROP, f"unit {unit.unit_id} timestamp lost",
                    unit_id=unit.unit_id,
                ))
                self.metrics.counter("fault.event_drop").inc()
                tainted.add(unit.unit_id)
                continue
            record = result.records[idx]
            elapsed = record.duration
            if idx in corrupted:
                elapsed *= corrupted[idx]
                # plausibility check: a corrupted elapsed time that falls
                # outside the mini-batch is detectably absurd and is
                # withheld; one inside the envelope survives as a
                # plausible-but-wrong sample for min-of-k/MAD to reject
                if elapsed <= 0.0 or elapsed > result.total_time_us:
                    faults.append(FaultEvent(
                        FAULT_EVENT_CORRUPT,
                        f"unit {unit.unit_id} timestamp implausible",
                        unit_id=unit.unit_id,
                    ))
                    self.metrics.counter("fault.event_corrupt_detected").inc()
                    tainted.add(unit.unit_id)
                    continue
            # charge the unit for its gather copies: they exist only because
            # of this unit's fusion/allocation choice.  A hand-built schedule
            # may map a unit near the head of the record list; never walk
            # past index 0 (a negative index would silently charge the
            # wrong record from the tail).
            for back in range(1, len(unit.pre_copies) + 1):
                if idx - back < 0:
                    break
                elapsed += result.records[idx - back].duration
            times[unit.unit_id] = elapsed
        return times, faults, tainted

    def _epoch_metrics(
        self,
        lowered: LoweredSchedule,
        result: ExecutionResult,
        tainted_units: set[int] | None = None,
    ) -> dict[tuple[int, int], float]:
        plan = lowered.plan
        tainted_units = tainted_units or set()
        # group unit completion times by (super_epoch, epoch); epochs that
        # contain a unit with a lost/implausible timestamp are withheld --
        # their stream metric would be built on the missing measurement
        tainted_epochs: set[tuple[int, int]] = set()
        starts: dict[int, float] = {}
        ends: dict[tuple[int, int], float] = {}
        for unit in plan.units:
            se, epoch = plan.epoch(unit.unit_id)
            if se < 0 or epoch < 0:
                continue
            if unit.unit_id in tainted_units:
                tainted_epochs.add((se, epoch))
                continue
            idx = lowered.unit_record_index.get(unit.unit_id)
            if idx is None:
                continue
            record = result.records[idx]
            first = max(0, idx - len(unit.pre_copies))
            start = result.records[first].start_time
            starts[se] = min(starts.get(se, float("inf")), start)
            key = (se, epoch)
            ends[key] = max(ends.get(key, 0.0), record.end_time)

        metrics: dict[tuple[int, int], float] = {}
        for se in starts:
            epochs = sorted(e for (s, e) in ends if s == se)
            running_end = 0.0
            for epoch in epochs:
                running_end = max(running_end, ends[(se, epoch)])
                if (se, epoch) in tainted_epochs:
                    continue
                metrics[(se, epoch)] = running_end - starts[se]
        return metrics
