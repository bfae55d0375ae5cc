"""Discrete-event execution engine: streams, dispatch, processor sharing.

This is the heart of the GPU substrate.  It models the execution semantics
the paper's optimizations exploit (sections 2.3 and 3.3):

* the CPU issues kernel launches *serially* (5-10 us each), long before the
  kernels execute -- so many small kernels become dispatch-bound;
* each stream executes its kernels in FIFO order; kernels on different
  streams run concurrently, *sharing* the SM array (modelled as max-min
  fair processor sharing, each kernel capped by its own tile parallelism);
* cross-stream dependencies are enforced with events
  (record-event / wait-event pairs), and host syncs block the dispatch
  thread;
* in base-clock mode execution is exactly deterministic; in autoboost mode
  a seeded multiplicative jitter is applied per kernel execution,
  reproducing the variance the paper had to disable via nvidia-smi
  (section 7).

The engine returns per-kernel and per-event timestamps, from which the
profiler computes the fine-grained measurements that drive adaptation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .device import CLOCK_AUTOBOOST, GPUSpec
from .events import EventId
from .kernels import Kernel

_EPS = 1e-9


@dataclass
class LaunchItem:
    """Dispatch-order instruction: launch ``kernel`` into ``stream``.

    ``record_is_profiling`` distinguishes events recorded for the profiler
    (counted as profiling overhead) from events required for cross-stream
    synchronization (a cost of the schedule itself).
    """

    kernel: Kernel
    stream: int = 0
    waits: tuple[EventId, ...] = ()
    record: EventId | None = None
    record_is_profiling: bool = True


@dataclass
class RecordEventItem:
    """Record an event in a stream (completes when prior stream work does)."""

    stream: int
    event: EventId


@dataclass
class HostSyncItem:
    """Dispatch thread blocks until ``event`` completes (None = all work).

    Used for super-epoch barriers (section 4.5.3) and end-of-mini-batch
    synchronization.
    """

    event: EventId | None = None


@dataclass
class HostComputeItem:
    """Pure CPU-side work that stalls dispatch (e.g. host-side embedding
    lookups in the XLA pathology, section 6.6)."""

    duration_us: float
    label: str = "host"


DispatchItem = LaunchItem | RecordEventItem | HostSyncItem | HostComputeItem


@dataclass
class KernelRecord:
    """Timing of one executed kernel instance.

    Every record carries its stream and kernel kind (via the uniform
    ``stream_id`` / ``kind`` accessors) so downstream consumers -- the
    timeline renderer and the Chrome-trace exporter in
    :mod:`repro.obs.trace` -- never have to fall back to defaults.
    """

    kernel: Kernel
    stream: int
    issue_time: float
    start_time: float = -1.0
    end_time: float = -1.0

    @property
    def duration(self) -> float:
        return self.end_time - self.start_time

    @property
    def stream_id(self) -> int:
        """The stream this kernel was dispatched to (alias of ``stream``)."""
        return self.stream

    @property
    def kind(self) -> str:
        """Kernel classification (gemm/elementwise/copy/compound/transfer)."""
        return self.kernel.kind


@dataclass
class ExecutionResult:
    """Everything the profiler can observe about one mini-batch execution."""

    total_time_us: float
    cpu_time_us: float
    records: list[KernelRecord]
    event_times: dict[EventId, float]
    #: CPU microseconds spent on event marking (profiling overhead metric)
    profiling_overhead_us: float = 0.0

    def elapsed_us(self, start: EventId, end: EventId) -> float:
        """cudaEventElapsedTime analog."""
        try:
            return self.event_times[end] - self.event_times[start]
        except KeyError as exc:
            raise KeyError(f"event {exc} was never recorded") from exc

    def kernel_time_us(self) -> float:
        return sum(r.duration for r in self.records)

    def stream_ids(self) -> list[int]:
        """Sorted ids of every stream that executed at least one kernel."""
        return sorted({r.stream_id for r in self.records})

    def records_for_stream(self, stream: int) -> list[KernelRecord]:
        """Kernel records dispatched to ``stream``, in dispatch order."""
        return [r for r in self.records if r.stream_id == stream]


class _Running:
    """A kernel currently executing, tracked in slot-microseconds."""

    __slots__ = ("record", "cap", "work_left", "rate", "uses_sms")

    def __init__(self, record: KernelRecord, cap: int, work: float, uses_sms: bool):
        self.record = record
        self.cap = max(1, cap)
        self.work_left = work
        self.rate = 0.0
        self.uses_sms = uses_sms


def _waterfill(running: list[_Running], slots: int) -> None:
    """Max-min fair allocation of SM slots among resident kernels.

    Each kernel is capped by its own available parallelism; copy-engine
    work (``uses_sms=False``) always progresses at unit rate.
    """
    sharers = [r for r in running if r.uses_sms]
    for r in running:
        if not r.uses_sms:
            r.rate = 1.0
    remaining = float(slots)
    pending = sorted(sharers, key=lambda r: r.cap)
    count = len(pending)
    for r in pending:
        share = remaining / count
        alloc = min(float(r.cap), share)
        r.rate = alloc
        remaining -= alloc
        count -= 1


class StreamSimulator:
    """Executes a dispatch list and reports timings.

    A fresh simulator is cheap; reuse one only to share the autoboost RNG
    stream across mini-batches (which is what makes autoboost measurements
    non-repeatable run to run).

    ``injector`` (a :class:`~repro.faults.injector.FaultInjector`) arms
    fault injection: per-kernel slowdowns and throttle windows multiply
    into execution times on top of any autoboost jitter, kernel launches
    may abort the run with
    :class:`~repro.faults.events.KernelLaunchError`, and profiled
    timestamps may be marked dropped/corrupted in the injector's
    per-mini-batch log (the executor reads the log back; the simulator's
    own records stay ground truth).
    """

    def __init__(self, device: GPUSpec, seed: int = 0, injector=None):
        self.device = device
        self._rng = np.random.default_rng(seed)
        self.injector = injector

    def reseed(self, seed_key) -> None:
        """Rebind the jitter RNG to a derived substream.

        The exploration engine reseeds the simulator once per candidate,
        keyed by the candidate's global mini-batch ordinal, so autoboost
        jitter is a function of *which* candidate runs -- never of which
        worker runs it or what ran before.  At base clock no draws happen
        at all, so the (comparatively costly) reseed is skipped.
        """
        if self.device.clock_mode == CLOCK_AUTOBOOST:
            self._rng = np.random.default_rng(seed_key)

    def _jitter(self) -> float:
        if self.device.clock_mode != CLOCK_AUTOBOOST:
            return 1.0
        gain = 1.0 + self.device.autoboost_gain
        half = self.device.autoboost_jitter
        return max(0.05, gain * (1.0 + self._rng.uniform(-half, half)))

    def _duration(self, kernel: Kernel) -> float:
        """Execution time of one kernel instance: model time, autoboost
        jitter, then any injected straggler/throttle multiplier."""
        duration = kernel.duration_us(self.device) * self._jitter()
        if self.injector is not None:
            duration *= self.injector.kernel_multiplier(kernel.kind)
        return duration

    def _check_launch(self, item: LaunchItem) -> None:
        if self.injector is not None and self.injector.launch_fails(item.kernel.kind):
            from ..faults.events import KernelLaunchError

            raise KernelLaunchError(item.kernel.kind, self.injector.minibatch)

    def _mark_profiled_record(self, record_index: int) -> None:
        """Give the injector a chance to drop/corrupt the timestamp pair
        backing this profiled kernel record."""
        if self.injector is not None:
            self.injector.event_fault(record_index)

    def run(self, items: list[DispatchItem]) -> ExecutionResult:
        if self._is_sequential(items):
            return self._run_sequential(items)
        return self._run_concurrent(items)

    @staticmethod
    def _is_sequential(items: list[DispatchItem]) -> bool:
        """True when the schedule uses a single stream and no cross-stream
        waits -- the common case for native and fusion-phase plans, which a
        much cheaper pipeline model executes exactly."""
        stream = None
        for item in items:
            if isinstance(item, LaunchItem):
                if item.waits:
                    return False
                if stream is None:
                    stream = item.stream
                elif item.stream != stream:
                    return False
            elif isinstance(item, RecordEventItem):
                if stream is not None and item.stream != stream:
                    return False
        return True

    def _run_sequential(self, items: list[DispatchItem]) -> ExecutionResult:
        """O(n) execution of a single-stream schedule: each kernel starts at
        max(its launch time, previous kernel's completion)."""
        device = self.device
        cpu_time = 0.0
        last_end = 0.0
        records: list[KernelRecord] = []
        event_times: dict[EventId, float] = {}
        profiling_overhead = 0.0
        for item in items:
            if isinstance(item, LaunchItem):
                cpu_time += device.launch_overhead_us
                self._check_launch(item)
                if item.record is not None:
                    cpu_time += device.event_overhead_us
                    if item.record_is_profiling:
                        profiling_overhead += device.event_overhead_us
                        self._mark_profiled_record(len(records))
                start = max(cpu_time, last_end)
                duration = self._duration(item.kernel)
                end = start + duration
                records.append(
                    KernelRecord(item.kernel, item.stream, cpu_time, start, end)
                )
                last_end = end
                if item.record is not None:
                    event_times[item.record] = end
            elif isinstance(item, RecordEventItem):
                cpu_time += device.event_overhead_us
                profiling_overhead += device.event_overhead_us
                event_times[item.event] = max(cpu_time, last_end) if records else cpu_time
            elif isinstance(item, HostComputeItem):
                cpu_time += item.duration_us
            elif isinstance(item, HostSyncItem):
                if item.event is not None and item.event not in event_times:
                    raise RuntimeError(f"sync on unrecorded event {item.event}")
                target = event_times[item.event] if item.event is not None else last_end
                cpu_time = max(cpu_time, target) + device.barrier_overhead_us
            else:  # pragma: no cover - defensive
                raise TypeError(f"unknown dispatch item {item!r}")
        total = max(cpu_time, last_end)
        return ExecutionResult(
            total_time_us=total,
            cpu_time_us=cpu_time,
            records=records,
            event_times=event_times,
            profiling_overhead_us=profiling_overhead,
        )

    def _run_concurrent(self, items: list[DispatchItem]) -> ExecutionResult:
        device = self.device
        slots = device.sm_slots

        event_times: dict[EventId, float] = {}
        records: list[KernelRecord] = []
        # stream id -> list of (record, waits, record_event) not yet started
        stream_queues: dict[int, list] = {}
        # stream id -> completion time of the last *finished* kernel (for bare event records)
        stream_last_done: dict[int, float] = {}
        # events attached to kernels: kernel record -> list of events to stamp
        running: list[_Running] = []
        profiling_overhead = 0.0

        cpu_time = 0.0
        idx = 0
        blocked_on: EventId | None | str = "none"  # "none" = not blocked
        sim_time = 0.0
        in_flight = 0  # launched but unfinished kernels

        def issue_until_blocked() -> None:
            nonlocal cpu_time, idx, blocked_on, in_flight, profiling_overhead
            while idx < len(items):
                item = items[idx]
                if isinstance(item, LaunchItem):
                    cpu_time += device.launch_overhead_us
                    self._check_launch(item)
                    rec = KernelRecord(item.kernel, item.stream, issue_time=cpu_time)
                    events = []
                    if item.record is not None:
                        cpu_time += device.event_overhead_us
                        if item.record_is_profiling:
                            profiling_overhead += device.event_overhead_us
                            self._mark_profiled_record(len(records))
                        events.append(item.record)
                    stream_queues.setdefault(item.stream, []).append(
                        (rec, tuple(item.waits), tuple(events))
                    )
                    records.append(rec)
                    in_flight += 1
                elif isinstance(item, RecordEventItem):
                    cpu_time += device.event_overhead_us
                    profiling_overhead += device.event_overhead_us
                    queue = stream_queues.get(item.stream, [])
                    if queue:
                        # piggyback on the last launched kernel in the stream
                        rec, waits, events = queue[-1]
                        queue[-1] = (rec, waits, events + (item.event,))
                    else:
                        # stream idle: event completes immediately at CPU time
                        event_times[item.event] = max(
                            cpu_time, stream_last_done.get(item.stream, 0.0)
                        )
                elif isinstance(item, HostComputeItem):
                    cpu_time += item.duration_us
                elif isinstance(item, HostSyncItem):
                    if item.event is None:
                        if in_flight > 0:
                            blocked_on = None
                            return
                        cpu_time = max(cpu_time, sim_time) + device.barrier_overhead_us
                    else:
                        if item.event not in event_times:
                            blocked_on = item.event
                            return
                        cpu_time = (
                            max(cpu_time, event_times[item.event])
                            + device.barrier_overhead_us
                        )
                else:  # pragma: no cover - defensive
                    raise TypeError(f"unknown dispatch item {item!r}")
                idx += 1
            blocked_on = "none"

        def try_unblock() -> None:
            nonlocal cpu_time, idx, blocked_on
            if idx >= len(items):
                return
            item = items[idx]
            if not isinstance(item, HostSyncItem):
                return
            if item.event is None:
                if in_flight == 0:
                    cpu_time = max(cpu_time, sim_time) + device.barrier_overhead_us
                    idx += 1
                    blocked_on = "none"
                    issue_until_blocked()
            elif item.event in event_times:
                cpu_time = max(cpu_time, event_times[item.event]) + device.barrier_overhead_us
                idx += 1
                blocked_on = "none"
                issue_until_blocked()

        def ready_time(stream: int) -> tuple | None:
            """Head-of-stream kernel's earliest start, or None if not ready."""
            queue = stream_queues.get(stream)
            if not queue:
                return None
            rec, waits, events = queue[0]
            if rec.start_time >= 0.0:
                return None  # already running
            if any(ev not in event_times for ev in waits):
                return None
            start = rec.issue_time
            for ev in waits:
                start = max(start, event_times[ev])
            start = max(start, stream_last_done.get(stream, 0.0))
            return (start, stream, rec, events)

        issue_until_blocked()

        # Main event loop.
        while True:
            candidates = [c for c in (ready_time(s) for s in list(stream_queues)) if c]
            next_start = min(candidates, key=lambda c: c[0]) if candidates else None

            _waterfill(running, slots)
            next_completion = None
            for r in running:
                if r.rate <= 0:
                    continue
                finish = sim_time + r.work_left / r.rate
                if next_completion is None or finish < next_completion[0]:
                    next_completion = (finish, r)

            moments = []
            if next_start is not None:
                moments.append(next_start[0])
            if next_completion is not None:
                moments.append(next_completion[0])
            if not moments:
                if any(stream_queues.values()) or running:
                    raise RuntimeError(
                        "deadlock: kernels pending but no progress possible "
                        "(wait on an event that is never recorded?)"
                    )
                break

            new_time = min(moments)
            # progress running kernels
            for r in running:
                r.work_left -= r.rate * (new_time - sim_time)
            sim_time = new_time

            # completions first (frees stream heads and events)
            finished = [r for r in running if r.work_left <= _EPS]
            for r in finished:
                running.remove(r)
                r.record.end_time = sim_time
                stream = r.record.stream
                queue = stream_queues[stream]
                entry = queue.pop(0)
                stream_last_done[stream] = sim_time
                for ev in entry[2]:
                    event_times[ev] = sim_time
                in_flight -= 1
            if finished:
                try_unblock()
                continue

            # otherwise, start every kernel that is ready at this instant
            started_any = False
            for cand in sorted(candidates, key=lambda c: c[0]):
                start, stream, rec, _events = cand
                if start <= sim_time + _EPS and not any(
                    r.record is rec for r in running
                ):
                    rec.start_time = sim_time
                    kernel = rec.kernel
                    cap = kernel.parallelism(device)
                    uses_sms = cap > 0
                    base = self._duration(kernel)
                    work = base * (max(1, cap) if uses_sms else 1.0)
                    running.append(_Running(rec, cap, work, uses_sms))
                    started_any = True
            if not started_any and next_completion is None:
                raise RuntimeError("simulation stalled without progress")

        total = max([cpu_time] + [r.end_time for r in records] + [sim_time])
        return ExecutionResult(
            total_time_us=total,
            cpu_time_us=cpu_time,
            records=records,
            event_times=event_times,
            profiling_overhead_us=profiling_overhead,
        )
