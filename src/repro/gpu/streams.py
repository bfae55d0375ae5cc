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

from bisect import insort
from collections import deque
from dataclasses import dataclass

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
        # copy-engine work never shares the SM array: it runs at unit rate
        self.rate = 0.0 if uses_sms else 1.0
        self.uses_sms = uses_sms


def _cap(running: _Running) -> int:
    return running.cap


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
        #: the jitter RNG is built from ``_seed`` on the first autoboost
        #: draw; at base clock nothing is drawn, so numpy is never loaded
        self._seed = seed
        self._rng = None
        self.injector = injector

    def reseed(self, seed_key) -> None:
        """Rebind the jitter RNG to a derived substream.

        The exploration engine reseeds the simulator once per candidate,
        keyed by the candidate's global mini-batch ordinal, so autoboost
        jitter is a function of *which* candidate runs -- never of which
        worker runs it or what ran before.  At base clock no draws happen
        at all, so the reseed is skipped.
        """
        if self.device.clock_mode == CLOCK_AUTOBOOST:
            self._seed, self._rng = seed_key, None

    def _jitter(self) -> float:
        if self.device.clock_mode != CLOCK_AUTOBOOST:
            return 1.0
        if self._rng is None:
            import numpy as np

            self._rng = np.random.default_rng(self._seed)
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
        """Event-driven execution of a multi-stream schedule.

        Each step advances simulated time to the earlier of the next
        kernel start and the next kernel completion.  The bookkeeping is
        incremental: ``ready`` holds, for every stream whose head kernel
        may start, ``(earliest start, stream order, record)`` and is
        refreshed only for the streams a completion, an issue into an
        empty queue, or a stamped event touched; ``sharers`` keeps the
        SM-sharing kernels sorted by ``(cap, start order)``, so the
        max-min fair water-fill is one linear pass, redone only when the
        running set changes.
        """
        device = self.device
        slots = float(device.sm_slots)

        event_times: dict[EventId, float] = {}
        records: list[KernelRecord] = []
        # stream id -> (record, waits, events to stamp) not yet finished
        queues: dict[int, deque] = {}
        # stream id -> rank of its first launch; breaks start-time ties
        stream_order: dict[int, int] = {}
        # stream id -> completion time of its last finished kernel
        last_done: dict[int, float] = {}
        # stream id -> (start, stream order, record) of a startable head
        ready: dict[int, tuple[float, int, KernelRecord]] = {}
        # event -> streams whose head waited on it when last refreshed
        waiters: dict[EventId, list[int]] = {}
        running: list[_Running] = []  # in start order
        sharers: list[_Running] = []  # SM users, sorted by (cap, start order)
        rates_stale = False
        profiling_overhead = 0.0

        cpu_time = 0.0
        idx = 0
        sim_time = 0.0
        in_flight = 0  # launched but unfinished kernels

        def refresh(stream: int) -> None:
            """Recompute ``stream``'s entry in ``ready`` from its head."""
            ready.pop(stream, None)
            queue = queues[stream]
            if not queue:
                return
            rec, waits, _events = queue[0]
            if rec.start_time >= 0.0:
                return  # already running
            # every wait, stamped or not: re-recording an event moves it
            for ev in waits:
                waiters.setdefault(ev, []).append(stream)
            if any(ev not in event_times for ev in waits):
                return
            start = rec.issue_time
            for ev in waits:
                start = max(start, event_times[ev])
            start = max(start, last_done.get(stream, 0.0))
            ready[stream] = (start, stream_order[stream], rec)

        def stamp(event: EventId, time: float) -> None:
            event_times[event] = time
            for stream in waiters.pop(event, ()):
                refresh(stream)

        def issue() -> None:
            """Issue dispatch items until the host blocks on a sync."""
            nonlocal cpu_time, idx, in_flight, profiling_overhead
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
                    queue = queues.get(item.stream)
                    if queue is None:
                        stream_order[item.stream] = len(queues)
                        queue = queues[item.stream] = deque()
                    queue.append((rec, tuple(item.waits), tuple(events)))
                    if len(queue) == 1:
                        refresh(item.stream)
                    records.append(rec)
                    in_flight += 1
                elif isinstance(item, RecordEventItem):
                    cpu_time += device.event_overhead_us
                    profiling_overhead += device.event_overhead_us
                    queue = queues.get(item.stream)
                    if queue:
                        # piggyback on the last launched kernel in the stream
                        rec, waits, events = queue[-1]
                        queue[-1] = (rec, waits, events + (item.event,))
                    else:
                        # stream idle: event completes immediately at CPU time
                        stamp(item.event, max(cpu_time, last_done.get(item.stream, 0.0)))
                elif isinstance(item, HostComputeItem):
                    cpu_time += item.duration_us
                elif isinstance(item, HostSyncItem):
                    if item.event is None:
                        if in_flight > 0:
                            return
                        cpu_time = max(cpu_time, sim_time) + device.barrier_overhead_us
                    else:
                        if item.event not in event_times:
                            return
                        cpu_time = (
                            max(cpu_time, event_times[item.event])
                            + device.barrier_overhead_us
                        )
                else:  # pragma: no cover - defensive
                    raise TypeError(f"unknown dispatch item {item!r}")
                idx += 1

        issue()

        # Main event loop.
        while True:
            next_start = min(ready.values()) if ready else None

            if rates_stale:
                remaining = slots
                count = len(sharers)
                for r in sharers:
                    share = remaining / count
                    alloc = min(float(r.cap), share)
                    r.rate = alloc
                    remaining -= alloc
                    count -= 1
                rates_stale = False
            next_completion = None
            for r in running:
                if r.rate <= 0:
                    continue
                finish = sim_time + r.work_left / r.rate
                if next_completion is None or finish < next_completion:
                    next_completion = finish

            if next_start is None:
                if next_completion is None:
                    if any(queues.values()) or running:
                        raise RuntimeError(
                            "deadlock: kernels pending but no progress possible "
                            "(wait on an event that is never recorded?)"
                        )
                    break
                new_time = next_completion
            elif next_completion is None:
                new_time = next_start[0]
            else:
                new_time = min(next_start[0], next_completion)

            # progress running kernels
            dt = new_time - sim_time
            finished = []
            for r in running:
                r.work_left -= r.rate * dt
                if r.work_left <= _EPS:
                    finished.append(r)
            sim_time = new_time

            # completions first (frees stream heads and events)
            if finished:
                running = [r for r in running if r.work_left > _EPS]
                sharers = [r for r in sharers if r.work_left > _EPS]
                rates_stale = True
                for r in finished:
                    r.record.end_time = sim_time
                    stream = r.record.stream
                    entry = queues[stream].popleft()
                    last_done[stream] = sim_time
                    refresh(stream)
                    for ev in entry[2]:
                        stamp(ev, sim_time)
                    in_flight -= 1
                issue()  # the host may be blocked on what just finished
                continue

            # otherwise, start every kernel that is ready at this instant,
            # in (start, stream order) order
            if next_start is None or next_start[0] > sim_time + _EPS:
                due = ()
            elif len(ready) == 1:
                due = (next_start,)
            else:
                due = sorted(c for c in ready.values() if c[0] <= sim_time + _EPS)
            for _start, _order, rec in due:
                del ready[rec.stream]
                rec.start_time = sim_time
                kernel = rec.kernel
                cap = kernel.parallelism(device)
                uses_sms = cap > 0
                base = self._duration(kernel)
                work = base * (max(1, cap) if uses_sms else 1.0)
                r = _Running(rec, cap, work, uses_sms)
                running.append(r)
                if uses_sms:
                    # insort_right: equal caps stay in start order
                    insort(sharers, r, key=_cap)
                    rates_stale = True
            if not due and next_completion is None:
                raise RuntimeError("simulation stalled without progress")

        total = max([cpu_time] + [r.end_time for r in records] + [sim_time])
        return ExecutionResult(
            total_time_us=total,
            cpu_time_us=cpu_time,
            records=records,
            event_times=event_times,
            profiling_overhead_us=profiling_overhead,
        )
