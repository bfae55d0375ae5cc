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

The engine runs a :class:`StreamProgram` -- flat ops whose events are
integer slots, over a table of the launched kernels and their costs --
and returns per-kernel and per-event timestamps, from which the profiler
computes the fine-grained measurements that drive adaptation.  The
dispatcher binds a program per candidate onto a structure it compiled
once; a hand-built dispatch-item list is compiled by
:func:`compile_items`.
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


# -- the engine's input: flat ops over a kernel table ------------------------

#: op codes of a :class:`StreamProgram`.  Ops are plain tuples:
#: ``(OP_LAUNCH, stream, waits, record, profiling)`` launches the next
#: kernel of the table (``waits`` a tuple of event slots, ``record`` a slot
#: or -1); ``(OP_RECORD, stream, slot)``; ``(OP_SYNC, slot)`` with -1 for
#: all work; ``(OP_HOST, duration_us, label, unit)``, ``unit`` being the
#: owning unit id or None.
OP_LAUNCH, OP_RECORD, OP_SYNC, OP_HOST = range(4)


class KernelTable:
    """The kernels a schedule launches, in record order, with their costs
    on one device computed once: base-clock duration, SM cap and kind.

    ``known`` holds the costs per device, a dict from
    :meth:`~repro.gpu.kernels.Kernel.cost_key` to ``(duration, cap,
    kind)``; tables may share it.  A graph's schedules share one, so a
    candidate costs only the kernels no earlier schedule launched.
    """

    __slots__ = ("kernels", "known", "_device", "_costs")

    def __init__(self, kernels: list[Kernel], known: dict | None = None):
        self.kernels = kernels
        self.known = {} if known is None else known
        self._device = None
        self._costs = None

    def costs(self, device: GPUSpec) -> tuple[list, list, list]:
        if device is not self._device:
            known = self.known.setdefault(device, {})
            rows = []
            for kernel in self.kernels:
                key = kernel.cost_key()
                row = known.get(key)
                if row is None:
                    row = (kernel.duration_us(device), kernel.parallelism(device),
                           kernel.kind)
                    if key is not None:
                        known[key] = row
                rows.append(row)
            durations, caps, kinds = zip(*rows) if rows else ((), (), ())
            self._costs = (list(durations), list(caps), list(kinds))
            self._device = device
        return self._costs


class StreamProgram:
    """A dispatch list in the form the engine runs: flat ops whose events
    are integer slots, over a :class:`KernelTable`.

    ``events`` maps each slot back to its :class:`EventId`; it may be given
    as a callable that builds the list, called on first read.
    ``sequential`` is True when every launch shares one stream and none
    waits, which the single-stream fast path executes exactly.
    ``len()`` is the number of dispatch items.
    """

    __slots__ = ("table", "ops", "num_events", "sequential", "_events")

    def __init__(self, table: KernelTable, ops: list[tuple], num_events: int,
                 events, sequential: bool):
        self.table = table
        self.ops = ops
        self.num_events = num_events
        self.sequential = sequential
        self._events = events

    def __len__(self) -> int:
        return len(self.ops)

    @property
    def events(self) -> list[EventId]:
        if callable(self._events):
            self._events = self._events()
        return self._events

    def to_items(self) -> list[DispatchItem]:
        """The dispatch items these ops encode."""
        kernels = self.table.kernels
        events = self.events
        items: list[DispatchItem] = []
        record = 0
        for op in self.ops:
            code = op[0]
            if code == OP_LAUNCH:
                _, stream, waits, slot, profiling = op
                items.append(LaunchItem(
                    kernels[record], stream,
                    waits=tuple(events[s] for s in waits),
                    record=events[slot] if slot >= 0 else None,
                    record_is_profiling=profiling,
                ))
                record += 1
            elif code == OP_SYNC:
                items.append(HostSyncItem(events[op[1]] if op[1] >= 0 else None))
            elif code == OP_HOST:
                items.append(HostComputeItem(op[1], label=op[2]))
            else:
                items.append(RecordEventItem(op[1], events[op[2]]))
        return items


def compile_items(items: list[DispatchItem]) -> StreamProgram:
    """Compile a hand-built dispatch list for the engine."""
    slots: dict[EventId, int] = {}
    events: list[EventId] = []

    def slot(event: EventId) -> int:
        index = slots.get(event)
        if index is None:
            index = slots[event] = len(events)
            events.append(event)
        return index

    kernels: list[Kernel] = []
    ops: list[tuple] = []
    stream = None
    sequential = True
    for item in items:
        if isinstance(item, LaunchItem):
            waits = tuple(slot(ev) for ev in item.waits)
            if waits:
                sequential = False
            if stream is None:
                stream = item.stream
            elif item.stream != stream:
                sequential = False
            kernels.append(item.kernel)
            record = slot(item.record) if item.record is not None else -1
            ops.append((OP_LAUNCH, item.stream, waits, record, item.record_is_profiling))
        elif isinstance(item, RecordEventItem):
            if stream is not None and item.stream != stream:
                sequential = False
            ops.append((OP_RECORD, item.stream, slot(item.event)))
        elif isinstance(item, HostSyncItem):
            ops.append((OP_SYNC, slot(item.event) if item.event is not None else -1))
        elif isinstance(item, HostComputeItem):
            ops.append((OP_HOST, item.duration_us, item.label, None))
        else:
            raise TypeError(f"unknown dispatch item {item!r}")
    return StreamProgram(KernelTable(kernels), ops, len(events), events, sequential)


class ExecutionResult:
    """Everything the profiler can observe about one mini-batch execution.

    The engine fills flat per-record lists (``start_times``,
    ``end_times``); ``records`` and ``event_times`` are built from them on
    first read.
    """

    def __init__(
        self,
        total_time_us: float,
        cpu_time_us: float,
        records: list[KernelRecord],
        event_times: dict[EventId, float],
        profiling_overhead_us: float = 0.0,
    ):
        self.total_time_us = total_time_us
        self.cpu_time_us = cpu_time_us
        #: CPU microseconds spent on event marking (profiling overhead metric)
        self.profiling_overhead_us = profiling_overhead_us
        self.start_times = [r.start_time for r in records]
        self.end_times = [r.end_time for r in records]
        self._records = records
        self._event_times = event_times
        self._run = None

    @classmethod
    def of_run(cls, program: StreamProgram, total_time_us: float, cpu_time_us: float,
               profiling_overhead_us: float, issue_times: list[float],
               start_times: list[float], end_times: list[float], streams: list[int],
               event_slot_times: list, stamped: list[int]) -> "ExecutionResult":
        """A result over the engine's flat lists; ``stamped`` lists event
        slots in the order they were first recorded."""
        self = cls.__new__(cls)
        self.total_time_us = total_time_us
        self.cpu_time_us = cpu_time_us
        self.profiling_overhead_us = profiling_overhead_us
        self.start_times = start_times
        self.end_times = end_times
        self._records = None
        self._event_times = None
        self._run = (program, issue_times, streams, event_slot_times, stamped)
        return self

    @property
    def records(self) -> list[KernelRecord]:
        if self._records is None:
            program, issue, streams, _times, _stamped = self._run
            kernels = program.table.kernels
            self._records = [
                KernelRecord(kernels[i], streams[i], issue[i], start, end)
                for i, (start, end) in enumerate(zip(self.start_times, self.end_times))
            ]
        return self._records

    @property
    def event_times(self) -> dict[EventId, float]:
        if self._event_times is None:
            program, _issue, _streams, times, stamped = self._run
            events = program.events
            self._event_times = {events[slot]: times[slot] for slot in stamped}
        return self._event_times

    def _fields(self) -> tuple:
        return (self.total_time_us, self.cpu_time_us, self.records,
                self.event_times, self.profiling_overhead_us)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    __hash__ = None

    def __repr__(self) -> str:
        names = ("total_time_us", "cpu_time_us", "records", "event_times",
                 "profiling_overhead_us")
        body = ", ".join(f"{n}={v!r}" for n, v in zip(names, self._fields()))
        return f"ExecutionResult({body})"

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

    __slots__ = ("record", "stream", "cap", "work_left", "rate", "uses_sms")

    def __init__(self, record: int, stream: int, cap: int, work: float, uses_sms: bool):
        self.record = record
        self.stream = stream
        self.cap = max(1, cap)
        self.work_left = work
        # copy-engine work never shares the SM array: it runs at unit rate
        self.rate = 0.0 if uses_sms else 1.0
        self.uses_sms = uses_sms


def _cap(running: _Running) -> int:
    return running.cap


def _launch_error(kind: str, injector):
    from ..faults.events import KernelLaunchError

    return KernelLaunchError(kind, injector.minibatch)


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

    def __init__(self, device: GPUSpec, seed: int | tuple = 0, injector=None):
        self.device = device
        #: the jitter RNG is built from ``_seed`` (an int or a substream
        #: key tuple) on the first autoboost draw; at base clock nothing
        #: is drawn, so numpy is never loaded
        self._seed = seed
        self._rng = None
        self.injector = injector

    def _jitter(self) -> float:
        if self.device.clock_mode != CLOCK_AUTOBOOST:
            return 1.0
        if self._rng is None:
            import numpy as np

            self._rng = np.random.default_rng(self._seed)
        gain = 1.0 + self.device.autoboost_gain
        half = self.device.autoboost_jitter
        return max(0.05, gain * (1.0 + self._rng.uniform(-half, half)))

    def run(self, schedule: StreamProgram | list[DispatchItem]) -> ExecutionResult:
        """Execute a compiled program, or a dispatch list compiled here."""
        program = schedule if isinstance(schedule, StreamProgram) else compile_items(schedule)
        if program.sequential:
            return self._run_sequential(program)
        return self._run_concurrent(program)

    def _run_sequential(self, program: StreamProgram) -> ExecutionResult:
        """O(n) execution of a single-stream schedule: each kernel starts at
        max(its launch time, previous kernel's completion)."""
        device = self.device
        launch_us = device.launch_overhead_us
        event_us = device.event_overhead_us
        barrier_us = device.barrier_overhead_us
        durations, _caps, kinds = program.table.costs(device)
        injector = self.injector
        boost = device.clock_mode == CLOCK_AUTOBOOST
        n = len(durations)
        issue_times = [0.0] * n
        start_times = [-1.0] * n
        end_times = [-1.0] * n
        streams = [0] * n
        times = [None] * program.num_events
        stamped: list[int] = []
        cpu_time = 0.0
        last_end = 0.0
        profiling_overhead = 0.0
        rec = 0
        for op in program.ops:
            code = op[0]
            if code == OP_LAUNCH:
                _, stream, _waits, slot, profiling = op
                cpu_time += launch_us
                if injector is not None and injector.launch_fails(kinds[rec]):
                    raise _launch_error(kinds[rec], injector)
                if slot >= 0:
                    cpu_time += event_us
                    if profiling:
                        profiling_overhead += event_us
                        if injector is not None:
                            injector.event_fault(rec)
                start = max(cpu_time, last_end)
                duration = durations[rec]
                if boost:
                    duration = duration * self._jitter()
                if injector is not None:
                    duration *= injector.kernel_multiplier(kinds[rec])
                end = start + duration
                issue_times[rec] = cpu_time
                start_times[rec] = start
                end_times[rec] = end
                streams[rec] = stream
                rec += 1
                last_end = end
                if slot >= 0:
                    if times[slot] is None:
                        stamped.append(slot)
                    times[slot] = end
            elif code == OP_RECORD:
                slot = op[2]
                cpu_time += event_us
                profiling_overhead += event_us
                if times[slot] is None:
                    stamped.append(slot)
                times[slot] = max(cpu_time, last_end) if rec else cpu_time
            elif code == OP_HOST:
                cpu_time += op[1]
            else:
                slot = op[1]
                if slot < 0:
                    target = last_end
                else:
                    target = times[slot]
                    if target is None:
                        raise RuntimeError(
                            f"sync on unrecorded event {program.events[slot]}"
                        )
                cpu_time = max(cpu_time, target) + barrier_us
        total = max(cpu_time, last_end)
        return ExecutionResult.of_run(
            program, total, cpu_time, profiling_overhead,
            issue_times, start_times, end_times, streams, times, stamped,
        )

    def _run_concurrent(self, program: StreamProgram) -> ExecutionResult:
        """Event-driven execution of a multi-stream schedule.

        Each step advances simulated time to the earlier of the next
        kernel start and the next kernel completion.  The bookkeeping is
        incremental: ``ready`` holds, for every stream whose head kernel
        may start, ``(earliest start, stream order, record)`` and is
        refreshed only for the streams a completion, an issue into an
        empty queue, or a stamped event touched; ``sharers`` keeps the
        SM-sharing kernels sorted by ``(cap, start order)``, so the
        max-min fair water-fill is one linear pass, redone only when the
        running set changes.  Records and events are integer indices
        into flat lists.

        Dispatch-bound schedules mostly run one kernel at a time, so a
        kernel that starts with nothing running and no other head due
        also completes in the step that starts it, unless another head
        becomes ready first (see ``docs/simulator.md``).
        """
        device = self.device
        slots = float(device.sm_slots)
        launch_us = device.launch_overhead_us
        event_us = device.event_overhead_us
        barrier_us = device.barrier_overhead_us
        durations, caps, kinds = program.table.costs(device)
        injector = self.injector
        boost = device.clock_mode == CLOCK_AUTOBOOST
        ops = program.ops
        num_ops = len(ops)
        n = len(durations)
        issue_times = [0.0] * n
        start_times = [-1.0] * n
        end_times = [-1.0] * n
        streams = [0] * n

        # event slot -> completion time (None until recorded)
        times: list = [None] * program.num_events
        stamped: list[int] = []  # event slots in first-recorded order
        # stream id -> (record, waits, events to stamp) not yet finished
        queues: dict[int, deque] = {}
        # stream id -> rank of its first launch; breaks start-time ties
        stream_order: dict[int, int] = {}
        # stream id -> completion time of its last finished kernel
        last_done: dict[int, float] = {}
        # stream id -> (start, stream order, record) of a startable head
        ready: dict[int, tuple[float, int, int]] = {}
        # event slot -> streams whose head waited on it when last refreshed
        waiters: dict[int, list[int]] = {}
        running: list[_Running] = []  # in start order
        sharers: list[_Running] = []  # SM users, sorted by (cap, start order)
        rates_stale = False
        profiling_overhead = 0.0

        cpu_time = 0.0
        idx = 0
        issued = 0  # records issued so far
        sim_time = 0.0
        in_flight = 0  # launched but unfinished kernels

        def refresh(stream: int) -> None:
            """Recompute ``stream``'s entry in ``ready`` from its head."""
            ready.pop(stream, None)
            queue = queues[stream]
            if not queue:
                return
            rec, waits, _events = queue[0]
            if start_times[rec] >= 0.0:
                return  # already running
            start = issue_times[rec]
            if waits:
                # every wait, stamped or not: re-recording an event moves it
                for ev in waits:
                    waiters.setdefault(ev, []).append(stream)
                for ev in waits:
                    done = times[ev]
                    if done is None:
                        return
                    if done > start:
                        start = done
            done = last_done.get(stream, 0.0)
            if done > start:
                start = done
            ready[stream] = (start, stream_order[stream], rec)

        def stamp(slot: int, time: float) -> None:
            if times[slot] is None:
                stamped.append(slot)
            times[slot] = time
            for stream in waiters.pop(slot, ()):
                refresh(stream)

        def issue() -> None:
            """Issue ops until the host blocks on a sync."""
            nonlocal cpu_time, idx, issued, in_flight, profiling_overhead
            while idx < num_ops:
                op = ops[idx]
                code = op[0]
                if code == OP_LAUNCH:
                    _, stream, waits, slot, profiling = op
                    rec = issued
                    cpu_time += launch_us
                    if injector is not None and injector.launch_fails(kinds[rec]):
                        raise _launch_error(kinds[rec], injector)
                    issue_times[rec] = cpu_time
                    streams[rec] = stream
                    if slot >= 0:
                        cpu_time += event_us
                        if profiling:
                            profiling_overhead += event_us
                            if injector is not None:
                                injector.event_fault(rec)
                        events = (slot,)
                    else:
                        events = ()
                    queue = queues.get(stream)
                    if queue is None:
                        stream_order[stream] = len(queues)
                        queue = queues[stream] = deque()
                    queue.append((rec, waits, events))
                    if len(queue) == 1:
                        refresh(stream)
                    issued += 1
                    in_flight += 1
                elif code == OP_SYNC:
                    slot = op[1]
                    if slot < 0:
                        if in_flight > 0:
                            return
                        cpu_time = max(cpu_time, sim_time) + barrier_us
                    else:
                        if times[slot] is None:
                            return
                        cpu_time = max(cpu_time, times[slot]) + barrier_us
                elif code == OP_HOST:
                    cpu_time += op[1]
                else:
                    _, stream, slot = op
                    cpu_time += event_us
                    profiling_overhead += event_us
                    queue = queues.get(stream)
                    if queue:
                        # piggyback on the last launched kernel in the stream
                        rec, waits, events = queue[-1]
                        queue[-1] = (rec, waits, events + (slot,))
                    else:
                        # stream idle: event completes immediately at CPU time
                        stamp(slot, max(cpu_time, last_done.get(stream, 0.0)))
                idx += 1

        issue()

        # Main event loop.
        while True:
            if not running and ready:
                # Dispatch-bound fast path: with nothing running and one
                # head due, that kernel runs alone.  It starts and, unless
                # another head is ready before it would finish, completes
                # in this step, with the float operations the general
                # steps would use; otherwise it is handed to them running.
                if len(ready) == 1:
                    head = next(iter(ready.values()))
                    after = None
                else:
                    head, after = sorted(ready.values())[:2]
                t = head[0]
                if after is None or after[0] > t + _EPS:
                    rec = head[2]
                    stream = streams[rec]
                    del ready[stream]
                    sim_time = t
                    start_times[rec] = t
                    cap = caps[rec]
                    base = durations[rec]
                    if boost:
                        base = base * self._jitter()
                    if injector is not None:
                        base *= injector.kernel_multiplier(kinds[rec])
                    if cap <= 0:
                        running.append(_Running(rec, stream, cap, base, False))
                    else:
                        # max(1, cap) and min(float(c), slots / 1), written
                        # as comparisons: the same floats, no builtin calls
                        c = cap if cap > 1 else 1
                        work = base * c
                        rate = float(c)
                        if rate > slots:
                            rate = slots
                        finish = t + work / rate
                        if ((after is not None and after[0] < finish)
                                or work - rate * (finish - t) > _EPS):
                            r = _Running(rec, stream, cap, work, True)
                            running.append(r)
                            sharers.append(r)
                            rates_stale = True
                        else:
                            sim_time = finish
                            end_times[rec] = finish
                            queue = queues[stream]
                            entry = queue.popleft()
                            last_done[stream] = finish
                            if queue:
                                rec = queue[0][0]
                                if queue[0][1]:
                                    refresh(stream)
                                else:  # refresh(stream) for a head without waits
                                    start = issue_times[rec]
                                    ready[stream] = (start if start >= finish else finish,
                                                     stream_order[stream], rec)
                            for ev in entry[2]:
                                stamp(ev, finish)
                            in_flight -= 1
                            # issue() stops only at a sync; resume it only
                            # when that sync can now pass
                            if idx < num_ops:
                                op = ops[idx]
                                if op[0] != OP_SYNC or (
                                    in_flight <= 0 if op[1] < 0 else times[op[1]] is not None
                                ):
                                    issue()
                            continue
                    # the general steps take the running kernel from here

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
            if not finished and dt == 0.0 and (
                next_start is None or next_start[0] > sim_time + _EPS
            ):
                # a step that moves no time, finishes no kernel and starts
                # none would repeat forever: the residual work left is
                # above _EPS but too small to move sim_time.  Finish the
                # kernels whose finish time rounds to now.
                finished = [
                    r for r in running
                    if r.rate > 0 and sim_time + r.work_left / r.rate == sim_time
                ]

            # completions first (frees stream heads and events)
            if finished:
                rates_stale = True
                for r in finished:
                    running.remove(r)
                    if r.uses_sms:
                        sharers.remove(r)
                    end_times[r.record] = sim_time
                    stream = r.stream
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
                stream = streams[rec]
                del ready[stream]
                start_times[rec] = sim_time
                cap = caps[rec]
                uses_sms = cap > 0
                # model time, autoboost jitter, then any injected
                # straggler/throttle multiplier
                base = durations[rec]
                if boost:
                    base = base * self._jitter()
                if injector is not None:
                    base *= injector.kernel_multiplier(kinds[rec])
                work = base * (max(1, cap) if uses_sms else 1.0)
                r = _Running(rec, stream, cap, work, uses_sms)
                running.append(r)
                if uses_sms:
                    # insort_right: equal caps stay in start order
                    insort(sharers, r, key=_cap)
                    rates_stale = True
            if not due and next_completion is None:
                raise RuntimeError("simulation stalled without progress")

        if issued < n:
            # the host blocked on an event that is never recorded
            del issue_times[issued:], start_times[issued:], end_times[issued:]
            del streams[issued:]
        total = max([cpu_time] + end_times + [sim_time])
        return ExecutionResult.of_run(
            program, total, cpu_time, profiling_overhead,
            issue_times, start_times, end_times, streams, times, stamped,
        )
