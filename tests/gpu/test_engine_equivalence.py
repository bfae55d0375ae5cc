"""Differential test: the production stream engine against the engine as
it stood before the event-driven rewrite and compiled schedules.

``ReferenceSimulator`` (``_reference_engine.py``) runs dispatch-item
lists directly: it rescans every stream head and re-sorts the SM sharers
on every event, and builds a ``KernelRecord`` per kernel.  Production
compiles a plan once per structure, binds each candidate's streams and
events into flat ops, and runs those; it must stay *bit-identical*.
Every comparison is exact ``==`` on everything the profiler can observe:
the run's total, CPU and profiling-overhead times, each kernel record's
(stream, issue, start, end), and the event times in recording order --
plus, under fault injection, which launch fails and which records the
injector drops or corrupts.
"""

import math
import signal
from contextlib import contextmanager

import pytest
from hypothesis import given, settings, strategies as st

from repro import AstraSession
from repro.faults import FaultPlan
from repro.faults.events import (
    FAULT_EVENT_CORRUPT,
    FAULT_EVENT_DROP,
    FAULT_LAUNCH,
    FAULT_SLOWDOWN,
    KernelLaunchError,
)
from repro.faults.plan import FaultSpec
from repro.gpu import (
    CLOCK_AUTOBOOST,
    EventNamespace,
    GemmLaunch,
    HostComputeItem,
    HostSyncItem,
    LaunchItem,
    P100,
    RecordEventItem,
    StreamSimulator,
    V100,
)
from repro.gpu import streams
from repro.gpu.kernels import CopyLaunch, ElementwiseLaunch, HostTransfer
from repro.gpu.streams import StreamProgram, compile_items

from ._reference_engine import ReferenceSimulator


def observed(result) -> tuple:
    return (
        result.total_time_us,
        result.cpu_time_us,
        result.profiling_overhead_us,
        [(r.stream, r.issue_time, r.start_time, r.end_time) for r in result.records],
        list(result.event_times.items()),
    )


def both(items, device=P100, seed=0) -> tuple[tuple, tuple]:
    """(production, reference) observations of one run of ``items``,
    through each simulator's own choice of engine."""
    production = StreamSimulator(device, seed=seed).run(items)
    reference = ReferenceSimulator(device, seed=seed).run(items)
    return observed(production), observed(reference)


def both_concurrent(items, device=P100, seed=0) -> tuple[tuple, tuple]:
    """The same, forced through the concurrent engines."""
    production = StreamSimulator(device, seed=seed)._run_concurrent(compile_items(items))
    reference = ReferenceSimulator(device, seed=seed)._run_concurrent(items)
    return observed(production), observed(reference)


def explored_programs(monkeypatch, model, device) -> list[tuple[StreamProgram, tuple]]:
    """Every program a full ``all``-features exploration of ``model`` sends
    to the engine (compiled once per structure, bound per candidate), with
    the production engine's observation of it, taken as the run returned."""
    production = StreamSimulator.run
    programs: list[tuple[StreamProgram, tuple]] = []

    def capture(sim, program):
        assert isinstance(program, StreamProgram)
        result = production(sim, program)
        programs.append((program, observed(result)))
        return result

    monkeypatch.setattr(StreamSimulator, "run", capture)
    AstraSession(model, device=device, features="all").optimize()
    monkeypatch.undo()
    return programs


@pytest.mark.parametrize("device", [P100, V100], ids=lambda d: d.name)
@pytest.mark.parametrize("model", ["tiny_scrnn", "tiny_milstm"])
def test_every_explored_schedule_is_bit_identical(request, monkeypatch, model, device):
    programs = explored_programs(monkeypatch, request.getfixturevalue(model), device)
    assert any(not p.sequential for p, _ in programs), (
        "the stream phase explored no concurrent schedule"
    )
    assert any(p.sequential for p, _ in programs)
    mismatched = [
        i for i, (program, production) in enumerate(programs)
        if production != observed(ReferenceSimulator(device).run(program.to_items()))
    ]
    assert mismatched == [], f"{len(mismatched)} of {len(programs)} schedules differ"


def test_autoboost_draws_match_from_one_rng_state(tiny_scrnn, monkeypatch):
    """Jitter is drawn per kernel start, so the draw sequence pins the start
    order.  One simulator of each engine, seeded alike, runs the explored
    schedules back to back: the RNG state carries from run to run, so a
    single out-of-order start would shift every later duration."""
    programs = explored_programs(monkeypatch, tiny_scrnn, P100)
    device = P100.with_clock(CLOCK_AUTOBOOST)
    production = StreamSimulator(device, seed=7)
    reference = ReferenceSimulator(device, seed=7)
    for program, _base_clock in programs:
        assert observed(production.run(program)) == observed(
            reference.run(program.to_items())
        )


ARMED = FaultPlan(specs=(
    FaultSpec(FAULT_LAUNCH, rate=0.002),
    FaultSpec(FAULT_EVENT_DROP, rate=0.05),
    FaultSpec(FAULT_EVENT_CORRUPT, rate=0.05, factor=3.0),
    FaultSpec(FAULT_SLOWDOWN, rate=0.05, factor=4.0),
), seed=11)


def faulted(simulator, schedule) -> tuple:
    """One mini-batch under the simulator's injector: the observation or
    the launch failure, and what the injector logged."""
    injector = simulator.injector
    log = injector.begin_minibatch()
    try:
        outcome = observed(simulator.run(schedule))
    except KernelLaunchError as exc:
        outcome = ("launch failed", exc.kind, exc.minibatch)
    return (
        outcome, sorted(log.dropped_records), sorted(log.corrupted_records.items()),
        log.slowdowns, [(r.kind, r.minibatch, r.detail) for r in injector.ledger],
    )


@pytest.mark.parametrize("clock", ["base", "autoboost"])
def test_armed_injector_hits_the_same_kernels_and_records(tiny_milstm, monkeypatch, clock):
    """An armed :class:`FaultInjector` is consulted in issue and start
    order, so both engines must fail the same launch and drop or corrupt
    the same record indices, run after run, from one injector state."""
    programs = explored_programs(monkeypatch, tiny_milstm, P100)
    device = P100 if clock == "base" else P100.with_clock(CLOCK_AUTOBOOST)
    production = StreamSimulator(device, seed=5, injector=ARMED.injector())
    reference = ReferenceSimulator(device, seed=5, injector=ARMED.injector())
    outcomes = []
    for program, _base_clock in programs:
        outcome = faulted(production, program)
        assert outcome == faulted(reference, program.to_items())
        outcomes.append(outcome)
    failed = [o for o in outcomes if o[0][0] == "launch failed"]
    assert failed and len(failed) < len(outcomes)
    assert any(o[1] for o in outcomes) and any(o[2] for o in outcomes)
    assert any(o[3] for o in outcomes)


def test_start_ties_follow_first_seen_stream_order():
    """Heads that become ready at one instant start in the order their
    streams were first seen, not by stream id.  Stream 1 is seen before
    stream 0 here, so its kernel starts (and records its event) first."""
    events = EventNamespace()
    gate, first, second = events.new_event(), events.new_event(), events.new_event()
    kernel = GemmLaunch(64, 256, 256, "cublas")
    items = [
        LaunchItem(GemmLaunch(256, 1024, 1024, "cublas"), 2, record=gate),
        LaunchItem(kernel, 1, waits=(gate,), record=first),
        LaunchItem(kernel, 0, waits=(gate,), record=second),
        HostSyncItem(),
    ]
    for device in (P100, P100.with_clock(CLOCK_AUTOBOOST)):
        production, reference = both(items, device, seed=3)
        assert production == reference
        production, reference = both_concurrent(items, device, seed=3)
        assert production == reference
    result = StreamSimulator(P100).run(items)
    _gate, on_one, on_zero = result.records
    assert on_one.start_time == on_zero.start_time
    assert list(result.event_times) == [gate, first, second]


# -- the dispatch-bound fast path's edge cases ---------------------------------
#
# A kernel that starts with nothing running, and no other head due within
# ``_EPS``, is started and completed in one engine step.  The cases below
# sit on the boundaries of that path; each is built at base clock and
# also run at autoboost and under an armed injector, where its timings
# shift but both engines must still agree.

LONE = GemmLaunch(64, 256, 256, "cublas")  # ~6.1 us, 32 of P100's 56 slots
LONG = GemmLaunch(256, 1024, 1024, "cublas")  # ~126 us
SHORT = ElementwiseLaunch(num_elements=2048)  # ~1 us: dispatch-bound


def gap_to(cpu: float, target: float, device=P100) -> float:
    """The host-compute duration after which, from CPU time ``cpu``, the
    next launch is issued at exactly ``target`` (the engine adds the gap,
    then the launch overhead)."""
    launch = device.launch_overhead_us
    gap = target - launch - cpu
    for _ in range(64):
        issued = cpu + gap + launch
        if issued == target:
            return gap
        gap = math.nextafter(gap, math.inf if issued < target else -math.inf)
    raise AssertionError(f"no host gap issues a launch at {target!r}")


def head_at_offset(offset: float):
    """Stream 1's head is issued ``offset`` us after the lone kernel on
    stream 0 finishes (negative: before it finishes)."""
    events = EventNamespace()
    done = events.new_event()

    def items_with(gap: float) -> list:
        return [LaunchItem(LONE, 0, record=done), HostComputeItem(gap),
                LaunchItem(SHORT, 1), HostSyncItem()]

    alone = StreamSimulator(P100).run(items_with(100.0)).records[0]
    cpu = alone.issue_time + P100.event_overhead_us
    target = alone.end_time + offset
    items = items_with(gap_to(cpu, target))

    def holds(result) -> bool:
        return result.records[1].issue_time == target

    return items, holds


def heads_apart(spacing: float):
    """When LONG completes, stream 0's next head is ready at its end and
    stream 1's head ``spacing`` us later: two heads due within ``_EPS``."""
    def items_with(gap: float) -> list:
        return [LaunchItem(LONG, 0), LaunchItem(SHORT, 0), HostComputeItem(gap),
                LaunchItem(SHORT, 1), HostSyncItem()]

    finish = StreamSimulator(P100).run(items_with(1000.0)).records[0].end_time
    cpu = 2 * P100.launch_overhead_us
    items = items_with(gap_to(cpu, finish + spacing))

    def holds(result) -> bool:
        first, second, third = result.records
        return (second.start_time == first.end_time == third.start_time
                and third.issue_time == finish + spacing)

    return items, holds


def transfer_alone():
    """A copy-engine kernel (no SMs) starts with nothing running, then two
    GEMMs that together want more than the SM array start while it runs:
    the transfer must not take a share of the SMs."""
    items = [
        LaunchItem(SHORT, 0),
        LaunchItem(HostTransfer(bytes_moved=1 << 12, direction="h2d"), 1),
        LaunchItem(LONG, 0),
        LaunchItem(LONG, 2),
        LaunchItem(SHORT, 1),
        HostSyncItem(),
    ]

    def holds(result) -> bool:
        short, transfer, first, second, _last = result.records
        return (short.end_time < transfer.start_time < first.start_time
                < second.start_time < transfer.end_time)

    return items, holds


def sync_on_lone_record():
    """The host blocks on an event a lone kernel records, then launches
    into another stream and waits on that event there."""
    events = EventNamespace()
    done = events.new_event()
    items = [
        LaunchItem(LONE, 0, record=done),
        HostSyncItem(done),
        LaunchItem(SHORT, 1),
        LaunchItem(SHORT, 0, waits=(done,)),
        HostSyncItem(),
    ]

    def holds(result) -> bool:
        lone, after_sync, _waiter = result.records
        return after_sync.issue_time > result.event_times[done] == lone.end_time

    return items, holds


def chain_then_sync_all():
    """A chain of lone kernels across two streams, a sync on all work,
    then host work and one more launch."""
    items = [LaunchItem(SHORT, i % 2) for i in range(6)]
    items += [HostSyncItem(), HostComputeItem(3.0), LaunchItem(SHORT, 1), HostSyncItem()]

    def holds(result) -> bool:
        ends = [r.end_time for r in result.records]
        starts = [r.start_time for r in result.records]
        return all(end < start for end, start in zip(ends, starts[1:]))

    return items, holds


FAST_PATH_CASES = {
    "head-at-finish": lambda: head_at_offset(0.0),
    "head-just-before-finish": lambda: head_at_offset(-1e-12),
    "head-just-after-finish": lambda: head_at_offset(1e-12),
    "head-mid-kernel": lambda: head_at_offset(-0.5),
    "heads-tied": lambda: heads_apart(0.0),
    "heads-within-eps": lambda: heads_apart(0.5e-9),
    "transfer-alone": transfer_alone,
    "sync-on-lone-record": sync_on_lone_record,
    "sync-all-after-chain": chain_then_sync_all,
}


@pytest.mark.parametrize("case", sorted(FAST_PATH_CASES))
def test_fast_path_edges_match_the_reference(case):
    items, holds = FAST_PATH_CASES[case]()
    assert holds(StreamSimulator(P100).run(items)), "the case is not built as described"
    for device in (P100, P100.with_clock(CLOCK_AUTOBOOST)):
        production, reference = both(items, device, seed=3)
        assert production == reference
        production, reference = both_concurrent(items, device, seed=3)
        assert production == reference
        assert faulted(StreamSimulator(device, seed=5, injector=ARMED.injector()), items) \
            == faulted(ReferenceSimulator(device, seed=5, injector=ARMED.injector()), items)


@contextmanager
def time_limit(seconds: int):
    """Fail, instead of hanging, when the block runs past ``seconds``."""

    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds}s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def test_a_residual_too_small_to_move_time_finishes():
    """Late in a long run, a completion can leave a residual above the
    engine's epsilon whose finish time still rounds to the current time.
    Both engines finish that kernel there instead of stepping in place
    forever."""
    items = [
        HostComputeItem(3e7),
        LaunchItem(GemmLaunch(64, 256, 256, "cublas"), 0),
        HostComputeItem(20.0),
        LaunchItem(ElementwiseLaunch(2048), 1),
        HostSyncItem(),
    ]
    with time_limit(20):
        production, reference = both(items)
        assert production == reference
        production, reference = both_concurrent(items, P100.with_clock(CLOCK_AUTOBOOST), 3)
        assert production == reference
    total, _cpu, _overhead, records, _events = production
    assert total >= 3e7 and all(end >= start >= 0 for _s, _i, start, end in records)


def test_lone_kernels_take_the_fast_path(tiny_milstm, monkeypatch):
    """Tiny milstm's stream schedules are dispatch-bound: most kernels run
    alone, so most must finish without a ``_Running`` entry."""
    programs = [p for p, _ in explored_programs(monkeypatch, tiny_milstm, P100)
                if not p.sequential]
    started: list[int] = []

    class Counted(streams._Running):
        __slots__ = ()

        def __init__(self, record, *args):
            started.append(record)
            super().__init__(record, *args)

    monkeypatch.setattr(streams, "_Running", Counted)
    simulator = StreamSimulator(P100)
    for program in programs:
        simulator.run(program)
    kernels = sum(len(p.table.kernels) for p in programs)
    assert kernels > 0 and len(started) < kernels / 2


PALETTE = (
    GemmLaunch(256, 1024, 1024, "cublas"),  # fills the SM array
    GemmLaunch(32, 64, 64, "cublas"),  # a few tiles: leaves headroom
    GemmLaunch(64, 256, 256, "cublas"),
    ElementwiseLaunch(num_elements=2048),
    ElementwiseLaunch(num_elements=1 << 16),
    CopyLaunch(bytes_moved=1 << 14),
    HostTransfer(bytes_moved=1 << 12, direction="h2d"),  # copy engine, no SMs
)


@st.composite
def schedules(draw) -> list:
    """Random multi-stream dispatch lists that cannot deadlock: every wait
    and host sync names an event whose record was dispatched earlier."""
    events = EventNamespace()
    recorded: list = []
    items: list = []
    for _ in range(draw(st.integers(1, 40))):
        kind = draw(st.sampled_from(("launch",) * 4 + ("record", "sync", "host")))
        if kind == "launch":
            waits = draw(st.lists(st.sampled_from(recorded), max_size=3, unique=True)) \
                if recorded else []
            record = events.new_event() if draw(st.booleans()) else None
            items.append(LaunchItem(
                draw(st.sampled_from(PALETTE)), draw(st.integers(0, 3)),
                waits=tuple(waits), record=record, record_is_profiling=draw(st.booleans()),
            ))
            if record is not None:
                recorded.append(record)
        elif kind == "record":
            # stream 4 never launches, so its records always land on an
            # idle stream; re-recording an event restamps it
            if recorded and draw(st.booleans()):
                event = draw(st.sampled_from(recorded))
            else:
                event = events.new_event()
                recorded.append(event)
            items.append(RecordEventItem(draw(st.integers(0, 4)), event))
        elif kind == "sync":
            target = draw(st.sampled_from(recorded)) if recorded and draw(st.booleans()) else None
            items.append(HostSyncItem(target))
        else:
            items.append(HostComputeItem(draw(st.floats(0.0, 200.0))))
    items.append(HostSyncItem())
    return items


@settings(max_examples=200, deadline=None)
@given(items=schedules(), autoboost=st.booleans(), seed=st.integers(0, 2**16))
def test_random_schedules_are_bit_identical(items, autoboost, seed):
    device = P100.with_clock(CLOCK_AUTOBOOST) if autoboost else P100
    production, reference = both(items, device, seed)
    assert production == reference
    production, reference = both_concurrent(items, device, seed)
    assert production == reference
    assert compile_items(items).to_items() == items
