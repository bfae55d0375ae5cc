"""Differential test: the event-driven stream engine against the engine it
replaced.

``ReferenceSimulator`` (``_reference_engine.py``) is the previous
concurrent engine, verbatim: it rescans every stream head and re-sorts the
SM sharers on every event.  The production engine keeps incremental ready
and sharer tables instead, and must stay *bit-identical*.  Every
comparison is exact ``==`` on everything the profiler can observe: the
run's total, CPU and profiling-overhead times, each kernel record's
(stream, issue, start, end), and the event times in recording order.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro import AstraSession
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
from repro.gpu.kernels import CopyLaunch, ElementwiseLaunch, HostTransfer

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
    """(production, reference) observations of one concurrent run."""
    production = StreamSimulator(device, seed=seed)._run_concurrent(items)
    reference = ReferenceSimulator(device, seed=seed)._run_concurrent(items)
    return observed(production), observed(reference)


def explored_schedules(monkeypatch, model, device) -> list[tuple[list, tuple]]:
    """Every dispatch list a full ``all``-features exploration of ``model``
    sends to the concurrent engine, with the production engine's
    observation of it, taken as the run returned."""
    production = StreamSimulator._run_concurrent
    schedules: list[tuple[list, tuple]] = []

    def capture(sim, items):
        result = production(sim, items)
        schedules.append((list(items), observed(result)))
        return result

    monkeypatch.setattr(StreamSimulator, "_run_concurrent", capture)
    AstraSession(model, device=device, features="all").optimize()
    monkeypatch.undo()
    return schedules


@pytest.mark.parametrize("device", [P100, V100], ids=lambda d: d.name)
@pytest.mark.parametrize("model", ["tiny_scrnn", "tiny_milstm"])
def test_every_explored_schedule_is_bit_identical(request, monkeypatch, model, device):
    schedules = explored_schedules(monkeypatch, request.getfixturevalue(model), device)
    assert schedules, "the stream phase explored no concurrent schedule"
    mismatched = [
        i for i, (items, production) in enumerate(schedules)
        if production != observed(ReferenceSimulator(device)._run_concurrent(items))
    ]
    assert mismatched == [], f"{len(mismatched)} of {len(schedules)} schedules differ"


def test_autoboost_draws_match_from_one_rng_state(tiny_scrnn, monkeypatch):
    """Jitter is drawn per kernel start, so the draw sequence pins the start
    order.  One simulator of each engine, seeded alike, runs the explored
    schedules back to back: the RNG state carries from run to run, so a
    single out-of-order start would shift every later duration."""
    schedules = explored_schedules(monkeypatch, tiny_scrnn, P100)
    device = P100.with_clock(CLOCK_AUTOBOOST)
    production = StreamSimulator(device, seed=7)
    reference = ReferenceSimulator(device, seed=7)
    for items, _base_clock in schedules:
        assert observed(production._run_concurrent(items)) == observed(
            reference._run_concurrent(items)
        )


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
    result = StreamSimulator(P100)._run_concurrent(items)
    _gate, on_one, on_zero = result.records
    assert on_one.start_time == on_zero.start_time
    assert list(result.event_times) == [gate, first, second]


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
