"""One event stream, several views: the phase table, the host trace, the
metrics and the run report of one observed run agree by construction."""

import pytest

from repro import AstraSession
from repro.core import ROBUST
from repro.faults import FAULT_LAUNCH, FaultPlan
from repro.obs import KIND_COMPARE, KIND_EXPLORE, Observer


def _self_times(slices) -> dict:
    """Per-name self time of properly nested ``(ts, dur, name)`` slices,
    in seconds: each slice's duration minus its direct children's."""
    out: dict = {}
    stack: list = []  # [end, name, self]
    for ts, dur, name in sorted(slices, key=lambda s: (s[0], -s[1])):
        while stack and stack[-1][0] <= ts:
            end, done, own = stack.pop()
            out[done] = out.get(done, 0.0) + own
        if stack:
            stack[-1][2] -= dur
        stack.append([ts + dur, name, dur])
    for _end, done, own in stack:
        out[done] = out.get(done, 0.0) + own
    return {name: us / 1e6 for name, us in out.items()}


@pytest.fixture(scope="module")
def observed(tiny_scrnn):
    observer = Observer()
    session = AstraSession(
        tiny_scrnn, features="FK", seed=0, policy=ROBUST,
        faults=FaultPlan.single(FAULT_LAUNCH, rate=0.004, seed=0),
        observer=observer,
    )
    with observer.span("run"):
        session.optimize(max_minibatches=60)
    return observer


def test_phase_table_is_the_host_trace(observed):
    host = [
        (e["ts"], e["dur"], e["name"]) for e in observed.chrome()["traceEvents"]
        if e["ph"] == "X" and e["tid"] == 0
    ]
    phases = observed.phases()
    assert {"run", "explore", "enumerate", "lower", "simulate"} <= set(phases)
    from_trace = _self_times(host)
    assert set(from_trace) == set(phases)
    for name, seconds in phases.items():
        assert from_trace[name] == pytest.approx(seconds, rel=1e-6, abs=1e-9)


def test_configs_explored_counts_the_minibatch_records(observed):
    metrics = observed.metrics()
    report = observed.report()
    explored = [
        r for r in report.records if r.kind in (KIND_EXPLORE, KIND_COMPARE)
    ]
    assert explored
    assert metrics.counter("astra.configs_explored").value == len(explored)


def test_surfaced_fault_counts_are_the_fault_records(observed):
    surfaced = {
        name.rpartition(".")[2]: value["value"]
        for name, value in observed.metrics().snapshot().items()
        if name.startswith("fault.surfaced.")
    }
    recorded: dict = {}
    for record in observed.report().faults():
        if record.phase in ("summary", "degraded"):
            continue  # ledger summaries and degradation are not surfaced
        kind = record.assignment_delta["fault"]
        recorded[kind] = recorded.get(kind, 0) + 1
    assert surfaced, "the fault plan must surface at least one fault"
    assert surfaced == recorded


def test_every_span_rides_on_the_one_host_track(observed):
    """Every span, the executor's lower and simulate included, rides on
    the one host track."""
    doc = observed.chrome()
    threads = [e for e in doc["traceEvents"] if e["ph"] == "M"]
    assert [e["args"]["name"] for e in threads] == ["phases"]
    names = {e["name"] for e in doc["traceEvents"] if e["ph"] == "X"}
    assert {"lower", "simulate"} <= names
    assert {e["tid"] for e in doc["traceEvents"] if e["ph"] == "X"} == {0}
