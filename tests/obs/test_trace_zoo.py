"""Chrome-trace validation across the model zoo.

Every zoo model's native-plan trace must pass schema validation and its
flow arrows must resolve: each flow id pairs a start with a finish and
both endpoints land inside a kernel slice on their track.  The host case
additionally checks that an optimizer trace keeps its phases on one host
track after :func:`merge_host_trace`.
"""

import pytest

from repro import AstraSession
from repro.baselines.native import native_plan
from repro.gpu import P100
from repro.obs.observer import Observer
from repro.obs.trace import (
    PID_HOST,
    chrome_trace,
    merge_host_trace,
    validate_chrome_trace,
)
from repro.runtime import Executor

ZOO = ["tiny_scrnn", "tiny_sublstm", "tiny_milstm", "tiny_stacked_lstm",
       "tiny_gnmt"]


def _trace_native(model):
    executor = Executor(model.graph, P100)
    lowered = executor.dispatcher.lower(native_plan(model.graph))
    result = executor.run_lowered(lowered).raw
    return chrome_trace(result, lowered=lowered, device=P100)


def _assert_flows_resolve(doc):
    slices = {}
    starts, finishes = {}, {}
    for ev in doc["traceEvents"]:
        if ev["ph"] == "X":
            slices.setdefault((ev["pid"], ev["tid"]), []).append(
                (ev["ts"], ev["ts"] + ev["dur"])
            )
        elif ev["ph"] == "s":
            starts[ev["id"]] = ev
        elif ev["ph"] == "f":
            finishes[ev["id"]] = ev
    assert set(starts) == set(finishes), "every flow id must pair s with f"
    for flow_id, ev in list(starts.items()) + list(finishes.items()):
        track = slices.get((ev["pid"], ev["tid"]), [])
        assert any(
            lo - 1e-6 <= ev["ts"] <= hi + 1e-6 for lo, hi in track
        ), f"flow {flow_id} endpoint at ts={ev['ts']} misses every slice"
    return len(starts)


class TestZooTraces:
    @pytest.mark.parametrize("fixture", ZOO)
    def test_trace_validates(self, fixture, request):
        model = request.getfixturevalue(fixture)
        doc = _trace_native(model)
        summary = validate_chrome_trace(doc)
        assert summary["events"] > 0
        assert summary["tracks"], f"{fixture}: no kernel tracks in trace"

    @pytest.mark.parametrize("fixture", ZOO)
    def test_flow_endpoints_resolve(self, fixture, request):
        model = request.getfixturevalue(fixture)
        doc = _trace_native(model)
        _assert_flows_resolve(doc)


class TestHostTrace:
    def test_optimizer_trace_has_the_host_track(self, tiny_scrnn):
        """``repro profile``'s merge: the optimizer's phases ride on one
        host track next to the simulated mini-batch."""
        observer = Observer()
        report = AstraSession(
            tiny_scrnn, device=P100, features="FK", seed=0, observer=observer,
        ).optimize(max_minibatches=200)
        executor = Executor(tiny_scrnn.graph, P100)
        lowered = executor.dispatcher.lower(report.astra.best_plan)
        result = executor.run_lowered(lowered).raw
        doc = chrome_trace(result, lowered=lowered, device=P100)
        merge_host_trace(doc, observer.chrome())

        validate_chrome_trace(doc)
        _assert_flows_resolve(doc)

        host = [ev for ev in doc["traceEvents"] if ev["pid"] == PID_HOST]
        threads = {
            ev["args"]["name"] for ev in host
            if ev["ph"] == "M" and ev["name"] == "thread_name"
        }
        assert threads == {"phases"}
        spans = {ev["name"] for ev in host if ev["ph"] == "X"}
        assert {"explore", "enumerate", "lower", "simulate"} <= spans
        assert {ev["tid"] for ev in host if ev["ph"] in ("X", "i")} == {0}
