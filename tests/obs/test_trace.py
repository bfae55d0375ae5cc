"""Tests for the Chrome trace-event exporter and the observer's host trace."""

import json
import time

import pytest

from repro.gpu import P100
from repro.gpu.kernels import GemmLaunch
from repro.obs import NULL_OBSERVER, Observer, chrome_trace, validate_chrome_trace
from repro.obs.trace import PID_CPU, PID_GPU
from repro.runtime import ExecutionPlan, Executor, Unit


@pytest.fixture()
def two_stream_execution():
    """A hand-built two-stream plan (x -> (a, b) -> c with b on stream 1)
    executed on the simulator: guarantees concurrent tracks and a
    cross-stream wait-event edge for the flow-arrow tests."""
    from repro.gpu.kernels import ElementwiseLaunch
    from repro.ir import Tracer as IrTracer

    tr = IrTracer("diamond")
    x = tr.input((64, 64))
    w1 = tr.param((64, 256))
    w2 = tr.param((64, 256))
    a = tr.matmul(x, w1)
    b = tr.matmul(x, w2)
    c = tr.add(a, b)
    tr.output(c)
    units = [
        Unit(0, GemmLaunch(64, 64, 256, "cublas"), (a.node.node_id,)),
        Unit(1, GemmLaunch(64, 64, 256, "oai_1"), (b.node.node_id,)),
        Unit(2, ElementwiseLaunch(num_elements=64 * 256), (c.node.node_id,)),
    ]
    plan = ExecutionPlan(units=units, stream_of={0: 0, 1: 1, 2: 0})
    executor = Executor(tr.graph, P100)
    lowered = executor.dispatcher.lower(plan)
    result = executor.run_lowered(lowered).raw
    return result, lowered


class TestChromeTrace:
    def test_document_validates(self, two_stream_execution):
        result, lowered = two_stream_execution
        doc = chrome_trace(result, lowered=lowered, device=P100)
        summary = validate_chrome_trace(doc)
        assert summary["events"] > 0

    def test_one_track_per_stream_plus_cpu(self, two_stream_execution):
        result, lowered = two_stream_execution
        doc = chrome_trace(result, lowered=lowered, device=P100)
        summary = validate_chrome_trace(doc)
        gpu_tracks = {tid for pid, tid in summary["tracks"] if pid == PID_GPU}
        cpu_tracks = {tid for pid, tid in summary["tracks"] if pid == PID_CPU}
        assert gpu_tracks == set(result.stream_ids())
        assert len(gpu_tracks) >= 2
        assert cpu_tracks == {0}

    def test_kernel_slices_carry_args(self, two_stream_execution):
        result, lowered = two_stream_execution
        doc = chrome_trace(result, lowered=lowered, device=P100)
        slices = [e for e in doc["traceEvents"]
                  if e["ph"] == "X" and e["pid"] == PID_GPU]
        assert len(slices) == len(result.records)
        for ev in slices:
            assert "unit" in ev["args"]
            assert "stream" in ev["args"]
            assert "kind" in ev["args"]
        gemms = [e for e in slices if e["cat"] == "gemm"]
        assert gemms, "plan should contain at least one GEMM"
        for ev in gemms:
            assert "library" in ev["args"]
            assert ev["args"]["waves"] >= 1
            assert 0.0 < ev["args"]["occupancy"] <= 1.0

    def test_cpu_dispatch_track_has_launch_overheads(self, two_stream_execution):
        result, lowered = two_stream_execution
        doc = chrome_trace(result, lowered=lowered, device=P100)
        launches = [e for e in doc["traceEvents"]
                    if e["ph"] == "X" and e["pid"] == PID_CPU]
        assert len(launches) == len(result.records)
        assert all(e["dur"] == P100.launch_overhead_us for e in launches)

    def test_cross_stream_flow_events(self, two_stream_execution):
        result, lowered = two_stream_execution
        doc = chrome_trace(result, lowered=lowered, device=P100)
        starts = [e for e in doc["traceEvents"] if e["ph"] == "s"]
        finishes = [e for e in doc["traceEvents"] if e["ph"] == "f"]
        assert len(starts) == len(finishes) > 0
        by_id = {e["id"]: e for e in starts}
        for fin in finishes:
            start = by_id[fin["id"]]
            # a flow arrow always crosses streams, forward in time
            assert start["tid"] != fin["tid"]
            assert fin["ts"] >= start["ts"]

    def test_timestamps_within_minibatch(self, two_stream_execution):
        result, lowered = two_stream_execution
        doc = chrome_trace(result, lowered=lowered, device=P100)
        for ev in doc["traceEvents"]:
            if ev["ph"] == "X":
                assert 0.0 <= ev["ts"]
                assert ev["ts"] + ev["dur"] <= result.total_time_us + 1e-6

    def test_exporter_without_lowering_still_valid(self, two_stream_execution):
        result, _lowered = two_stream_execution
        doc = chrome_trace(result)
        validate_chrome_trace(doc)

    def test_write_round_trips(self, two_stream_execution, tmp_path):
        result, lowered = two_stream_execution
        path = tmp_path / "out.trace.json"
        with open(path, "w") as fh:
            json.dump(chrome_trace(result, lowered=lowered, device=P100), fh)
        validate_chrome_trace(json.loads(path.read_text()))

    def test_sequential_plan_single_track(self, mlp_tracer):
        tracer, _loss = mlp_tracer
        graph = tracer.graph
        gemm_nodes = graph.gemm_nodes()
        units = [
            Unit(i, GemmLaunch(*[4, 8, 16][:3], "cublas"), (node.node_id,))
            for i, node in enumerate(gemm_nodes[:1])
        ]
        executor = Executor(graph, P100)
        lowered = executor.dispatcher.lower(ExecutionPlan(units=units))
        result = executor.run_lowered(lowered).raw
        doc = chrome_trace(result, lowered=lowered, device=P100)
        summary = validate_chrome_trace(doc)
        assert {tid for pid, tid in summary["tracks"] if pid == PID_GPU} == {0}


class TestValidator:
    def test_rejects_missing_trace_events(self):
        with pytest.raises(ValueError):
            validate_chrome_trace({"foo": []})

    def test_rejects_bad_phase(self):
        with pytest.raises(ValueError, match="invalid phase"):
            validate_chrome_trace({"traceEvents": [
                {"ph": "Z", "pid": 0, "tid": 0, "name": "x", "ts": 0}
            ]})

    def test_rejects_negative_duration(self):
        with pytest.raises(ValueError, match="invalid dur"):
            validate_chrome_trace({"traceEvents": [
                {"ph": "X", "pid": 0, "tid": 0, "name": "x", "ts": 0, "dur": -1}
            ]})

    def test_rejects_flow_without_id(self):
        with pytest.raises(ValueError, match="missing 'id'"):
            validate_chrome_trace({"traceEvents": [
                {"ph": "s", "pid": 0, "tid": 0, "name": "x", "ts": 0}
            ]})


class TestHostTracer:
    def test_span_records_duration(self):
        observer = Observer()
        with observer.span("phase", strategy="fwd"):
            time.sleep(0.01)
        doc = observer.chrome()
        spans = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        assert len(spans) == 1
        assert spans[0]["name"] == "phase"
        assert spans[0]["dur"] == pytest.approx(
            observer.phases()["phase"] * 1e6
        )
        assert spans[0]["dur"] >= 0.009e6
        assert spans[0]["args"] == {"strategy": "fwd"}
        validate_chrome_trace(doc)

    def test_instant_and_counter(self):
        observer = Observer()
        observer.instant("hit", key="k")
        observer.series("explored", 3)
        doc = observer.chrome()
        phases = [e["ph"] for e in doc["traceEvents"]]
        assert "i" in phases and "C" in phases
        validate_chrome_trace(doc)

    def test_null_tracer_is_inert(self):
        with NULL_OBSERVER.span("phase"):
            pass
        NULL_OBSERVER.instant("x")
        NULL_OBSERVER.series("y", 1.0)
        assert NULL_OBSERVER.chrome()["traceEvents"] == []
        assert not NULL_OBSERVER.enabled
