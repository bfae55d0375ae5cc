"""Chrome trace-event export.

The optimizer's own host timeline (which exploration phase ran when, in
wall-clock time) is the
:meth:`~repro.obs.observer.Observer.chrome` view; this module renders
the simulated side and merges the two:

* :func:`chrome_trace` -- renders one executed mini-batch
  (:class:`~repro.gpu.streams.ExecutionResult`, in simulated microseconds)
  as a Chrome trace-event document openable in Perfetto
  (https://ui.perfetto.dev) or ``chrome://tracing``: one track per
  simulated stream with a slice per kernel (args: kind, flops, library,
  waves, occupancy, unit id), a CPU-dispatch track showing the serialized
  launch overheads the paper's fusion optimization targets, and flow
  arrows for every cross-stream wait-event edge.

The exporter is a pure function of data the simulator already produces --
enabling it launches no extra kernels and records no extra events, so
traced and untraced executions are cycle-identical.
"""

from __future__ import annotations

import math

from ..gpu.device import GPUSpec
from ..gpu.kernels import GemmLaunch, Kernel
from ..gpu.streams import ExecutionResult, HostComputeItem, LaunchItem

#: trace-event process ids: the dispatch thread and the simulated device
PID_CPU = 0
PID_GPU = 1
#: host-side optimizer spans when merged into an execution trace (the
#: execution document already owns PID_CPU for the dispatch thread)
PID_HOST = 2

_VALID_PHASES = {"X", "B", "E", "i", "I", "C", "M", "s", "f", "t"}


# ---------------------------------------------------------------------------
# mini-batch execution -> Chrome trace-event document
# ---------------------------------------------------------------------------


def _metadata(pid: int, tid: int | None, process: str, thread: str | None) -> dict:
    if tid is None:
        return {"ph": "M", "pid": pid, "tid": 0, "name": "process_name",
                "args": {"name": process}}
    return {"ph": "M", "pid": pid, "tid": tid, "name": "thread_name",
            "args": {"name": thread}}


def kernel_args(kernel: Kernel, device: GPUSpec | None = None) -> dict:
    """Per-slice args: everything the profiler knows about the launch."""
    args: dict = {"kind": kernel.kind, "flops": kernel.flops()}
    node_ids = getattr(kernel, "node_ids", ())
    if node_ids:
        args["nodes"] = len(node_ids)
    if isinstance(kernel, GemmLaunch):
        args.update(m=kernel.m, k=kernel.k, n=kernel.n, library=kernel.library)
        if device is not None:
            plan = kernel.impl.plan(kernel.m, kernel.k, kernel.n, device)
            args["tiles"] = plan.tiles
            args["split_k"] = plan.split_k
            args["waves"] = math.ceil(plan.tiles / device.sm_slots)
            args["occupancy"] = round(min(1.0, plan.tiles / device.sm_slots), 4)
    elif kernel.kind == "elementwise":
        args.update(num_elements=kernel.num_elements, fused_ops=kernel.fused_ops)
    elif kernel.kind in ("copy", "transfer"):
        args["bytes_moved"] = kernel.bytes_moved
        if kernel.kind == "transfer":
            args["direction"] = kernel.direction
    elif kernel.kind == "compound":
        args["efficiency"] = kernel.efficiency
    if device is not None and kernel.parallelism(device) > 0:
        args.setdefault(
            "occupancy",
            round(min(1.0, kernel.parallelism(device) / device.sm_slots), 4),
        )
    return args


def chrome_trace(
    result: ExecutionResult,
    lowered=None,
    device: GPUSpec | None = None,
    label: str = "repro",
) -> dict:
    """Render an :class:`ExecutionResult` as a Chrome trace-event document.

    ``lowered`` (a :class:`~repro.runtime.dispatcher.LoweredSchedule`)
    supplies per-record unit ids and the wait/record edges used to draw
    cross-stream flow arrows; without it the document still contains every
    kernel slice and the CPU-dispatch track.
    """
    events: list[dict] = [
        _metadata(PID_CPU, None, f"{label}: CPU dispatch", None),
        _metadata(PID_CPU, 0, "", "dispatch thread"),
        _metadata(PID_GPU, None, f"{label}: GPU (simulated)", None),
    ]
    for stream in result.stream_ids():
        events.append(_metadata(PID_GPU, stream, "", f"stream {stream}"))

    record_units = getattr(lowered, "record_units", None) if lowered else None
    launch_us = device.launch_overhead_us if device is not None else 0.0

    for i, rec in enumerate(result.records):
        args = kernel_args(rec.kernel, device)
        args["stream"] = rec.stream_id
        if record_units is not None and i < len(record_units):
            args["unit"] = record_units[i]
        if rec.start_time >= 0:
            events.append({
                "ph": "X", "pid": PID_GPU, "tid": rec.stream_id,
                "name": rec.kernel.name, "cat": rec.kind,
                "ts": rec.start_time, "dur": max(0.0, rec.duration),
                "args": args,
            })
        # launch overhead on the serialized dispatch thread
        events.append({
            "ph": "X", "pid": PID_CPU, "tid": 0,
            "name": f"launch {rec.kernel.name}", "cat": "dispatch",
            "ts": max(0.0, rec.issue_time - launch_us), "dur": launch_us,
            "args": {"stream": rec.stream_id, "kind": rec.kind},
        })

    events.extend(_flow_events(result, lowered))
    events.extend(_host_events(lowered))

    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {
            "generator": "repro.obs.trace",
            "total_time_us": result.total_time_us,
            "cpu_time_us": result.cpu_time_us,
            "num_kernels": len(result.records),
            "num_streams": len(result.stream_ids()),
        },
    }


def _flow_events(result: ExecutionResult, lowered) -> list[dict]:
    """Flow arrows for every cross-stream wait-event edge in the schedule."""
    if lowered is None:
        return []
    # the k-th LaunchItem in dispatch order produced result.records[k]
    launches = [item for item in lowered.items if isinstance(item, LaunchItem)]
    if len(launches) != len(result.records):
        return []
    recorded_by = {
        item.record: idx for idx, item in enumerate(launches)
        if item.record is not None
    }
    events: list[dict] = []
    flow_id = 0
    for idx, item in enumerate(launches):
        for ev in item.waits:
            src = recorded_by.get(ev)
            if src is None:
                continue
            producer, consumer = result.records[src], result.records[idx]
            if producer.stream_id == consumer.stream_id:
                continue
            if producer.start_time < 0 or consumer.start_time < 0:
                continue
            common = {"cat": "sync", "name": str(ev), "id": flow_id, "pid": PID_GPU}
            events.append({**common, "ph": "s", "tid": producer.stream_id,
                           "ts": producer.end_time})
            events.append({**common, "ph": "f", "bp": "e",
                           "tid": consumer.stream_id, "ts": consumer.start_time})
            flow_id += 1
    return events


def _host_events(lowered) -> list[dict]:
    """Instants marking host-side compute stalls (their exact position on
    the dispatch timeline is only known to the simulator; the instants
    record presence and duration for inspection)."""
    if lowered is None:
        return []
    events = []
    for item in lowered.items:
        if isinstance(item, HostComputeItem):
            events.append({
                "ph": "i", "s": "p", "pid": PID_CPU, "tid": 0,
                "name": f"host:{item.label}", "cat": "host",
                "ts": 0.0, "args": {"duration_us": item.duration_us},
            })
    return events


#: first process id of the fleet-device tracks in a fleet timeline
PID_FLEET = 10


def fleet_trace(report) -> dict:
    """Render a fleet search winner as a Chrome trace-event document.

    One process track per fleet device carrying the winner's work on it
    (replica mini-batches for a data strategy, per-micro-batch stage
    beats for a pipeline), plus a ``fabric`` track carrying the exposed
    communication (the allreduce tail, or the stage handoffs).  Times
    are the simulated step's microseconds -- the same quantities
    ``repro fleet`` prints, drawn on a timeline.
    """
    detail = report.winner_detail
    events: list[dict] = []
    fabric_pid = PID_FLEET
    events.append(_metadata(fabric_pid, None, "fleet: fabric", None))
    events.append(_metadata(fabric_pid, 0, "", "interconnect"))

    lanes = detail.get("replicas") or detail.get("stages") or []
    for n, lane in enumerate(lanes):
        pid = PID_FLEET + 1 + n
        events.append(_metadata(
            pid, None,
            f"fleet: {lane['device']} ({lane['device_class']})", None,
        ))
        events.append(_metadata(pid, 0, "", "compute"))

    if detail.get("kind") == "data":
        for n, rep in enumerate(detail["replicas"]):
            events.append({
                "ph": "X", "pid": PID_FLEET + 1 + n, "tid": 0,
                "name": f"replica shard={rep['shard']}", "cat": "fleet",
                "ts": 0.0, "dur": max(0.0, rep["compute_us"]),
                "args": {"device_class": rep["device_class"],
                         "shard": rep["shard"]},
            })
        if detail.get("exposed_comm_us", 0.0) > 0.0:
            events.append({
                "ph": "X", "pid": fabric_pid, "tid": 0,
                "name": "allreduce (exposed)", "cat": "comm",
                "ts": detail["beat_us"], "dur": detail["exposed_comm_us"],
                "args": {"allreduce_us": detail["allreduce_us"]},
            })
    elif detail.get("kind") == "pipeline":
        beat = detail["beat_us"]
        micro = report.winner.microbatches
        for m in range(micro):
            for s, stage in enumerate(detail["stages"]):
                events.append({
                    "ph": "X", "pid": PID_FLEET + 1 + s, "tid": 0,
                    "name": f"micro {m} stage {s}", "cat": "fleet",
                    "ts": (m + s) * beat,
                    "dur": max(0.0, stage["compute_us"]),
                    "args": {"device_class": stage["device_class"],
                             "scopes": len(stage["scopes"])},
                })
                if s + 1 < len(detail["stages"]) and detail["transfer_us"] > 0:
                    events.append({
                        "ph": "X", "pid": fabric_pid, "tid": 0,
                        "name": f"handoff micro {m} stage {s}->{s + 1}",
                        "cat": "comm",
                        "ts": (m + s) * beat + stage["compute_us"],
                        "dur": detail["transfer_us"],
                        "args": {"boundary_bytes": detail["boundary_bytes"]},
                    })
    events.append({
        "ph": "i", "s": "g", "pid": fabric_pid, "tid": 0,
        "name": f"winner: {report.winner.label}", "cat": "fleet",
        "ts": 0.0,
        "args": {"per_sample_us": report.winner_per_sample_us,
                 "step_us": report.winner_step_us},
    })
    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {
            "generator": "repro.obs.trace.fleet",
            "fleet": report.fleet,
            "strategy": report.winner.label,
            "step_us": report.winner_step_us,
        },
    }


def merge_host_trace(doc: dict, host_doc: dict, label: str = "optimizer") -> dict:
    """Merge an :meth:`Observer.chrome <repro.obs.observer.Observer.chrome>`
    document (optimizer phases) into an execution trace
    document.

    The execution document owns PID_CPU (dispatch thread) and PID_GPU
    (streams); host events are re-homed to :data:`PID_HOST` so both
    timelines render side by side without colliding tracks.  Returns
    ``doc`` mutated in place.
    """
    events = doc.setdefault("traceEvents", [])
    events.append(_metadata(PID_HOST, None, f"{label} (host)", None))
    for ev in host_doc.get("traceEvents", ()):
        merged = dict(ev)
        merged["pid"] = PID_HOST
        events.append(merged)
    return doc


def validate_chrome_trace(doc: dict) -> dict:
    """Validate a document against the Chrome trace-event schema subset we
    emit; raises :class:`ValueError` on the first violation.

    Returns a summary: event count and the set of (pid, tid) tracks.
    Used by tests and the CI trace-smoke step.
    """
    if not isinstance(doc, dict) or "traceEvents" not in doc:
        raise ValueError("trace document must be an object with 'traceEvents'")
    events = doc["traceEvents"]
    if not isinstance(events, list):
        raise ValueError("'traceEvents' must be a list")
    tracks: set[tuple[int, int]] = set()
    for n, ev in enumerate(events):
        if not isinstance(ev, dict):
            raise ValueError(f"event {n} is not an object")
        ph = ev.get("ph")
        if ph not in _VALID_PHASES:
            raise ValueError(f"event {n} has invalid phase {ph!r}")
        for field in ("pid", "tid"):
            if not isinstance(ev.get(field), int):
                raise ValueError(f"event {n} missing integer {field!r}")
        if "name" not in ev:
            raise ValueError(f"event {n} missing 'name'")
        if ph != "M":
            ts = ev.get("ts")
            if not isinstance(ts, (int, float)) or ts < 0:
                raise ValueError(f"event {n} has invalid ts {ts!r}")
        if ph == "X":
            dur = ev.get("dur")
            if not isinstance(dur, (int, float)) or dur < 0:
                raise ValueError(f"event {n} has invalid dur {dur!r}")
            tracks.add((ev["pid"], ev["tid"]))
        if ph in ("s", "f") and "id" not in ev:
            raise ValueError(f"flow event {n} missing 'id'")
    return {"events": len(events), "tracks": sorted(tracks)}
