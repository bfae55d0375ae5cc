"""Critical-path attribution over executed mini-batch timelines.

Turns the Chrome trace document of one executed mini-batch (what
:func:`repro.obs.trace.chrome_trace` renders and ``repro profile -o``
writes) into an attribution report:

* **critical path**: the chain of binding constraints that determines the
  epoch time.  The simulator starts every kernel at exactly
  ``max(issue_time, waited event times, stream FIFO)``, so walking back
  from the last-finishing kernel and following whichever constraint
  *equals* the start time yields an exact partition of ``[0, total]``
  into kernel segments plus a dispatch prefix/tail.  Per-kernel
  contributions therefore sum to the measured epoch time.
* **stream attribution**: per-stream busy time plus a classification of
  every idle gap as waiting-on-event (cross-stream stall) vs
  dispatch-gap (the serialized CPU had not issued the next kernel yet).
* **dependency-chain slack**: per kernel, how much it could grow before
  lengthening the GPU makespan, following same-stream FIFO and
  wait-event edges only.

The trace is the only input: the wait edges are the flow arrows
:func:`repro.obs.trace.chrome_trace` draws, so what you see in Perfetto
is what the analysis walks.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .trace import PID_CPU, PID_GPU

#: absolute tolerance when matching a constraint time against a start time;
#: simulator floats are exact, trace JSON round-trips are exact, so this
#: only absorbs ulp noise from re-deriving end = ts + dur
_TOL = 1e-6

#: critical-path segment kinds
SEG_KERNEL = "kernel"
SEG_DISPATCH = "dispatch"
SEG_GAP = "gap"

#: stream-gap classifications
STALL_WAIT = "stall_wait"
STALL_DISPATCH = "stall_dispatch"
IDLE = "idle"


@dataclass
class TimelineNode:
    """One executed kernel on the timeline."""

    index: int
    name: str
    kind: str
    stream: int
    issue: float
    start: float
    end: float
    unit: int | None = None
    args: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class TimelineGraph:
    """Executed kernels plus the dependency edges that ordered them,
    rebuilt from a trace document by :meth:`from_chrome_trace`."""

    def __init__(self, nodes, total_time_us: float, cpu_time_us: float):
        #: nodes in dispatch order (edges always point index-forward)
        self.nodes: list[TimelineNode] = list(nodes)
        self.total_time_us = total_time_us
        self.cpu_time_us = cpu_time_us
        #: consumer index -> indices of wait-event producers
        self.wait_producers: dict[int, list[int]] = {}
        #: per-stream node indices in start order
        self.stream_nodes: dict[int, list[int]] = {}
        for node in self.nodes:
            self.stream_nodes.setdefault(node.stream, []).append(node.index)

    # -- construction -------------------------------------------------------

    @classmethod
    def from_chrome_trace(cls, doc: dict) -> "TimelineGraph":
        """Rebuild the timeline from an exported trace document.

        GPU kernel slices appear in dispatch order; the CPU ``launch``
        slices pair with them positionally (issue time = ts + dur), and
        s/f flow pairs recover the cross-stream wait edges.
        """
        events = doc.get("traceEvents", [])
        gpu = [e for e in events if e.get("ph") == "X" and e.get("pid") == PID_GPU]
        launches = [e for e in events
                    if e.get("ph") == "X" and e.get("pid") == PID_CPU
                    and e.get("cat") == "dispatch"]
        nodes = []
        for i, ev in enumerate(gpu):
            args = ev.get("args", {})
            start = float(ev["ts"])
            end = start + float(ev.get("dur", 0.0))
            issue = start
            if len(launches) == len(gpu):
                lev = launches[i]
                issue = float(lev["ts"]) + float(lev.get("dur", 0.0))
            nodes.append(TimelineNode(
                index=i, name=ev.get("name", "?"),
                kind=ev.get("cat", args.get("kind", "?")),
                stream=int(ev["tid"]), issue=issue, start=start, end=end,
                unit=args.get("unit"), args=args,
            ))
        other = doc.get("otherData", {})
        total = float(other.get("total_time_us",
                                max((n.end for n in nodes), default=0.0)))
        cpu = float(other.get("cpu_time_us", total))
        graph = cls(nodes, total, cpu)
        graph._edges_from_flows(events)
        return graph

    def _edges_from_flows(self, events) -> None:
        starts = {e["id"]: e for e in events if e.get("ph") == "s"}
        for fin in (e for e in events if e.get("ph") == "f"):
            src = starts.get(fin.get("id"))
            if src is None:
                continue
            producer = self._node_at(src["tid"], src["ts"], edge="end")
            consumer = self._node_at(fin["tid"], fin["ts"], edge="start")
            if producer is None or consumer is None:
                continue
            self.wait_producers.setdefault(consumer.index, []).append(producer.index)

    def _node_at(self, stream: int, ts: float, edge: str) -> TimelineNode | None:
        """Resolve a flow-arrow endpoint to the slice boundary it touches."""
        best, best_err = None, _TOL * max(1.0, self.total_time_us)
        for idx in self.stream_nodes.get(stream, ()):
            node = self.nodes[idx]
            err = abs((node.end if edge == "end" else node.start) - ts)
            if err <= best_err:
                best, best_err = node, err
        return best

    # -- derived structure ---------------------------------------------------

    @property
    def gpu_makespan_us(self) -> float:
        return max((n.end for n in self.nodes), default=0.0)

    @property
    def max_issue_us(self) -> float:
        return max((n.issue for n in self.nodes), default=0.0)

    def same_stream_prev(self, index: int) -> TimelineNode | None:
        order = self.stream_nodes[self.nodes[index].stream]
        pos = order.index(index)
        return self.nodes[order[pos - 1]] if pos > 0 else None

    def same_stream_next(self, index: int) -> TimelineNode | None:
        order = self.stream_nodes[self.nodes[index].stream]
        pos = order.index(index)
        return self.nodes[order[pos + 1]] if pos + 1 < len(order) else None


@dataclass
class CriticalSegment:
    """One contiguous span of the critical path."""

    kind: str          # SEG_KERNEL / SEG_DISPATCH / SEG_GAP
    start: float
    end: float
    index: int | None = None   # node index for kernel segments
    name: str = ""
    via: str = ""              # constraint that bound the *next* segment

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass
class StreamAttribution:
    stream: int
    busy_us: float = 0.0
    stall_wait_us: float = 0.0
    stall_dispatch_us: float = 0.0
    idle_us: float = 0.0
    kernels: int = 0

    def utilization(self, total: float) -> float:
        return self.busy_us / total if total > 0 else 0.0


@dataclass
class AnalysisReport:
    """Everything the critical-path walk derived from one mini-batch."""

    total_time_us: float
    cpu_time_us: float
    gpu_makespan_us: float
    segments: list[CriticalSegment]
    kernels: list[dict]                 # ranked per-kernel-name contribution
    streams: list[StreamAttribution]
    slack_us: dict[int, float]          # node index -> slack
    critical_records: list[int]         # node indices on the path, time order
    graph: TimelineGraph | None = None

    @property
    def critical_kernel_us(self) -> float:
        return sum(s.duration for s in self.segments if s.kind == SEG_KERNEL)

    @property
    def critical_dispatch_us(self) -> float:
        return sum(s.duration for s in self.segments if s.kind == SEG_DISPATCH)

    @property
    def critical_gap_us(self) -> float:
        return sum(s.duration for s in self.segments if s.kind == SEG_GAP)

    def to_dict(self) -> dict:
        return {
            "total_time_us": self.total_time_us,
            "cpu_time_us": self.cpu_time_us,
            "gpu_makespan_us": self.gpu_makespan_us,
            "critical": {
                "kernel_us": self.critical_kernel_us,
                "dispatch_us": self.critical_dispatch_us,
                "gap_us": self.critical_gap_us,
                "segments": [
                    {"kind": s.kind, "start": s.start, "end": s.end,
                     "index": s.index, "name": s.name, "via": s.via}
                    for s in self.segments
                ],
            },
            "kernels": self.kernels,
            "streams": [
                {"stream": s.stream, "busy_us": s.busy_us,
                 "stall_wait_us": s.stall_wait_us,
                 "stall_dispatch_us": s.stall_dispatch_us,
                 "idle_us": s.idle_us, "kernels": s.kernels,
                 "utilization": round(s.utilization(self.total_time_us), 4)}
                for s in self.streams
            ],
            "slack_us": {str(k): v for k, v in sorted(self.slack_us.items())},
        }

    def observe_into(self, observer) -> None:
        """Record ``analysis.*`` metrics on an observer."""
        observer.gauge("analysis.total_time_us", self.total_time_us)
        observer.gauge("analysis.gpu_makespan_us", self.gpu_makespan_us)
        observer.gauge("analysis.critical.kernel_us", self.critical_kernel_us)
        observer.gauge("analysis.critical.dispatch_us", self.critical_dispatch_us)
        observer.gauge("analysis.critical.gap_us", self.critical_gap_us)
        observer.gauge("analysis.critical.segments", len(self.segments))
        for row in self.streams:
            prefix = f"analysis.stream.{row.stream}"
            observer.gauge(f"{prefix}.busy_us", row.busy_us)
            observer.gauge(f"{prefix}.stall_wait_us", row.stall_wait_us)
            observer.gauge(f"{prefix}.stall_dispatch_us", row.stall_dispatch_us)
        for value in self.slack_us.values():
            observer.histogram("analysis.slack_us", value)

    def render(self, top: int = 10) -> str:
        lines = [
            f"epoch time           {self.total_time_us:12.2f} us",
            f"  on critical path:  kernels {self.critical_kernel_us:10.2f} us"
            f" | dispatch {self.critical_dispatch_us:8.2f} us"
            f" | unattributed {self.critical_gap_us:6.2f} us",
            "",
            f"top kernels by critical-path contribution (of {len(self.kernels)}):",
            f"  {'kernel':<32} {'kind':<12} {'count':>5} "
            f"{'critical us':>12} {'share':>7} {'slack us':>10}",
        ]
        for row in self.kernels[:top]:
            lines.append(
                f"  {row['name'][:32]:<32} {row['kind']:<12} {row['count']:>5} "
                f"{row['critical_us']:>12.2f} {row['share']:>6.1%} "
                f"{row['min_slack_us']:>10.2f}"
            )
        lines.append("")
        lines.append("per-stream attribution:")
        lines.append(
            f"  {'stream':>6} {'kernels':>8} {'busy us':>12} {'wait us':>10} "
            f"{'dispatch us':>12} {'idle us':>10} {'util':>6}"
        )
        for s in self.streams:
            lines.append(
                f"  {s.stream:>6} {s.kernels:>8} {s.busy_us:>12.2f} "
                f"{s.stall_wait_us:>10.2f} {s.stall_dispatch_us:>12.2f} "
                f"{s.idle_us:>10.2f} {s.utilization(self.total_time_us):>6.1%}"
            )
        return "\n".join(lines)


def _binding_predecessor(graph: TimelineGraph, node: TimelineNode, tol: float):
    """The constraint that equals ``node.start``: a wait producer, the
    same-stream FIFO predecessor, or the dispatch thread (issue time)."""
    waits = [graph.nodes[p] for p in graph.wait_producers.get(node.index, ())]
    waits = [p for p in waits if abs(p.end - node.start) <= tol]
    if waits:
        # deterministic tie-break: latest-ending, then lowest index
        waits.sort(key=lambda p: (-p.end, p.index))
        return waits[0], "wait"
    prev = graph.same_stream_prev(node.index)
    if prev is not None and abs(prev.end - node.start) <= tol:
        return prev, "stream"
    if abs(node.issue - node.start) <= tol:
        return None, "dispatch"
    # fell between constraints (rounded trace input): pick the closest
    # earlier GPU predecessor and surface the remainder as a gap segment
    all_cands = [graph.nodes[p] for p in graph.wait_producers.get(node.index, ())]
    if prev is not None:
        all_cands.append(prev)
    all_cands = [p for p in all_cands if p.end <= node.start + tol]
    if all_cands:
        all_cands.sort(key=lambda p: (-p.end, p.index))
        return all_cands[0], "gap"
    return None, "dispatch"


def analyze(graph: TimelineGraph) -> AnalysisReport:
    """Run the full attribution over one timeline."""
    total = graph.total_time_us
    tol = _TOL * max(1.0, total)
    segments: list[CriticalSegment] = []
    critical: list[int] = []

    if graph.nodes:
        # walk back from the last-finishing kernel
        cur = max(graph.nodes, key=lambda n: (n.end, n.index))
        # dispatch / sync tail after the last kernel finished
        if total - cur.end > tol:
            segments.append(CriticalSegment(SEG_DISPATCH, cur.end, total,
                                            name="sync/dispatch tail"))
        while True:
            critical.append(cur.index)
            segments.append(CriticalSegment(
                SEG_KERNEL, cur.start, cur.end, index=cur.index, name=cur.name))
            pred, via = _binding_predecessor(graph, cur, tol)
            segments[-1].via = via
            if pred is None:
                if cur.start > tol:
                    segments.append(CriticalSegment(
                        SEG_DISPATCH, 0.0, cur.start, name="dispatch"))
                break
            if via == "gap" and cur.start - pred.end > tol:
                segments.append(CriticalSegment(SEG_GAP, pred.end, cur.start,
                                                name="unattributed"))
            cur = pred
    elif total > 0:
        segments.append(CriticalSegment(SEG_DISPATCH, 0.0, total, name="dispatch"))
    segments.reverse()
    critical.reverse()

    # per-kernel-name contribution table
    contrib: dict[int, float] = {}
    for seg in segments:
        if seg.kind == SEG_KERNEL and seg.index is not None:
            contrib[seg.index] = contrib.get(seg.index, 0.0) + seg.duration
    slack = _slack(graph)
    by_name: dict[str, dict] = {}
    for node in graph.nodes:
        row = by_name.setdefault(node.name, {
            "name": node.name, "kind": node.kind, "count": 0,
            "busy_us": 0.0, "critical_us": 0.0,
            "min_slack_us": float("inf"),
        })
        row["count"] += 1
        row["busy_us"] += node.duration
        row["critical_us"] += contrib.get(node.index, 0.0)
        row["min_slack_us"] = min(row["min_slack_us"], slack.get(node.index, 0.0))
    kernels = sorted(by_name.values(),
                     key=lambda r: (-r["critical_us"], -r["busy_us"], r["name"]))
    for row in kernels:
        row["share"] = row["critical_us"] / total if total > 0 else 0.0
        if row["min_slack_us"] == float("inf"):
            row["min_slack_us"] = 0.0

    return AnalysisReport(
        total_time_us=total,
        cpu_time_us=graph.cpu_time_us,
        gpu_makespan_us=graph.gpu_makespan_us,
        segments=segments,
        kernels=kernels,
        streams=_stream_attribution(graph, tol),
        slack_us=slack,
        critical_records=critical,
        graph=graph,
    )


def _stream_attribution(graph: TimelineGraph, tol: float) -> list[StreamAttribution]:
    rows = []
    total = graph.total_time_us
    for stream in sorted(graph.stream_nodes):
        row = StreamAttribution(stream=stream)
        prev_end = 0.0
        for idx in graph.stream_nodes[stream]:
            node = graph.nodes[idx]
            gap = node.start - prev_end
            if gap > tol:
                waits = [graph.nodes[p]
                         for p in graph.wait_producers.get(idx, ())]
                if any(abs(p.end - node.start) <= tol for p in waits):
                    row.stall_wait_us += gap
                elif abs(node.issue - node.start) <= tol:
                    row.stall_dispatch_us += gap
                else:
                    row.idle_us += gap
            row.busy_us += node.duration
            row.kernels += 1
            prev_end = node.end
        row.idle_us += max(0.0, total - prev_end)
        rows.append(row)
    return rows


def _slack(graph: TimelineGraph) -> dict[int, float]:
    """Dependency-chain slack against the GPU makespan: how much a kernel
    could grow before the longest duration-chain through it exceeds the
    makespan.  Edges point index-forward, so one reverse sweep suffices."""
    makespan = graph.gpu_makespan_us
    consumers: dict[int, list[int]] = {}
    for node in graph.nodes:
        nxt = graph.same_stream_next(node.index)
        if nxt is not None:
            consumers.setdefault(node.index, []).append(nxt.index)
    for consumer, producers in graph.wait_producers.items():
        for p in producers:
            consumers.setdefault(p, []).append(consumer)
    downstream: dict[int, float] = {}
    for node in reversed(graph.nodes):
        best = 0.0
        for c in consumers.get(node.index, ()):
            best = max(best, graph.nodes[c].duration + downstream.get(c, 0.0))
        downstream[node.index] = best
    return {
        n.index: max(0.0, makespan - (n.end + downstream[n.index]))
        for n in graph.nodes
    }


def analyze_trace(doc: dict) -> AnalysisReport:
    """Analyze an exported Chrome trace document."""
    return analyze(TimelineGraph.from_chrome_trace(doc))
