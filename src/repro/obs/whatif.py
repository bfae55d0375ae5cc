"""Daydream-style what-if projection over a recorded timeline.

Answers "what would the epoch time be if kernel K were X times faster /
used a different GEMM library?" by *replaying* the recorded timeline through the dependency graph with modified durations --
no simulator re-run.  The replay reuses the exact start rule the
simulator applies (``start = max(issue, wait-producer ends, stream
FIFO)``) with issue times held fixed: dispatch is serialized CPU work
whose cost does not depend on how long kernels run.

Exactness: for a single-stream schedule at base clock the projection is
*exact* (the replay is the simulator's own recurrence).  With concurrent
streams the simulator additionally waterfills SM slots, so durations of
overlapping kernels shift; that contention drift is the documented error
source and is bounded in tests (``tests/obs/test_whatif.py`` pins a 5%
gate against actual re-measurement).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..gpu.kernels import GemmLaunch
from .analysis import TimelineGraph


@dataclass
class WhatIfChange:
    """One hypothetical edit to the timeline."""

    kind: str                  # "scale" | "swap_library"
    index: int                 # node index in the TimelineGraph
    name: str = ""
    old_duration_us: float = 0.0
    new_duration_us: float = 0.0
    detail: str = ""

    def to_dict(self) -> dict:
        return {
            "kind": self.kind, "index": self.index, "name": self.name,
            "old_duration_us": self.old_duration_us,
            "new_duration_us": self.new_duration_us, "detail": self.detail,
        }


@dataclass
class Projection:
    """Result of replaying the timeline with a set of changes."""

    baseline_total_us: float
    projected_total_us: float
    changes: list[WhatIfChange] = field(default_factory=list)
    #: node index -> projected (start, end)
    times: dict[int, tuple[float, float]] = field(default_factory=dict)

    @property
    def delta_us(self) -> float:
        return self.projected_total_us - self.baseline_total_us

    @property
    def speedup(self) -> float:
        if self.projected_total_us <= 0:
            return float("inf")
        return self.baseline_total_us / self.projected_total_us

    def to_dict(self) -> dict:
        return {
            "baseline_total_us": self.baseline_total_us,
            "projected_total_us": self.projected_total_us,
            "delta_us": self.delta_us,
            "speedup": round(self.speedup, 4),
            "changes": [c.to_dict() for c in self.changes],
        }

    def render(self) -> str:
        lines = [
            f"baseline  {self.baseline_total_us:12.2f} us",
            f"projected {self.projected_total_us:12.2f} us "
            f"(delta {self.delta_us:+.2f} us, {self.speedup:.3f}x)",
        ]
        for c in self.changes:
            lines.append(
                f"  {c.kind:<13} [{c.index}] {c.name}: "
                f"{c.old_duration_us:.2f} -> {c.new_duration_us:.2f} us"
                + (f" ({c.detail})" if c.detail else "")
            )
        return "\n".join(lines)


def project(graph: TimelineGraph, changes: list[WhatIfChange]) -> Projection:
    """Replay the timeline with ``changes`` applied."""
    new_dur = {c.index: max(0.0, c.new_duration_us) for c in changes}
    last_done: dict[int, float] = {}
    times: dict[int, tuple[float, float]] = {}
    for node in graph.nodes:
        start = max(node.issue, last_done.get(node.stream, 0.0))
        for p in graph.wait_producers.get(node.index, ()):
            start = max(start, times[p][1])
        end = start + new_dur.get(node.index, node.duration)
        times[node.index] = (start, end)
        last_done[node.stream] = end

    # the measured total is max(dispatch-thread finish, GPU makespan) plus
    # the final sync/barrier tail; the tail and the dispatch floor do not
    # depend on kernel durations, so carry them over unchanged
    base = max(graph.max_issue_us, graph.gpu_makespan_us)
    tail = max(0.0, graph.total_time_us - base)
    makespan = max((end for _s, end in times.values()), default=0.0)
    projected = max(graph.max_issue_us, makespan) + tail
    return Projection(
        baseline_total_us=graph.total_time_us,
        projected_total_us=projected,
        changes=list(changes),
        times=times,
    )


def scale_kernel(graph: TimelineGraph, index: int, factor: float) -> Projection:
    """Project the timeline with one kernel's duration scaled by ``factor``."""
    if factor < 0:
        raise ValueError("scale factor must be >= 0")
    node = graph.nodes[index]
    change = WhatIfChange(
        kind="scale", index=index, name=node.name,
        old_duration_us=node.duration,
        new_duration_us=node.duration * factor,
        detail=f"x{factor:g}",
    )
    return project(graph, [change])


def _solo_duration(node, device) -> float | None:
    args = node.args
    if all(k in args for k in ("m", "k", "n", "library")):
        return GemmLaunch(args["m"], args["k"], args["n"],
                          args["library"]).duration_us(device)
    return None


def swap_library(graph: TimelineGraph, index: int, library: str,
                 device) -> Projection:
    """Project moving one GEMM to another kernel library.

    The new duration is the *solo* (contention-free) duration of the
    replacement kernel plus the contention penalty baked into the
    recording (``recorded - old_solo``).  The simulator's waterfill
    contention adds interference proportional to the *competing* work in
    the overlap window -- an absolute cost that does not scale with the
    victim's own duration -- so the penalty carries over additively, not
    multiplicatively.  On a single-stream schedule the penalty is zero
    and the projection is exact.
    """
    node = graph.nodes[index]
    old_solo = _solo_duration(node, device)
    if node.kind != "gemm" or old_solo is None or old_solo <= 0:
        raise ValueError(f"node {index} ({node.name}) is not a projectable GEMM")
    args = node.args
    new_solo = GemmLaunch(args["m"], args["k"], args["n"],
                          library).duration_us(device)
    stretch = max(0.0, node.duration - old_solo)
    change = WhatIfChange(
        kind="swap_library", index=index, name=node.name,
        old_duration_us=node.duration,
        new_duration_us=new_solo + stretch,
        detail=f"-> {library} (solo {old_solo:.2f} -> {new_solo:.2f} us)",
    )
    return project(graph, [change])


def swap_libraries(graph: TimelineGraph, swaps: dict[int, str],
                   device) -> Projection:
    """Project several library swaps at once (one combined replay)."""
    changes = []
    for index, library in sorted(swaps.items()):
        single = swap_library(graph, index, library, device)
        changes.extend(single.changes)
    return project(graph, changes)
