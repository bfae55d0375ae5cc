"""One observer: every observability output is a view over one event list.

An :class:`Observer` appends typed events, in the order they happen, to
``events``:

* **spans** -- a named host region with its open and close times (the
  wirer's phases, the executor's lower/validate/simulate, exploration
  phases);
* **instants** -- a point annotation (preempted, custom-wired, a round of
  the fleet search's wave);
* **metric updates** -- counter, gauge, histogram and series values;
* **decisions** -- what the exploration did: one mini-batch record, a
  fault, a schedule violation, a degradation, or a provenance event
  (candidates, measure, prune, quarantine, compare, warm).

Every output is computed from that list when it is asked for:

* :meth:`Observer.phases` -- exclusive seconds per host span name;
* :meth:`Observer.chrome` -- the Chrome trace of the host track;
* :meth:`Observer.metrics` -- the :class:`~repro.obs.metrics.MetricsRegistry`;
* :meth:`Observer.report` -- the :class:`~repro.obs.report.RunReporter`
  records, JSON lines and summary;
* :meth:`Observer.provenance` -- the :class:`~repro.obs.provenance.ProvenanceLog`.

A decision folds into several views at once: a mini-batch record is also
``astra.configs_explored``, a point of ``astra.best_so_far_us`` and an
observation of ``astra.minibatch_us.<phase>``; a surfaced fault is also
``fault.surfaced.<kind>`` and a ``fault/<kind>`` trace instant.  So the
phase table, the trace, the metrics and the run report agree by
construction.

:data:`NULL_OBSERVER` is the disabled default everywhere: it records
nothing, and its ``span`` hands back one shared do-nothing context.  An
observer never steers what gets dispatched to the simulated GPU, and
never writes to stdout or stderr.  Times are ``time.perf_counter``
readings.
"""

from __future__ import annotations

import time
from contextlib import nullcontext

#: event kinds: the first field of every event tuple
SPAN = "span"            # (SPAN, name, t_open, t_close, args)
INSTANT = "instant"      # (INSTANT, name, t, args)
COUNTER = "counter"      # (COUNTER, name, n)
GAUGE = "gauge"          # (GAUGE, name, value)
HISTOGRAM = "histogram"  # (HISTOGRAM, name, value)
SERIES = "series"        # (SERIES, name, value, step, t)
MINIBATCH = "minibatch"  # (MINIBATCH, phase, kind, time_us, context, delta, best_us)
FAULT = "fault"          # (FAULT, phase, kind, message, context, surfaced, t)
VIOLATION = "violation"  # (VIOLATION, phase, kind, message, context)
DEGRADED = "degraded"    # (DEGRADED, message, context, best_time_us, t)
DECISION = "decision"    # (DECISION, provenance event dict, t)


class _Span:
    """An open span: appends one span event when it closes."""

    __slots__ = ("_observer", "_name", "_args", "_start")

    def __init__(self, observer: "Observer", name: str, args: dict):
        self._observer = observer
        self._name = name
        self._args = args

    def __enter__(self) -> None:
        self._start = time.perf_counter()

    def __exit__(self, *exc_info) -> bool:
        self._observer.events.append(
            (SPAN, self._name, self._start, time.perf_counter(), self._args)
        )
        return False


#: what a disabled observer's ``span`` hands back, every time
_NO_SPAN = nullcontext()


class Observer:
    """Append-only event stream of one run, with its views."""

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self.events: list[tuple] = []
        self._t0 = time.perf_counter()

    # -- recording ----------------------------------------------------------

    def span(self, name: str, **args):
        """Context manager timing one host region."""
        if not self.enabled:
            return _NO_SPAN
        return _Span(self, name, args)

    def instant(self, name: str, **args) -> None:
        if self.enabled:
            self.events.append((INSTANT, name, time.perf_counter(), args))

    def count(self, name: str, n: int = 1) -> None:
        if self.enabled:
            self.events.append((COUNTER, name, n))

    def gauge(self, name: str, value: float) -> None:
        if self.enabled:
            self.events.append((GAUGE, name, value))

    def histogram(self, name: str, value: float) -> None:
        if self.enabled:
            self.events.append((HISTOGRAM, name, value))

    def series(self, name: str, value: float, step: int | None = None) -> None:
        if self.enabled:
            self.events.append((SERIES, name, value, step, time.perf_counter()))

    def minibatch(self, phase: str, kind: str, time_us: float, context: tuple,
                  delta: dict, best_so_far_us: float) -> None:
        """One executed mini-batch; ``delta`` holds the adaptive variables
        whose choice changed since the previous one."""
        if self.enabled:
            self.events.append(
                (MINIBATCH, phase, kind, time_us, context, delta, best_so_far_us)
            )

    def fault(self, phase: str, kind: str, message: str, context: tuple = (),
              surfaced: bool = True) -> None:
        """One fault record; a surfaced fault (one the wirer met while
        exploring, not a summary line) also counts and marks the trace."""
        if self.enabled:
            self.events.append(
                (FAULT, phase, kind, message, context, surfaced, time.perf_counter())
            )

    def violation(self, phase: str, kind: str, message: str,
                  context: tuple = ()) -> None:
        if self.enabled:
            self.events.append((VIOLATION, phase, kind, message, context))

    def degraded(self, message: str, best_time_us: float,
                 context: tuple = ()) -> None:
        """The run custom-wired the native plan instead of a winner."""
        if self.enabled:
            self.events.append(
                (DEGRADED, message, context, best_time_us, time.perf_counter())
            )

    def decision(self, event: str, **fields) -> None:
        """One provenance event, in :class:`~repro.obs.provenance.ProvenanceLog`
        form (``event`` is candidates, measure, prune, quarantine, compare
        or warm)."""
        if self.enabled:
            self.events.append(
                (DECISION, {"event": event, **fields}, time.perf_counter())
            )

    # -- views --------------------------------------------------------------

    def phases(self) -> dict[str, float]:
        """Exclusive seconds per span name.

        A nested span pauses the one enclosing it, so the names partition
        the timed wall clock: their sum equals the total length of the
        outermost spans."""
        seconds: dict[str, float] = {}
        stack: list[list] = []  # [close time, name, exclusive seconds]
        spans = sorted(
            (event[2], -event[3], event[1]) for event in self.events
            if event[0] == SPAN
        )
        for start, neg_end, name in spans:
            end = -neg_end
            while stack and stack[-1][0] <= start:
                _end, done, own = stack.pop()
                seconds[done] = seconds.get(done, 0.0) + own
            if stack:
                stack[-1][2] -= end - start  # the child's time is its own
            stack.append([end, name, end - start])
        for _end, done, own in stack:
            seconds[done] = seconds.get(done, 0.0) + own
        return seconds

    def chrome(self) -> dict:
        """Chrome trace-event document: spans and instants on the host
        track, series as counter tracks."""
        if not self.events:
            return {"traceEvents": [], "displayTimeUnit": "ms"}
        body: list[dict] = []
        for event in self.events:
            kind = event[0]
            if kind == SPAN:
                _, name, start, end, args = event
                body.append({
                    "ph": "X", "pid": 0, "tid": 0, "name": name,
                    "cat": "astra", "ts": self._us(start),
                    "dur": (end - start) * 1e6, "args": args,
                })
            elif kind == SERIES:
                body.append({
                    "ph": "C", "pid": 0, "tid": 0, "name": event[1],
                    "cat": "astra", "ts": self._us(event[4]),
                    "args": {"value": event[2]},
                })
            else:
                marked = _instant(event)
                if marked is not None:
                    name, at, args = marked
                    body.append({
                        "ph": "i", "s": "t", "pid": 0, "tid": 0, "name": name,
                        "cat": "astra", "ts": self._us(at), "args": args,
                    })
        meta = {"ph": "M", "pid": 0, "tid": 0, "name": "thread_name",
                "args": {"name": "phases"}}
        return {"traceEvents": [meta] + body, "displayTimeUnit": "ms"}

    def metrics(self):
        """The metrics registry: every metric update, plus the ones each
        decision implies."""
        from .metrics import MetricsRegistry

        registry = MetricsRegistry()
        for event in self.events:
            kind = event[0]
            if kind == COUNTER:
                registry.counter(event[1]).inc(event[2])
            elif kind == GAUGE:
                registry.gauge(event[1]).set(event[2])
            elif kind == HISTOGRAM:
                registry.histogram(event[1]).observe(event[2])
            elif kind == SERIES:
                registry.series(event[1]).append(event[2], event[3])
            elif kind == MINIBATCH:
                _, phase, record_kind, time_us, _context, _delta, best = event
                if record_kind != "production":
                    registry.counter("astra.configs_explored").inc()
                    registry.series("astra.best_so_far_us").append(best)
                registry.histogram(f"astra.minibatch_us.{phase}").observe(time_us)
            elif kind == FAULT and event[5]:
                registry.counter(f"fault.surfaced.{event[2]}").inc()
            elif kind == DEGRADED:
                registry.counter("recovery.degraded").inc()
            elif kind == DECISION and event[1]["event"] == "warm":
                fields = event[1]
                registry.counter("warm.seeded_entries").inc(fields["entries"])
                registry.counter(f"warm.hits.{fields['source']}").inc()
        return registry

    def report(self):
        """The run report: one record per mini-batch, fault and violation."""
        from .report import RunReporter

        reporter = RunReporter()
        for event in self.events:
            kind = event[0]
            if kind == MINIBATCH:
                _, phase, record_kind, time_us, context, delta, _best = event
                reporter.minibatch(phase, time_us, context, delta, record_kind)
            elif kind == FAULT:
                _, phase, fault_kind, message, context, _surfaced, _t = event
                reporter.fault(phase, fault_kind, message, context)
            elif kind == VIOLATION:
                reporter.violation(*event[1:])
            elif kind == DEGRADED:
                reporter.fault("degraded", "degradation", event[1], event[2])
        return reporter

    def provenance(self):
        """The exploration's decision history, replayed from its events."""
        from .provenance import ProvenanceLog

        return ProvenanceLog().replay(
            event[1] for event in self.events if event[0] == DECISION
        )

    def _us(self, t: float) -> float:
        return max(0.0, (t - self._t0) * 1e6)


def _instant(event: tuple):
    """(name, t, args) of the trace instant an event marks, or None."""
    kind = event[0]
    if kind == INSTANT:
        return event[1], event[2], event[3]
    if kind == FAULT and event[5]:
        return f"fault/{event[2]}", event[6], {"detail": event[3]}
    if kind == DEGRADED:
        return "degraded", event[4], {"best_time_us": event[3]}
    if kind == DECISION and event[1]["event"] == "warm":
        fields = event[1]
        return ("warm-start", event[2],
                {"entries": fields["entries"], "source": fields["source"]})
    return None


#: the disabled observer: the default wherever observation hooks in
NULL_OBSERVER = Observer(enabled=False)
