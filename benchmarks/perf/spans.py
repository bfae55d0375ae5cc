"""Per-layer tracing from outside the program.

A traced sample wraps each layer's public entry points (``ENTRY_POINTS``)
where their callers resolve them, records one span per call in memory,
and hands the spans to the runner, which turns them into per-layer self
times, call counts and a Chrome trace.  Nothing under ``src/`` changes,
and an untraced sample patches nothing.

A span is a ``[layer, name, start_s, end_s, parent, items]`` row; ``parent``
is the index of the enclosing span in the same list, or -1.
"""

from __future__ import annotations

import functools
import importlib
import importlib.abc
import statistics
import sys
import time
from contextlib import contextmanager
from typing import NamedTuple

from stats import hi


class EntryPoint(NamedTuple):
    layer: str
    #: where the caller resolves it from: ``module`` or ``module:object``,
    #: the object being a class or a dict of the module
    owner: str
    attribute: str
    #: a traced run of this workload must see the entry point fire
    workload: str
    #: positional argument whose ``len()`` the span records as its items
    counted: int | None = None


ENTRY_POINTS = (
    EntryPoint("ir.build", "repro.models:MODEL_BUILDERS", "milstm", "milstm-all"),
    EntryPoint("ir.build", "repro.models:MODEL_BUILDERS", "gnmt", "gnmt-fk"),
    EntryPoint("ir.build", "repro.models:MODEL_BUILDERS", "scrnn", "quick"),
    EntryPoint("session.native", "repro.core.session:AstraSession",
               "measure_native", "milstm-warm"),
    EntryPoint("wirer", "repro.core.wirer:CustomWirer", "optimize", "milstm-all"),
    EntryPoint("enumerator", "repro.core.enumerator:Enumerator",
               "build_fk_tree", "gnmt-fk"),
    EntryPoint("enumerator", "repro.core.enumerator:Enumerator",
               "prepare_stream_phase", "milstm-warm"),
    EntryPoint("enumerator", "repro.core.enumerator:Enumerator",
               "build_plan", "gnmt-fk"),
    EntryPoint("enumerator", "repro.core.enumerator:Enumerator",
               "arena_plan", "gnmt-fk"),
    EntryPoint("enumerator", "repro.core.enumerator:Enumerator",
               "units_for_choice", "gnmt-fk"),
    EntryPoint("ranker", "repro.core.wirer", "prune_fk_tree", "gnmt-fk"),
    EntryPoint("cache", "repro.perf.cache:LoweringCache", "lower", "milstm-all"),
    EntryPoint("dispatcher", "repro.runtime.dispatcher:Dispatcher", "lower",
               "milstm-all"),
    EntryPoint("executor", "repro.runtime.executor:Executor", "run", "milstm-all"),
    EntryPoint("executor", "repro.runtime.executor:Executor", "run_lowered",
               "milstm-all"),
    EntryPoint("simulator", "repro.gpu.streams:StreamSimulator", "run",
               "milstm-all", counted=1),
    EntryPoint("store.load", "repro.serve.store:ProfileStore", "load",
               "milstm-warm"),
    # warm samples measure nothing new, so only the cold fixture run
    # that fills their store publishes to it
    EntryPoint("store.put", "repro.serve.store:ProfileStore", "put",
               "milstm-warm"),
    EntryPoint("engine", "repro.parallel.engine:ParallelEngine", "measure_wave",
               "fleet-milstm-w2", counted=1),
    EntryPoint("fleet.calibrate", "repro.fleet.measure:FleetMeasurer",
               "calibrate", "fleet-milstm-w2"),
    EntryPoint("fleet", "repro.fleet", "run_fleet_search", "fleet-milstm-w2"),
)


def span_name(entry: EntryPoint) -> str:
    return f"{entry.owner.rpartition(':')[2].rsplit('.', 1)[-1]}.{entry.attribute}"


class SpanRecorder:
    """In-memory span stack; the sample writes ``spans`` out when it ends."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, layer: str, name: str | None = None, items: int = 0):
        parent = self._stack[-1] if self._stack else -1
        row = [layer, name or layer, self.clock(), 0.0, parent, items]
        self._stack.append(len(self.spans))
        self.spans.append(row)
        try:
            yield row
        finally:
            row[3] = self.clock()
            self._stack.pop()


def resolve(owner: str):
    """The module, class or dict ``owner`` names, importing its module."""
    module, _, name = owner.partition(":")
    obj = importlib.import_module(module)
    return getattr(obj, name) if name else obj


def _lookup(owner, attribute: str):
    if isinstance(owner, dict):
        return owner[attribute]
    if isinstance(owner, type):
        # only a method the class itself defines: an inherited one would
        # be patched on the wrong class
        return vars(owner)[attribute]
    return getattr(owner, attribute)


def _assign(owner, attribute: str, value) -> None:
    if isinstance(owner, dict):
        owner[attribute] = value
    else:
        setattr(owner, attribute, value)


def _traced(fn, recorder: SpanRecorder, entry: EntryPoint):
    name = span_name(entry)
    counted = entry.counted

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        items = len(args[counted]) if counted is not None else 0
        with recorder.span(entry.layer, name, items):
            return fn(*args, **kwargs)

    return traced


class _PatchOnImport(importlib.abc.MetaPathFinder):
    """Runs ``patch(module_name)`` right after one of ``modules`` is
    first imported."""

    def __init__(self, modules: set[str], patch):
        self.modules = modules
        self.patch = patch

    def find_spec(self, name, path, target=None):
        if name not in self.modules:
            return None
        others = [f for f in sys.meta_path if f is not self]
        spec = next(filter(None, (
            f.find_spec(name, path, target) for f in others if hasattr(f, "find_spec")
        )), None)
        if spec is None or spec.loader is None:
            return spec
        exec_module = spec.loader.exec_module

        def exec_and_patch(module):
            exec_module(module)
            self.modules.discard(name)
            self.patch(name)

        spec.loader.exec_module = exec_and_patch
        return spec


@contextmanager
def instrument(recorder: SpanRecorder, entries=ENTRY_POINTS):
    """Wrap every entry point for the duration of the block.  One whose
    module is not imported yet is wrapped as soon as it is, so tracing
    moves no import out of the timed regions it would fall in."""
    patched: list[tuple] = []

    def patch(module_name: str) -> None:
        for entry in entries:
            if entry.owner.partition(":")[0] != module_name:
                continue
            owner = resolve(entry.owner)
            original = _lookup(owner, entry.attribute)
            traced = _traced(original, recorder, entry)
            _assign(owner, entry.attribute, traced)
            patched.append((owner, entry.attribute, original))
            module = sys.modules.get(getattr(original, "__module__", ""))
            if isinstance(owner, dict) and getattr(
                module, original.__name__, None
            ) is original:
                # the fleet pool pickles the model builder by reference;
                # rebinding the module global keeps the wrapper picklable
                setattr(module, original.__name__, traced)
                patched.append((module, original.__name__, original))

    modules = {entry.owner.partition(":")[0] for entry in entries}
    for name in sorted(modules & sys.modules.keys()):
        patch(name)
    finder = _PatchOnImport(modules - sys.modules.keys(), patch)
    sys.meta_path.insert(0, finder)
    try:
        yield recorder
    finally:
        sys.meta_path.remove(finder)
        for owner, attribute, original in reversed(patched):
            _assign(owner, attribute, original)


# -- accounting -------------------------------------------------------------


def _covered(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of ``intervals``."""
    total = 0.0
    end = float("-inf")
    for lo, hi in sorted(intervals):
        if hi <= end:
            continue
        total += hi - max(lo, end)
        end = hi
    return total


def self_times(spans: list) -> list[float]:
    """Each span's duration minus the part of it its child spans cover."""
    children: dict[int, list[int]] = {}
    for i, row in enumerate(spans):
        if row[4] >= 0:
            children.setdefault(row[4], []).append(i)
    out = []
    for i, (_layer, _name, start, end, _parent, _items) in enumerate(spans):
        clipped = [
            (max(start, spans[c][2]), min(end, spans[c][3]))
            for c in children.get(i, ())
        ]
        out.append((end - start) - _covered([iv for iv in clipped if iv[1] > iv[0]]))
    return out


def _outermost(spans: list, i: int) -> bool:
    """True when no enclosing span belongs to the same layer."""
    layer = spans[i][0]
    parent = spans[i][4]
    while parent >= 0:
        if spans[parent][0] == layer:
            return False
        parent = spans[parent][4]
    return True


def layer_totals(spans: list) -> dict[str, dict]:
    """Per layer: self time, time in its outermost calls, call count,
    recorded items and each outermost call's duration in ms.  Nested
    calls of one layer (``Executor.run`` -> ``run_lowered``) count once."""
    selfs = self_times(spans)
    out: dict[str, dict] = {}
    for i, (layer, _name, start, end, _parent, items) in enumerate(spans):
        agg = out.setdefault(layer, {
            "self_s": 0.0, "total_s": 0.0, "calls": 0, "items": 0, "call_ms": [],
        })
        agg["self_s"] += selfs[i]
        if _outermost(spans, i):
            agg["total_s"] += end - start
            agg["calls"] += 1
            agg["items"] += items
            agg["call_ms"].append((end - start) * 1e3)
    return out


def span_sum_error(spans: list) -> float:
    """Largest gap between an ``optimize`` span and the self times of
    every span inside it (itself included)."""
    selfs = self_times(spans)
    sums: dict[int, float] = {}
    for i in range(len(spans)):
        node = i
        while node >= 0 and spans[node][0] != "optimize":
            node = spans[node][4]
        if node >= 0:
            sums[node] = sums.get(node, 0.0) + selfs[i]
    return max(
        (abs(total - (spans[r][3] - spans[r][2])) for r, total in sums.items()),
        default=0.0,
    )


def fired(spans: list) -> dict[str, int]:
    """Calls seen per span name."""
    counts: dict[str, int] = {}
    for row in spans:
        counts[row[1]] = counts.get(row[1], 0) + 1
    return counts


_EMPTY = {"self_s": 0.0, "total_s": 0.0, "calls": 0, "items": 0, "call_ms": []}


def sample_layer_metrics(layers: dict, counters: dict) -> dict[str, float]:
    """One traced sample's per-layer metrics (the pooled per-call
    percentiles and the trace overhead are added by :func:`layer_metrics`)."""

    def get(layer):
        return layers.get(layer, _EMPTY)

    sim = get("simulator")
    metrics = {
        "ir.build_s": get("ir.build")["total_s"],
        "session.native_s": get("session.native")["total_s"],
        "wirer.self_s": get("wirer")["self_s"],
        "wirer.index_hit_rate": counters.get("index_hit_rate", 0.0),
        "enumerator.self_s": get("enumerator")["self_s"],
        "enumerator.calls": get("enumerator")["calls"],
        "ranker.self_s": get("ranker")["self_s"],
        "ranker.pruned_fraction": counters.get("pruned_fraction", 0.0),
        "cache.self_s": get("cache")["self_s"],
        "cache.structure_hit_rate": counters.get("structure_hit_rate", 0.0),
        "cache.schedule_hit_rate": counters.get("schedule_hit_rate", 0.0),
        "dispatcher.self_s": get("dispatcher")["self_s"],
        "dispatcher.calls": get("dispatcher")["calls"],
        "executor.self_s": get("executor")["self_s"],
        "executor.calls": get("executor")["calls"],
        "simulator.self_s": sim["self_s"],
        "simulator.calls": sim["calls"],
        "simulator.items_per_s": sim["items"] / sim["self_s"] if sim["self_s"] else 0.0,
        "store.load_s": get("store.load")["total_s"],
        "store.put_s": get("store.put")["total_s"],
        "store.seeded_entries": counters.get("seeded_entries", 0),
        "engine.wait_s": get("engine")["total_s"],
        "engine.waves": get("engine")["calls"],
        "engine.tasks": get("engine")["items"],
        "fleet.calibrate_s": get("fleet.calibrate")["total_s"],
        "fleet.self_s": get("fleet")["self_s"],
        "unattributed_s": get("optimize")["self_s"],
    }
    return metrics


def layer_metrics(samples: list[dict]) -> dict:
    """Per-layer metrics of one workload's traced samples.

    Each sample is ``{"spans", "counters"}``.  Per-sample values are
    reduced by their median; per-call durations are pooled over all
    samples before taking p50 and ``hi``.
    """
    per_sample = []
    pooled: dict[str, list[float]] = {"dispatcher": [], "simulator": []}
    for sample in samples:
        layers = layer_totals(sample["spans"])
        per_sample.append(sample_layer_metrics(layers, sample["counters"]))
        for layer, calls in pooled.items():
            calls.extend(layers.get(layer, _EMPTY)["call_ms"])
    out = {
        name: statistics.median(s[name] for s in per_sample)
        for name in per_sample[0]
    }
    for layer, calls in pooled.items():
        out[f"{layer}.call_ms_p50"] = statistics.median(calls) if calls else 0.0
        high = hi(calls)
        out[f"{layer}.call_ms_hi"] = high[1] if high else None
    return out


def chrome_trace(samples: list[list]) -> dict:
    """Chrome trace-event document: one track per traced sample."""
    events = []
    for tid, spans in enumerate(samples):
        if not spans:
            continue
        origin = min(row[2] for row in spans)
        for layer, name, start, end, _parent, items in spans:
            events.append({
                "name": name, "cat": layer, "ph": "X", "pid": 1, "tid": tid,
                "ts": (start - origin) * 1e6, "dur": (end - start) * 1e6,
                "args": {"items": items} if items else {},
            })
    return {"traceEvents": events, "displayTimeUnit": "ms"}
