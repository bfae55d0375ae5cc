"""Pipeline fuzzing: random traced graphs through the whole stack.

A random-program generator builds arbitrary (but valid) tensor programs;
every stage -- fusion analysis, enumeration, planning, lowering,
execution, full optimization -- must handle them without error and
without ever producing a plan slower than native.  This is the
enumerator's real job description: the paper's long-tail models are
precisely programs nobody anticipated.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import AstraSession
from repro.baselines import run_native, run_xla
from repro.core import analyse_fusion
from repro.core.fusion import resolve_static_conflicts
from repro.gpu import P100
from repro.ir import Interpreter, Tracer, backward, random_bindings
from repro.obs.observer import Observer
from tests.integration.fuzz_utils import random_program


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_fuzz_fusion_analysis_total(seed):
    """Fusion analysis covers every GEMM exactly once on random programs."""
    tr, _loss = random_program(seed)
    analysis = resolve_static_conflicts(analyse_fusion(tr.graph))
    seen: set[int] = set()
    for group in analysis.groups:
        for member in group.members:
            for mm in member.mm_ids:
                assert mm not in seen
                seen.add(mm)
    for member in analysis.singletons:
        for mm in member.mm_ids:
            assert mm not in seen
            seen.add(mm)
    assert seen == {n.node_id for n in tr.graph.gemm_nodes()}


@settings(max_examples=12, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_fuzz_full_optimization(seed):
    """The whole stack runs on arbitrary programs, never loses to native,
    and every configuration the exploration tries passes the schedule
    validator (``validate=True`` raises on the first violation)."""
    tr, loss = random_program(seed)

    observer = Observer()
    report = AstraSession(
        tr.graph, features="FK", seed=0, validate=True, observer=observer
    ).optimize()
    assert report.speedup_over_native >= 1.0
    snap = observer.metrics().snapshot()
    assert snap["check.schedules_validated"]["value"] > 0
    assert not [k for k in snap if k.startswith("check.violations.")]


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_fuzz_baselines_agree_on_coverage(seed):
    """Native and XLA plans execute the same computation on random
    programs (plan-level value preservation)."""
    tr, _loss = random_program(seed, size=8)
    native = run_native(tr.graph, P100)
    xla = run_xla(tr.graph, P100)
    assert native.total_time_us > 0 and xla.total_time_us > 0


def _random_stream_schedule(seed, streams=3):
    """Lower a random program under a random (but event-synchronized)
    stream assignment."""
    from repro.runtime import Dispatcher, ExecutionPlan, build_units

    tr, _loss = random_program(seed, size=10)
    rng = np.random.default_rng(seed + 1)
    units = build_units(tr.graph)
    plan = ExecutionPlan(
        units=units,
        stream_of={u.unit_id: int(rng.integers(0, streams)) for u in units},
        profile=False,
        label=f"fuzz{seed}/streams",
    )
    return tr.graph, plan, Dispatcher(tr.graph).lower(plan)


def _work_item_times(lowered, result):
    """item index -> (start, end); simulator records are 1:1 with
    LaunchItems in dispatch order."""
    from repro.gpu.streams import LaunchItem

    times = {}
    record = iter(result.records)
    for idx, item in enumerate(lowered.items):
        if isinstance(item, LaunchItem):
            rec = next(record)
            times[idx] = (rec.start_time, rec.end_time)
    return times


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_fuzz_random_streams_validate_and_order_soundly(seed):
    """Dispatcher-lowered schedules under arbitrary stream assignments are
    always clean, and the static happens-before claim is *sound*: whenever
    the validator says "i completes before j starts", the simulated
    timestamps agree."""
    from repro.check import HappensBefore, validate_schedule
    from repro.gpu.streams import StreamSimulator

    _graph, _plan, lowered = _random_stream_schedule(seed)
    report = validate_schedule(lowered)
    assert report.ok, report.summary()

    result = StreamSimulator(P100).run(lowered.items)
    times = _work_item_times(lowered, result)
    hb = HappensBefore(lowered.items, lowered.item_units)
    indices = sorted(times)
    for i in indices:
        for j in indices:
            if i != j and hb.ordered(i, j):
                assert times[i][1] <= times[j][0] + 1e-6, (
                    f"validator claims item {i} finishes before {j} starts, "
                    f"but simulated times are {times[i]} vs {times[j]}"
                )


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_fuzz_dropped_waits_never_hide_a_dynamic_race(seed):
    """Mutation oracle over the fuzzer: strip every wait-event from a
    random multi-stream schedule, then check the validator against the
    simulator -- any dependency edge that *dynamically* overlaps in the
    mutant must be reported as a static raw-race."""
    from dataclasses import replace

    from repro.check import RAW_RACE, dependency_edges, unit_item_spans, validate_schedule
    from repro.gpu.streams import LaunchItem, StreamSimulator

    graph, plan, lowered = _random_stream_schedule(seed)
    for idx, item in enumerate(lowered.items):
        if isinstance(item, LaunchItem) and item.waits:
            lowered.items[idx] = replace(item, waits=())

    report = validate_schedule(lowered)
    flagged = {
        frozenset(v.unit_ids)
        for v in report.violations
        if v.kind == RAW_RACE
    }

    result = StreamSimulator(P100).run(lowered.items)
    times = _work_item_times(lowered, result)
    spans = unit_item_spans(lowered.item_units)
    for (producer, consumer) in dependency_edges(graph, plan):
        p_span, c_span = spans.get(producer), spans.get(consumer)
        if p_span is None or c_span is None:
            continue
        if p_span[1] not in times or c_span[0] not in times:
            continue  # host-compute endpoints carry no kernel record
        p_end = times[p_span[1]][1]
        c_start = times[c_span[0]][0]
        if c_start < p_end - 1e-6:  # consumer observably overtook producer
            assert frozenset((producer, consumer)) in flagged, (
                f"dynamic race {producer}->{consumer} "
                f"(producer ends {p_end}, consumer starts {c_start}) "
                "not reported by the validator"
            )


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_fuzz_interpreter_finite(seed):
    """Random programs evaluate to finite values (the loss scaling keeps
    the chain numerically tame)."""
    tr, loss = random_program(seed, size=8)
    values = Interpreter(tr.graph).run(random_bindings(tr.graph, seed=seed))
    assert np.isfinite(values[loss.node.node_id]).all()
