"""Tests for what-if timeline projection (Daydream-style replay).

The acceptance gate lives in :class:`TestSwapAccuracyGate`: for scrnn and
milstm, projecting a library swap for each of the top-3 critical-path
GEMMs must predict the *re-measured* epoch time within 5% -- the
projection replays the recorded timeline through the dependency graph,
it never re-runs the simulator.
"""

from dataclasses import replace

import pytest

from repro import AstraSession
from repro.gpu import P100
from repro.gpu.kernels import ElementwiseLaunch, GemmLaunch
from repro.models import MODEL_BUILDERS
from repro.obs import chrome_trace
from repro.obs.analysis import SEG_KERNEL, TimelineGraph, analyze
from repro.obs.whatif import (
    project,
    scale_kernel,
    swap_libraries,
    swap_library,
)
from repro.runtime import ExecutionPlan, Executor, Unit

ACCURACY_GATE = 0.05


@pytest.fixture()
def diamond():
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
    graph = TimelineGraph.from_chrome_trace(
        chrome_trace(result, lowered=lowered, device=P100)
    )
    return tr.graph, plan, result, graph


def _remeasure_with_library(ir_graph, plan, unit_id, library, seed=0):
    """Ground truth for a swap projection: rebuild the plan with the
    unit's GEMM moved to ``library`` and actually re-run the simulator."""
    units = []
    for unit in plan.units:
        if unit.unit_id == unit_id and isinstance(unit.kernel, GemmLaunch):
            k = unit.kernel
            units.append(replace(unit, kernel=GemmLaunch(
                k.m, k.k, k.n, library, node_ids=k.node_ids
            )))
        else:
            units.append(unit)
    new_plan = ExecutionPlan(
        units=units, stream_of=dict(plan.stream_of),
        barriers_after=plan.barriers_after, profile=plan.profile,
        label=plan.label,
    )
    return Executor(ir_graph, P100, seed=seed).run(new_plan).total_time_us


class TestProjectBasics:
    def test_no_changes_reproduces_baseline(self, diamond):
        _ir, _plan, result, graph = diamond
        projection = project(graph, [])
        assert projection.projected_total_us == pytest.approx(
            result.total_time_us, abs=1e-6
        )
        assert projection.delta_us == pytest.approx(0.0, abs=1e-6)

    def test_scale_up_never_speeds_up(self, diamond):
        _ir, _plan, _result, graph = diamond
        for node in graph.nodes:
            projection = scale_kernel(graph, node.index, 2.0)
            assert projection.projected_total_us >= projection.baseline_total_us - 1e-6

    def test_scale_down_never_slows_down(self, diamond):
        _ir, _plan, _result, graph = diamond
        for node in graph.nodes:
            projection = scale_kernel(graph, node.index, 0.5)
            assert projection.projected_total_us <= projection.baseline_total_us + 1e-6

    def test_swap_rejects_non_gemm(self, diamond):
        _ir, _plan, _result, graph = diamond
        non_gemm = next(n for n in graph.nodes if n.kind != "gemm")
        with pytest.raises(ValueError):
            swap_library(graph, non_gemm.index, "oai_1", P100)

    def test_render_and_to_dict(self, diamond):
        import json

        _ir, _plan, _result, graph = diamond
        projection = scale_kernel(graph, 0, 0.5)
        assert "projected" in projection.render()
        json.dumps(projection.to_dict())


class TestSwapExactOnDiamond:
    def test_swap_projection_matches_remeasurement_exactly(self, diamond):
        ir_graph, plan, _result, graph = diamond
        gemm = next(n for n in graph.nodes if n.kind == "gemm")
        target = "oai_1" if gemm.args["library"] == "cublas" else "cublas"
        projection = swap_library(graph, gemm.index, target, P100)
        actual = _remeasure_with_library(ir_graph, plan, gemm.unit, target)
        assert projection.projected_total_us == pytest.approx(actual, abs=1e-6)


def _optimized_timeline(name, seed=0, budget=300):
    module = __import__(f"repro.models.{name}", fromlist=["DEFAULT_CONFIG"])
    config = module.DEFAULT_CONFIG.scaled(batch_size=4, seq_len=3)
    model = MODEL_BUILDERS[name](config)
    session = AstraSession(model, device=P100, features="all", seed=seed)
    try:
        plan = session.optimize(max_minibatches=budget).astra.best_plan
    finally:
        session.close()
    executor = Executor(model.graph, P100, seed=seed)
    lowered = executor.dispatcher.lower(plan)
    result = executor.run_lowered(lowered).raw
    return model.graph, plan, result, TimelineGraph.from_chrome_trace(
        chrome_trace(result, lowered=lowered, device=P100)
    )


def _top_critical_gemms(report, n: int = 3) -> list[int]:
    """Node indices of the ``n`` GEMMs contributing most to the critical
    path, one per unit."""
    contrib: dict[int, float] = {}
    for seg in report.segments:
        if seg.kind == SEG_KERNEL and seg.index is not None:
            contrib[seg.index] = contrib.get(seg.index, 0.0) + seg.duration
    out, seen_units = [], set()
    for index in sorted(contrib, key=lambda i: (-contrib[i], i)):
        node = report.graph.nodes[index]
        if node.kind == "gemm" and node.unit not in seen_units:
            seen_units.add(node.unit)
            out.append(index)
    return out[:n]


class TestSwapAccuracyGate:
    """The PR's acceptance gate: projected vs re-measured within 5%."""

    @pytest.mark.parametrize("name", ["scrnn", "milstm"])
    def test_top3_critical_gemm_swaps_within_5pct(self, name):
        ir_graph, plan, result, graph = _optimized_timeline(name)
        report = analyze(graph)
        tops = _top_critical_gemms(report)
        assert tops, f"{name}: optimized plan must have critical GEMMs"
        for index in tops:
            node = graph.nodes[index]
            target = "oai_1" if node.args["library"] == "cublas" else "cublas"
            # swapping a unit's library moves every launch of that unit
            swap_idx = [
                n.index for n in graph.nodes
                if n.unit == node.unit and n.kind == "gemm"
            ]
            projection = swap_libraries(
                graph, {i: target for i in swap_idx}, P100
            )
            actual = _remeasure_with_library(ir_graph, plan, node.unit, target)
            error = abs(projection.projected_total_us - actual) / actual
            assert error <= ACCURACY_GATE, (
                f"{name} unit {node.unit} -> {target}: projected "
                f"{projection.projected_total_us:.3f}us vs re-measured "
                f"{actual:.3f}us ({error * 100:.2f}% > 5%)"
            )

    @pytest.mark.parametrize("name", ["scrnn", "milstm"])
    def test_critical_path_sums_to_measured_epoch(self, name):
        _ir, _plan, result, graph = _optimized_timeline(name)
        report = analyze(graph)
        covered = sum(s.duration for s in report.segments)
        assert covered == pytest.approx(result.total_time_us, abs=1e-6)
        assert (
            report.critical_kernel_us + report.critical_dispatch_us
            + report.critical_gap_us
        ) == pytest.approx(result.total_time_us, abs=1e-6)
