"""Tests for the executor's measurement extraction."""

import pytest

from repro.gpu import P100
from repro.gpu.kernels import CopyLaunch, GemmLaunch
from repro.ir import Tracer
from repro.runtime import ExecutionPlan, Executor, Unit, build_units


@pytest.fixture()
def chain_graph():
    tr = Tracer("chain")
    x = tr.input((32, 64))
    w1 = tr.param((64, 64))
    w2 = tr.param((64, 64))
    y = tr.matmul(x, w1)
    z = tr.matmul(y, w2)
    tr.output(z)
    return tr.graph, y.node.node_id, z.node.node_id


class TestUnitTimes:
    def test_unit_times_match_kernel_durations(self, chain_graph):
        graph, yid, zid = chain_graph
        units = [
            Unit(0, GemmLaunch(32, 64, 64, "cublas"), (yid,)),
            Unit(1, GemmLaunch(32, 64, 64, "cublas"), (zid,)),
        ]
        result = Executor(graph, P100).run(ExecutionPlan(units=units))
        expected = GemmLaunch(32, 64, 64, "cublas").duration_us(P100)
        assert result.unit_times[0] == pytest.approx(expected)
        assert result.unit_times[1] == pytest.approx(expected)

    def test_pre_copies_charged_to_unit(self, chain_graph):
        graph, yid, zid = chain_graph
        copy = CopyLaunch(bytes_moved=1_000_000)
        units = [
            Unit(0, GemmLaunch(32, 64, 64, "cublas"), (yid,), pre_copies=(copy,)),
            Unit(1, GemmLaunch(32, 64, 64, "cublas"), (zid,)),
        ]
        result = Executor(graph, P100).run(ExecutionPlan(units=units))
        assert result.unit_times[0] > result.unit_times[1]
        assert result.unit_times[0] == pytest.approx(
            result.unit_times[1] + copy.duration_us(P100), rel=1e-6
        )

    def test_total_includes_launch_overheads(self, chain_graph):
        graph, yid, zid = chain_graph
        units = [
            Unit(0, GemmLaunch(32, 64, 64, "cublas"), (yid,)),
            Unit(1, GemmLaunch(32, 64, 64, "cublas"), (zid,)),
        ]
        result = Executor(graph, P100).run(ExecutionPlan(units=units, profile=False))
        assert result.total_time_us > sum(result.unit_times.values())


class TestEpochMetrics:
    def test_epoch_metric_cumulative(self, chain_graph):
        graph, yid, zid = chain_graph
        u0 = Unit(0, GemmLaunch(32, 64, 64, "cublas"), (yid,))
        u1 = Unit(1, GemmLaunch(32, 64, 64, "cublas"), (zid,))
        plan = ExecutionPlan(units=[u0, u1], epoch_of={0: (0, 0), 1: (0, 1)})
        result = Executor(graph, P100).run(plan)
        m0 = result.epoch_metrics[(0, 0)]
        m1 = result.epoch_metrics[(0, 1)]
        assert m1 > m0 > 0

    def test_unassigned_units_have_no_epoch_metrics(self, chain_graph):
        graph, yid, zid = chain_graph
        units = [
            Unit(0, GemmLaunch(32, 64, 64, "cublas"), (yid,)),
            Unit(1, GemmLaunch(32, 64, 64, "cublas"), (zid,)),
        ]
        result = Executor(graph, P100).run(ExecutionPlan(units=units))
        assert result.epoch_metrics == {}


class TestProfilingOverhead:
    def test_overhead_fraction_bounded(self, tiny_sublstm):
        # every unit profiled on a tiny graph: the worst case; Astra's
        # region-of-interest profiling (<0.5%) is checked in core tests
        units = build_units(tiny_sublstm.graph)
        plan = ExecutionPlan(units=units, profile=True)
        result = Executor(tiny_sublstm.graph, P100).run(plan)
        assert 0 < result.profiling_overhead_fraction < 0.10

    def test_no_overhead_without_profiling(self, tiny_sublstm):
        units = build_units(tiny_sublstm.graph)
        plan = ExecutionPlan(units=units, profile=False)
        result = Executor(tiny_sublstm.graph, P100).run(plan)
        assert result.profiling_overhead_us == 0.0

    def test_determinism_across_runs(self, tiny_sublstm):
        executor = Executor(tiny_sublstm.graph, P100)
        plan = ExecutionPlan(units=build_units(tiny_sublstm.graph), profile=False)
        t1 = executor.run(plan).total_time_us
        t2 = executor.run(plan).total_time_us
        assert t1 == t2


class TestMeasurementEdgeCases:
    def test_pre_copy_walk_never_wraps_negative(self, chain_graph):
        """Regression: a hand-built schedule that maps a unit with
        pre-copies to the head of the record list must not walk to a
        negative index (which would silently charge the *last* record)."""
        from repro.gpu.streams import HostSyncItem, LaunchItem
        from repro.runtime.dispatcher import LoweredSchedule

        graph, yid, zid = chain_graph
        main = GemmLaunch(32, 64, 64, "cublas")
        other = GemmLaunch(32, 64, 64, "oai_1")
        copy = CopyLaunch(bytes_moved=1_000_000)
        # the unit claims a pre-copy, but its main kernel is record 0
        unit = Unit(0, main, (yid,), pre_copies=(copy,))
        plan = ExecutionPlan(units=[unit])
        lowered = LoweredSchedule(
            items=[LaunchItem(main, 0), LaunchItem(other, 0), HostSyncItem()],
            unit_record_index={0: 0},
            unit_stream={0: 0},
            plan=plan,
            graph=graph,
        )
        result = Executor(graph, P100).run_lowered(lowered)
        # only the main kernel is charged; records[-1] (the other GEMM)
        # must not leak into the measurement
        assert result.unit_times[0] == pytest.approx(main.duration_us(P100))

    def test_overhead_fraction_zero_total(self):
        from repro.gpu.streams import ExecutionResult
        from repro.runtime.executor import MiniBatchResult

        raw = ExecutionResult(
            total_time_us=0.0, cpu_time_us=0.0, records=[], event_times={}
        )
        result = MiniBatchResult(
            total_time_us=0.0, cpu_time_us=0.0, profiling_overhead_us=0.0,
            unit_times={}, epoch_metrics={}, raw=raw,
        )
        assert result.profiling_overhead_fraction == 0.0

    def test_negative_super_epoch_excluded_from_epoch_metrics(self, chain_graph):
        graph, yid, zid = chain_graph
        u0 = Unit(0, GemmLaunch(32, 64, 64, "cublas"), (yid,))
        u1 = Unit(1, GemmLaunch(32, 64, 64, "cublas"), (zid,))
        # unit 0 carries the pre-assignment sentinel
        plan = ExecutionPlan(units=[u0, u1], epoch_of={0: (-1, 0), 1: (0, 0)})
        result = Executor(graph, P100).run(plan)
        assert set(result.epoch_metrics) == {(0, 0)}

    def test_all_negative_super_epochs_yield_empty_metrics(self, chain_graph):
        graph, yid, zid = chain_graph
        u0 = Unit(0, GemmLaunch(32, 64, 64, "cublas"), (yid,))
        u1 = Unit(1, GemmLaunch(32, 64, 64, "cublas"), (zid,))
        plan = ExecutionPlan(units=[u0, u1], epoch_of={0: (-1, -1), 1: (-1, -1)})
        result = Executor(graph, P100).run(plan)
        assert result.epoch_metrics == {}
