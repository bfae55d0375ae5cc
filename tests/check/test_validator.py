"""Unit tests for the happens-before model and the schedule validator.

The mutation harness in ``test_mutations.py`` checks that broken
schedules are flagged; this module checks the other direction -- the
model itself (stream FIFO, events, barriers) and the requirement that
every *correct* schedule passes cleanly.
"""

import pytest

from repro.check import (
    DEADLOCK,
    MISSING_EVENT,
    HappensBefore,
    ScheduleValidationError,
    check_arena_layout,
    dependency_edges,
    validate_schedule,
)
from repro.baselines.native import native_plan
from repro.gpu import P100
from repro.gpu.events import EventId
from repro.gpu.kernels import ElementwiseLaunch, GemmLaunch
from repro.gpu.memory import AllocationPlan, ContiguityGroup
from repro.gpu.streams import (
    HostComputeItem,
    HostSyncItem,
    LaunchItem,
    RecordEventItem,
)
from repro.ir import Tracer
from repro.obs.observer import Observer
from repro.runtime import Dispatcher, ExecutionPlan, Executor, Unit, build_units


def _kernel(label="k"):
    return ElementwiseLaunch(num_elements=16, label=label)


def _launch(stream=0, waits=(), record=None):
    return LaunchItem(
        _kernel(), stream=stream, waits=tuple(waits), record=record,
        record_is_profiling=False,
    )


class TestHappensBefore:
    def test_same_stream_fifo(self):
        hb = HappensBefore([_launch(0), _launch(0)])
        assert hb.ordered(0, 1)
        assert not hb.ordered(1, 0)

    def test_cross_stream_unordered_without_events(self):
        hb = HappensBefore([_launch(0), _launch(1)])
        assert not hb.ordered(0, 1)
        assert not hb.ordered(1, 0)

    def test_record_wait_orders_cross_stream(self):
        e = EventId(0)
        hb = HappensBefore([_launch(0, record=e), _launch(1, waits=(e,))])
        assert hb.ordered(0, 1)
        assert not hb.violations

    def test_forward_wait_reference_resolves(self):
        """A wait may name an event recorded later in dispatch order; the
        simulator resolves it when the event completes."""
        e = EventId(0)
        hb = HappensBefore([_launch(1, waits=(e,)), _launch(0, record=e)])
        assert hb.ordered(1, 0)
        assert not hb.violations

    def test_bare_record_piggybacks_on_stream(self):
        e = EventId(0)
        items = [_launch(0), RecordEventItem(stream=0, event=e), _launch(1, waits=(e,))]
        hb = HappensBefore(items)
        assert hb.ordered(0, 2)

    def test_record_on_idle_stream_completes_immediately(self):
        e = EventId(0)
        items = [RecordEventItem(stream=0, event=e), _launch(1, waits=(e,))]
        hb = HappensBefore(items)
        assert not hb.violations
        assert not hb.has_deadlock

    def test_sync_all_is_global_barrier(self):
        items = [_launch(0), _launch(1), HostSyncItem(None), _launch(0)]
        hb = HappensBefore(items)
        assert hb.ordered(0, 3)
        assert hb.ordered(1, 3)

    def test_sync_on_event_only_orders_that_event(self):
        e = EventId(0)
        items = [
            _launch(0, record=e),
            _launch(1),
            HostSyncItem(e),
            _launch(2),
        ]
        hb = HappensBefore(items)
        assert hb.ordered(0, 3)
        # stream 1's in-flight kernel is NOT waited for by a one-event sync
        assert not hb.ordered(1, 3)

    def test_host_compute_stalls_later_dispatch_only(self):
        items = [_launch(0), HostComputeItem(5.0, "host"), _launch(1)]
        hb = HappensBefore(items)
        # host work blocks what comes after it...
        assert hb.ordered(1, 2)
        # ...but does not wait for kernels already in flight
        assert not hb.ordered(0, 1)

    def test_wait_on_unrecorded_event_is_missing_event(self):
        hb = HappensBefore([_launch(0, waits=(EventId(7),))])
        assert [v.kind for v in hb.violations] == [MISSING_EVENT]

    def test_cyclic_waits_are_deadlock(self):
        e0, e1 = EventId(0), EventId(1)
        items = [
            _launch(0, waits=(e1,), record=e0),
            _launch(1, waits=(e0,), record=e1),
        ]
        hb = HappensBefore(items)
        assert hb.has_deadlock
        assert DEADLOCK in {v.kind for v in hb.violations}

    def test_work_and_event_counts(self):
        e = EventId(0)
        items = [_launch(0, record=e), HostComputeItem(1.0), _launch(1, waits=(e,))]
        hb = HappensBefore(items)
        assert hb.work_count == 3
        assert hb.event_count == 1
        assert hb.is_work_item(0) and hb.is_work_item(1) and hb.is_work_item(2)


@pytest.fixture()
def diamond():
    """x -> (a, b) -> c with one unit per compute node."""
    tr = Tracer("diamond")
    x = tr.input((8, 8))
    w1 = tr.param((8, 8))
    w2 = tr.param((8, 8))
    a = tr.matmul(x, w1)
    b = tr.matmul(x, w2)
    c = tr.add(a, b)
    tr.output(c)
    units = [
        Unit(0, GemmLaunch(8, 8, 8, "cublas"), (a.node.node_id,)),
        Unit(1, GemmLaunch(8, 8, 8, "cublas"), (b.node.node_id,)),
        Unit(2, ElementwiseLaunch(num_elements=64), (c.node.node_id,)),
    ]
    return tr.graph, units


class TestValidateSchedule:
    def test_single_stream_plan_is_clean(self, diamond):
        graph, units = diamond
        lowered = Dispatcher(graph).lower(ExecutionPlan(units=units, profile=False))
        report = validate_schedule(lowered)
        assert report.ok, report.summary()
        assert report.launches == 3
        assert report.dependencies == 2

    def test_cross_stream_plan_is_clean(self, diamond):
        graph, units = diamond
        plan = ExecutionPlan(
            units=units, stream_of={0: 0, 1: 1, 2: 0}, profile=False
        )
        report = validate_schedule(Dispatcher(graph).lower(plan))
        assert report.ok, report.summary()
        assert report.events >= 1

    def test_profiled_plan_is_clean(self, diamond):
        graph, units = diamond
        plan = ExecutionPlan(units=units, stream_of={0: 0, 1: 1, 2: 0}, profile=True)
        report = validate_schedule(Dispatcher(graph).lower(plan))
        assert report.ok, report.summary()

    def test_native_model_deep_validation(self, tiny_scrnn):
        graph = tiny_scrnn.graph
        lowered = Dispatcher(graph).lower(native_plan(graph))
        report = validate_schedule(lowered, deep=True, label="scrnn/native")
        assert report.ok, report.summary()
        assert report.tensors > 0

    def test_round_robin_streams_validate_clean(self, tiny_sublstm):
        graph = tiny_sublstm.graph
        units = build_units(graph)
        plan = ExecutionPlan(
            units=units,
            stream_of={u.unit_id: u.unit_id % 2 for u in units},
            profile=False,
            label="sublstm/rr2",
        )
        report = validate_schedule(Dispatcher(graph).lower(plan))
        assert report.ok, report.summary()
        deps = dependency_edges(graph, plan)
        assert any(
            plan.stream(p) != plan.stream(c) for (p, c) in deps
        ), "round-robin assignment should produce cross-stream edges"

    def test_report_serializes(self, diamond):
        graph, units = diamond
        lowered = Dispatcher(graph).lower(ExecutionPlan(units=units, profile=False))
        payload = validate_schedule(lowered).to_dict()
        assert payload["ok"] is True
        assert payload["launches"] == 3


class TestArenaLayout:
    def test_clean_plan_passes(self, diamond):
        graph, units = diamond
        a, b = units[0].node_ids[0], units[1].node_ids[0]
        allocation = AllocationPlan(
            graph, groups=[ContiguityGroup(node_ids=(a, b), label="ab")]
        )
        report = validate_schedule(
            Dispatcher(graph).lower(
                ExecutionPlan(units=units, allocation=allocation, profile=False)
            )
        )
        assert report.ok, report.summary()

    def test_checker_counts_tensors(self, diamond):
        from repro.check import ValidationReport

        graph, _units = diamond
        report = ValidationReport()
        check_arena_layout(AllocationPlan(graph), report)
        assert report.tensors == len(graph.nodes)
        assert report.ok


class TestValidatedExecution:
    def test_executor_validate_mode_runs_clean_plans(self, diamond):
        graph, units = diamond
        observer = Observer()
        executor = Executor(graph, P100, validate=True, observer=observer)
        result = executor.run(ExecutionPlan(units=units, profile=False))
        assert result.total_time_us > 0
        snap = observer.metrics().snapshot()
        assert snap["check.schedules_validated"]["value"] == 1

    def test_executor_raises_on_broken_schedule(self, diamond):
        from dataclasses import replace

        graph, units = diamond
        observer = Observer()
        executor = Executor(graph, P100, validate=True, observer=observer)
        plan = ExecutionPlan(units=units, stream_of={0: 0, 1: 1, 2: 0}, profile=False)
        lowered = executor.dispatcher.lower(plan)
        for idx, item in enumerate(lowered.items):
            if isinstance(item, LaunchItem) and item.waits:
                lowered.items[idx] = replace(item, waits=())
        with pytest.raises(ScheduleValidationError) as excinfo:
            executor.run_lowered(lowered)
        assert not excinfo.value.report.ok
        snap = observer.metrics().snapshot()
        assert snap["check.violations.raw-race"]["value"] >= 1

    def test_session_validated_exploration(self, tiny_scrnn):
        from repro import AstraSession

        observer = Observer()
        report = AstraSession(
            tiny_scrnn, features="FK", seed=0, validate=True, observer=observer
        ).optimize(max_minibatches=30)
        assert report.speedup_over_native >= 1.0
        snap = observer.metrics().snapshot()
        assert snap["check.schedules_validated"]["value"] > 0
        violation_counters = [
            name for name in snap if name.startswith("check.violations.")
        ]
        assert violation_counters == []
