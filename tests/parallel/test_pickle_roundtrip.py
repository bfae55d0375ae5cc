"""Pickle round-trip safety for measurement values, plans and errors.

The fleet search's process pool ships worker-side exceptions back to the
caller, so those must survive a copy through pickle unchanged.
Single-job exploration measures in the caller and pickles nothing, but a
measured configuration's values -- :class:`ExecutionPlan`,
:class:`LoweredSchedule` and :class:`MiniBatchResult` -- are pinned to
round-trip as well.  A type that pickles lossily corrupts measurements
*silently*, so round-trips are pinned both property-style (hypothesis
over the value-carrying fields) and on real enumerator-built plans (a
round-tripped plan must execute bit-identically to the original).
"""

import pickle

import pytest
from hypothesis import given, settings, strategies as st

from repro.check import ScheduleValidationError
from repro.check.violations import RAW_RACE, ValidationReport, Violation
from repro.core.enumerator import AstraFeatures, Enumerator
from repro.faults.events import DeviceOOMError, KernelLaunchError
from repro.gpu import P100
from repro.runtime.executor import Executor, MiniBatchResult

finite = st.floats(allow_nan=False, allow_infinity=False, width=64)


def roundtrip(obj):
    return pickle.loads(pickle.dumps(obj))


results = st.builds(
    MiniBatchResult,
    total_time_us=finite,
    cpu_time_us=finite,
    profiling_overhead_us=finite,
    unit_times=st.dictionaries(st.integers(0, 2**31), finite, max_size=8),
    epoch_metrics=st.dictionaries(
        st.tuples(st.integers(0, 50), st.integers(0, 50)), finite, max_size=4
    ),
    raw=st.none(),
    faults=st.just([]),
)

class TestValueRoundTrips:
    @given(result=results)
    @settings(max_examples=50, deadline=None)
    def test_minibatch_result(self, result):
        clone = roundtrip(result)
        assert clone == result
        assert clone.profiling_overhead_fraction == result.profiling_overhead_fraction


class TestErrorRoundTrips:
    def test_schedule_validation_error_keeps_report(self):
        report = ValidationReport(
            violations=[Violation(RAW_RACE, (1, 2), "u1 before u2")],
            launches=3, dependencies=4, events=1, tensors=2, label="plan-x",
        )
        clone = roundtrip(ScheduleValidationError(report))
        assert isinstance(clone, ScheduleValidationError)
        assert clone.report.label == "plan-x"
        assert clone.report.kinds() == {RAW_RACE}
        assert str(clone) == str(ScheduleValidationError(report))

    def test_launch_error_round_trips(self):
        err = KernelLaunchError("gemm_k7", minibatch=12)
        clone = roundtrip(err)
        assert isinstance(clone, KernelLaunchError)
        assert clone.label == "gemm_k7"
        assert clone.minibatch == 12
        assert clone.transient is True

    def test_oom_error_round_trips(self):
        err = DeviceOOMError(2**34, 2**33, minibatch=4)
        clone = roundtrip(err)
        assert isinstance(clone, DeviceOOMError)
        assert (clone.arena_bytes, clone.capacity_bytes) == (2**34, 2**33)
        assert clone.transient is False


class TestPlanRoundTrips:
    @pytest.fixture(scope="class")
    def built(self, tiny_scrnn):
        enum = Enumerator(tiny_scrnn.graph, P100, AstraFeatures.preset("FK"))
        strategy = enum.strategies[0]
        tree = enum.build_fk_tree(strategy)
        return enum.build_plan(strategy, tree.assignment())

    def test_execution_plan_executes_identically(self, tiny_scrnn, built):
        clone = roundtrip(built.plan)
        assert clone.label == built.plan.label
        assert [u.node_ids for u in clone.units] == [
            u.node_ids for u in built.plan.units
        ]
        original = Executor(tiny_scrnn.graph, P100, seed=3).run(built.plan)
        replayed = Executor(tiny_scrnn.graph, P100, seed=3).run(clone)
        assert replayed.total_time_us == original.total_time_us
        assert replayed.unit_times == original.unit_times

    def test_lowered_schedule_round_trips(self, tiny_scrnn, built):
        from repro.runtime.dispatcher import Dispatcher

        lowered = Dispatcher(tiny_scrnn.graph).lower(built.plan)
        clone = roundtrip(lowered)
        assert clone.unit_record_index == lowered.unit_record_index
        assert clone.unit_stream == lowered.unit_stream
        assert len(clone.items) == len(lowered.items)
        assert clone.record_units == lowered.record_units
