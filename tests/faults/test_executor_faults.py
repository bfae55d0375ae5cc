"""Tests for the executor's typed fault surface: aborting faults raise,
measurement faults taint-and-withhold -- never silently-wrong numbers."""

import pytest

from repro.baselines.native import native_plan
from repro.core import Enumerator, AstraFeatures
from repro.faults import (
    FAULT_EVENT_CORRUPT,
    FAULT_EVENT_DROP,
    FAULT_LAUNCH,
    FAULT_OOM,
    DeviceOOMError,
    FaultPlan,
    FaultSpec,
    FaultWindow,
    KernelLaunchError,
    PreemptionError,
)
from repro.gpu import P100
from repro.obs import Observer
from repro.runtime import Executor


def astra_plan(model, profile=True):
    """A profiled, arena-backed plan (native plans profile nothing)."""
    enum = Enumerator(model.graph, P100, AstraFeatures.preset("F"))
    built = enum.build_plan(enum.strategies[0], {})
    return built.plan


class TestLaunchFailure:
    def test_raises_and_counts(self, tiny_scrnn):
        plan = FaultPlan(specs=(FaultSpec(FAULT_LAUNCH, rate=1.0),))
        observer = Observer()
        ex = Executor(tiny_scrnn.graph, P100, observer=observer,
                      injector=plan.injector())
        with pytest.raises(KernelLaunchError) as exc:
            ex.run(native_plan(tiny_scrnn.graph))
        assert exc.value.transient
        snap = observer.metrics().snapshot()
        assert snap["fault.launch_fail"]["value"] == 1
        assert snap["fault.minibatches_lost"]["value"] == 1

    def test_clean_run_unaffected_by_zero_rate(self, tiny_scrnn):
        plan = FaultPlan(specs=(FaultSpec(FAULT_LAUNCH, rate=0.0),))
        ex = Executor(tiny_scrnn.graph, P100, injector=plan.injector())
        clean = Executor(tiny_scrnn.graph, P100)
        assert (ex.run(native_plan(tiny_scrnn.graph)).total_time_us
                == clean.run(native_plan(tiny_scrnn.graph)).total_time_us)


class TestEventFaults:
    def test_dropped_timestamps_withheld_not_zero(self, tiny_scrnn):
        plan = FaultPlan(specs=(FaultSpec(FAULT_EVENT_DROP, rate=1.0),))
        observer = Observer()
        ex = Executor(tiny_scrnn.graph, P100, observer=observer,
                      injector=plan.injector())
        plan_under_test = astra_plan(tiny_scrnn)
        result = ex.run(plan_under_test)
        clean = Executor(tiny_scrnn.graph, P100).run(plan_under_test)
        # every *profiled* timestamp was lost: those measurements are
        # withheld (absent), not zero/garbage; unprofiled units keep their
        # simulator-ground-truth times
        profiled = set(plan_under_test.profile_unit_ids)
        assert profiled
        assert result.tainted
        assert {f.kind for f in result.faults} == {FAULT_EVENT_DROP}
        tainted_ids = {f.unit_id for f in result.faults}
        assert tainted_ids == profiled & set(clean.unit_times)
        assert set(result.unit_times).isdisjoint(tainted_ids)
        assert set(result.unit_times) | tainted_ids == set(clean.unit_times)
        assert observer.metrics().snapshot()["fault.event_drop"]["value"] == len(tainted_ids)
        # the mini-batch itself still ran (work-conserving)
        assert result.total_time_us == pytest.approx(clean.total_time_us)

    def test_implausible_corruption_detected(self, tiny_scrnn):
        # factor large enough that most corruptions land outside the
        # mini-batch envelope and are caught by the plausibility check
        plan = FaultPlan(
            specs=(FaultSpec(FAULT_EVENT_CORRUPT, rate=1.0, factor=1e6),),
            seed=0,
        )
        observer = Observer()
        ex = Executor(tiny_scrnn.graph, P100, observer=observer,
                      injector=plan.injector())
        result = ex.run(astra_plan(tiny_scrnn))
        detected = [f for f in result.faults if f.kind == FAULT_EVENT_CORRUPT]
        assert detected
        for fault in detected:
            assert fault.unit_id not in result.unit_times
        assert observer.metrics().snapshot()["fault.event_corrupt_detected"]["value"] == len(
            detected
        )

    def test_plausible_corruption_survives_for_mad(self, tiny_scrnn):
        """Small corruption factors stay inside the envelope: the value is
        wrong but plausible, exactly what min-of-k/MAD exists to catch."""
        plan = FaultPlan(
            specs=(FaultSpec(FAULT_EVENT_CORRUPT, rate=1.0, factor=1.2),),
            seed=0,
        )
        ex = Executor(tiny_scrnn.graph, P100, injector=plan.injector())
        result = ex.run(astra_plan(tiny_scrnn))
        clean = Executor(tiny_scrnn.graph, P100).run(astra_plan(tiny_scrnn))
        assert result.unit_times  # not withheld
        assert result.unit_times != pytest.approx(clean.unit_times)

    def test_tainted_epochs_withheld(self, tiny_sublstm):
        enum = Enumerator(tiny_sublstm.graph, P100, AstraFeatures.preset("FKS"))
        strategy = enum.strategies[0]
        tree = enum.build_fk_tree(strategy)
        partition, stree = enum.prepare_stream_phase(strategy, tree.assignment())
        built = enum.build_plan(
            strategy, tree.assignment(),
            stream_options={
                var.payload[0]: var.payload[1].options[var.value]
                for var in stree.variables()
            },
            partition=partition,
        )
        clean = Executor(tiny_sublstm.graph, P100).run(built.plan)
        plan = FaultPlan(specs=(FaultSpec(FAULT_EVENT_DROP, rate=1.0),))
        faulty = Executor(tiny_sublstm.graph, P100,
                          injector=plan.injector()).run(built.plan)
        assert clean.epoch_metrics
        assert faulty.epoch_metrics == {}


class TestDeviceOOM:
    def test_arena_over_capacity_raises(self, tiny_scrnn):
        plan = FaultPlan(specs=(
            FaultSpec(FAULT_OOM, mem_limit_bytes=1, window=FaultWindow()),
        ))
        observer = Observer()
        ex = Executor(tiny_scrnn.graph, P100, observer=observer,
                      injector=plan.injector())
        with pytest.raises(DeviceOOMError) as exc:
            ex.run(astra_plan(tiny_scrnn))
        assert not exc.value.transient
        assert exc.value.capacity_bytes == 1
        assert observer.metrics().snapshot()["fault.oom"]["value"] == 1

    def test_native_plan_never_ooms(self, tiny_scrnn):
        """The native plan carries no arena, so even a 1-byte device cap
        cannot abort it -- the degradation fallback is always runnable."""
        plan = FaultPlan(specs=(FaultSpec(FAULT_OOM, mem_limit_bytes=1),))
        ex = Executor(tiny_scrnn.graph, P100, injector=plan.injector())
        ex.run(native_plan(tiny_scrnn.graph))  # must not raise

    def test_capacity_enforced_without_injector(self, tiny_scrnn):
        """GPUSpec.memory_bytes is a real device limit, not only a fault
        knob: a plan whose arena exceeds it aborts on a clean executor."""
        from dataclasses import replace

        small_device = replace(P100, memory_bytes=1)
        ex = Executor(tiny_scrnn.graph, small_device)
        with pytest.raises(DeviceOOMError):
            ex.run(astra_plan(tiny_scrnn))


class TestPreemptionAtBoundary:
    def test_preemption_fires_between_minibatches(self, tiny_scrnn):
        plan = FaultPlan(specs=(FaultSpec("preempt", at=2),))
        ex = Executor(tiny_scrnn.graph, P100, injector=plan.injector())
        native = native_plan(tiny_scrnn.graph)
        ex.run(native)
        ex.run(native)
        with pytest.raises(PreemptionError):
            ex.run(native)
