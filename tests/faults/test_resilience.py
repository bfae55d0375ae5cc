"""End-to-end resilience: retry, quarantine, OOM pruning, degradation,
and fault accounting through the full exploration."""

import pytest

from repro.core import ROBUST, QUARANTINED_US, MeasurementPolicy
from repro.core.session import AstraSession
from repro.faults import (
    FAULT_EVENT_DROP,
    FAULT_LAUNCH,
    FAULT_OOM,
    FAULT_SLOWDOWN,
    FaultPlan,
    FaultSpec,
    FaultWindow,
)
from repro.obs import Observer


def run_faulty(model, faults, policy=ROBUST, budget=40, seed=0, **kwargs):
    observer = Observer()
    session = AstraSession(
        model, features="all", seed=seed, policy=policy, faults=faults,
        observer=observer, **kwargs,
    )
    report = session.optimize(max_minibatches=budget)
    return report, session, observer.metrics(), observer.report()


class TestRetry:
    def test_transient_launch_failures_retried(self, tiny_scrnn):
        faults = FaultPlan.single(FAULT_LAUNCH, rate=0.004, seed=0)
        report, session, metrics, _rep = run_faulty(tiny_scrnn, faults)
        snap = metrics.snapshot()
        assert snap["fault.injected.launch_fail"]["value"] > 0
        assert snap["recovery.retries"]["value"] > 0
        assert snap["recovery.retries_succeeded"]["value"] > 0
        # retried schedules are re-validated through repro.check
        assert snap["recovery.revalidated"]["value"] > 0
        assert report.speedup_over_native >= 1.0

    def test_recovers_clean_run_optimum(self, tiny_scrnn):
        """Recovery quality: with sparse transient faults, the exploration
        still converges to the plan a fault-free run finds."""
        clean = AstraSession(tiny_scrnn, features="all", seed=0).optimize(
            max_minibatches=40
        )
        faults = FaultPlan.single(FAULT_LAUNCH, rate=0.004, seed=0)
        report, session, _m, _r = run_faulty(tiny_scrnn, faults)
        clean_eval = session.measure_clean(report.astra.best_plan)
        assert clean_eval <= clean.best_time_us * 1.001


class TestQuarantine:
    def test_persistent_faults_quarantine_configs(self, tiny_scrnn):
        # every launch fails: every measurement fails, every configuration
        # is eventually quarantined, and the run degrades to native
        faults = FaultPlan.single(FAULT_LAUNCH, rate=1.0, seed=0)
        policy = MeasurementPolicy(samples=1, max_attempts=2, quarantine_after=1)
        report, session, metrics, reporter = run_faulty(
            tiny_scrnn, faults, policy=policy, budget=10
        )
        snap = metrics.snapshot()
        assert snap["recovery.quarantined"]["value"] > 0
        assert snap["recovery.measurements_failed"]["value"] > 0
        assert report.astra.degraded
        assert report.speedup_over_native == pytest.approx(1.0)
        # quarantined keys carry the sentinel, never a fake measurement
        quarantined = [
            v for v in session.wirer.index._store.values()
            if v.value == QUARANTINED_US
        ]
        assert quarantined

    def test_degraded_report_states_it(self, tiny_scrnn):
        faults = FaultPlan.single(FAULT_LAUNCH, rate=1.0, seed=0)
        policy = MeasurementPolicy(samples=1, max_attempts=2, quarantine_after=1)
        report, _s, _m, reporter = run_faulty(
            tiny_scrnn, faults, policy=policy, budget=10
        )
        kinds = {r.assignment_delta.get("fault") for r in reporter.faults()}
        assert "degradation" in kinds
        assert report.astra.best_plan.label.startswith("native")


class TestOOMPruning:
    def test_strategies_pruned_and_degraded(self, tiny_scrnn):
        faults = FaultPlan(specs=(
            FaultSpec(FAULT_OOM, mem_limit_bytes=1, window=FaultWindow()),
        ))
        report, _s, metrics, _r = run_faulty(tiny_scrnn, faults, budget=20)
        snap = metrics.snapshot()
        assert snap["recovery.strategies_pruned"]["value"] >= 1
        # no arena fits 1 byte: the wirer degrades to the arena-less
        # native plan instead of failing
        assert report.astra.degraded
        assert report.astra.best_plan.allocation is None
        assert report.speedup_over_native == pytest.approx(1.0)

    def test_oom_prune_costs_no_minibatches(self, tiny_scrnn):
        """Proactive pruning: an oversized arena is rejected statically,
        before a single exploration mini-batch is spent on the strategy."""
        faults = FaultPlan(specs=(
            FaultSpec(FAULT_OOM, mem_limit_bytes=1, window=FaultWindow()),
        ))
        report, _s, _m, _r = run_faulty(tiny_scrnn, faults, budget=20)
        assert report.astra.configs_explored == 0


class TestRobustMeasurement:
    def test_slowdown_noise_survived(self, tiny_scrnn):
        """Transient stragglers inflate random samples; min-of-k keeps the
        exploration's ranking intact and the final plan competitive."""
        clean = AstraSession(tiny_scrnn, features="all", seed=0).optimize(
            max_minibatches=40
        )
        faults = FaultPlan.single(FAULT_SLOWDOWN, rate=0.3, seed=0, factor=6.0)
        report, session, metrics, _r = run_faulty(tiny_scrnn, faults)
        assert metrics.snapshot()["fault.injected.slowdown"]["value"] > 0
        clean_eval = session.measure_clean(report.astra.best_plan)
        assert clean_eval <= clean.best_time_us * 1.05
        assert not report.astra.degraded


class TestFaultAccounting:
    def test_ledger_metrics_and_report_agree(self, tiny_scrnn):
        faults = FaultPlan.single(FAULT_EVENT_DROP, rate=0.05, seed=0)
        report, session, metrics, reporter = run_faulty(tiny_scrnn, faults)
        injector = session.wirer.injector
        injected = injector.summary()["injected"]
        assert injected.get("event_drop", 0) > 0
        # view 1: the AstraReport's fault summary
        assert report.astra.fault_summary["injected"] == injected
        # view 2: fault.injected.* gauges
        snap = metrics.snapshot()
        for kind, count in injected.items():
            assert snap[f"fault.injected.{kind}"]["value"] == count
        # view 3: the run report carries fault records for each kind
        recorded = {r.assignment_delta.get("fault") for r in reporter.faults()}
        assert set(injected) <= recorded

    def test_surfaced_faults_counted(self, tiny_scrnn):
        faults = FaultPlan.single(FAULT_EVENT_DROP, rate=0.05, seed=0)
        _report, _s, metrics, _r = run_faulty(tiny_scrnn, faults)
        snap = metrics.snapshot()
        # executor-level taint counter and wirer-level surfaced counter
        assert snap["fault.event_drop"]["value"] > 0
        assert snap["fault.surfaced.event_drop"]["value"] > 0


class TestCleanRunUnchanged:
    def test_no_faults_no_policy_identical_to_baseline(self, tiny_scrnn):
        """The hardening must be invisible when disabled: same seed, same
        exploration, same report as a wirer without any fault plumbing."""
        plain = AstraSession(tiny_scrnn, features="all", seed=0).optimize(
            max_minibatches=40
        )
        hardened = AstraSession(
            tiny_scrnn, features="all", seed=0, faults=FaultPlan.none(),
        ).optimize(max_minibatches=40)
        assert hardened.best_time_us == plain.best_time_us
        assert hardened.configs_explored == plain.configs_explored
        assert hardened.astra.assignment == plain.astra.assignment
        assert not hardened.astra.degraded


class TestDefectiveSchedule:
    def test_violations_recorded_before_the_error(self, tiny_scrnn, monkeypatch):
        """A retry that finds the schedule defective: the aborted
        attempt's fault and retry are accounted first, then one violation
        record per problem, and then the error propagates, uncharged."""
        from repro.baselines.native import native_plan
        from repro.check import ScheduleValidationError
        from repro.check.violations import RAW_RACE, ValidationReport, Violation
        from repro.core.enumerator import AstraFeatures
        from repro.core.wirer import CustomWirer
        from repro.faults.events import KernelLaunchError
        from repro.gpu import P100
        from repro.runtime.executor import Executor

        observer = Observer()
        wirer = CustomWirer(
            tiny_scrnn.graph, P100, AstraFeatures.preset("F"), observer=observer,
        )
        defect = ValidationReport(
            violations=[
                Violation(RAW_RACE, (1, 2), "u1 before u2"),
                Violation(RAW_RACE, (3, 4), "u3 before u4"),
            ],
            label="probe-plan",
        )
        validated = []

        def run(self, plan, validate=None):
            validated.append(validate)
            if len(validated) == 1:
                raise KernelLaunchError("gemm_k7", minibatch=0)
            raise ScheduleValidationError(defect)

        monkeypatch.setattr(Executor, "run", run)
        plan = native_plan(tiny_scrnn.graph)
        plan.label = "probe-plan"
        stats = wirer._phase_stats("probe")
        with pytest.raises(ScheduleValidationError):
            wirer._measure(plan, ("ctx",), "probe", stats)
        assert validated == [None, True]  # the retry re-validates
        assert [r.kind for r in observer.report().records] == [
            "fault", "violation", "violation",
        ]
        counters = observer.metrics().snapshot()
        assert counters["recovery.retries"]["value"] == 1
        assert "recovery.retries_succeeded" not in counters
        assert stats.minibatches == 0 and wirer._spent_this_run == 0
