"""Tests for the custom-wirer and the public AstraSession API."""

import pytest

from repro import AstraSession
from repro.core import AstraFeatures, CustomWirer, ProfileIndex
from repro.gpu import CLOCK_AUTOBOOST, P100
from repro.models import build_sublstm
from tests.conftest import SMALL, TINY


@pytest.fixture(scope="module")
def fk_report(small_sublstm):
    session = AstraSession(small_sublstm, features="FK", seed=1)
    return session.optimize()


class TestOptimization:
    def test_speedup_over_native(self, fk_report):
        assert fk_report.speedup_over_native > 1.0

    def test_feature_ordering(self, small_sublstm):
        """More adaptation dimensions never hurt the final plan."""
        times = {}
        for preset in ("F", "FK", "FKS"):
            rep = AstraSession(small_sublstm, features=preset, seed=1).optimize()
            times[preset] = rep.best_time_us
        assert times["FK"] <= times["F"] * 1.001
        assert times["FKS"] <= times["FK"] * 1.001

    def test_work_conserving_exploration(self, fk_report):
        """Every exploration config is a full training mini-batch; the
        count is reported (Table 7's unit of measure)."""
        assert fk_report.configs_explored >= 2

    def test_best_plan_runs_without_profiling(self, fk_report):
        assert fk_report.astra.best_plan.profile is False

    def test_profiling_overhead_below_paper_bound(self):
        """Section 6.4: profiling overhead < 0.5%, so it can be always on.
        Measured at paper-scale shapes (toy models inflate the relative
        cost of event marking)."""
        import repro.models.sublstm as SU

        model = build_sublstm(SU.DEFAULT_CONFIG.scaled(batch_size=16, seq_len=4))
        rep = AstraSession(model, features="FK", seed=1).optimize()
        assert rep.astra.profiling_overhead < 0.005

    def test_exploration_is_deterministic(self, small_sublstm):
        r1 = AstraSession(small_sublstm, features="FK", seed=1).optimize()
        r2 = AstraSession(small_sublstm, features="FK", seed=1).optimize()
        assert r1.best_time_us == r2.best_time_us
        assert r1.configs_explored == r2.configs_explored

    def test_budget_respected(self, small_sublstm):
        rep = AstraSession(small_sublstm, features="FKS", seed=1).optimize(
            max_minibatches=5
        )
        assert rep.configs_explored <= 5 + 2 * 2  # + per-strategy best runs

    def test_budget_floors_every_phase_at_one(self, tiny_sublstm):
        """A budget of one still lets each strategy's fk and stream phases
        measure a configuration, and its compare phase is not budgeted:
        the budget is a floor per phase, not a cap on the run."""
        session = AstraSession(tiny_sublstm, features="all", seed=0)
        rep = session.optimize(max_minibatches=1)
        phases = {p.name: p.minibatches for p in rep.astra.phases}
        labels = [s.label for s in session.wirer.enumerator.strategies]
        assert len(labels) == 2
        for label in labels:
            assert phases[f"fk/{label}"] >= 1
            assert phases[f"streams/{label}"] >= 1
            assert phases[f"compare/{label}"] == 2  # fk and stream candidates
        assert rep.configs_explored == sum(phases.values())

    def test_assignment_reported(self, fk_report):
        assert any(k.startswith("fusion:") for k in fk_report.astra.assignment)


class TestProfileIndexUse:
    def test_index_shared_across_wirers(self, small_sublstm):
        """A pre-warmed index eliminates re-measurement (section 4.6)."""
        index = ProfileIndex()
        w1 = CustomWirer(
            small_sublstm.graph, P100, AstraFeatures.preset("FK"), index=index
        )
        r1 = w1.optimize()
        w2 = CustomWirer(
            small_sublstm.graph, P100, AstraFeatures.preset("FK"), index=index
        )
        r2 = w2.optimize()
        assert r2.configs_explored < r1.configs_explored

    def test_contexts_isolate_measurements(self, small_sublstm):
        index = ProfileIndex()
        w1 = CustomWirer(
            small_sublstm.graph, P100, AstraFeatures.preset("F"),
            context=("bucket", 0), index=index,
        )
        w1.optimize()
        entries_after_first = len(index)
        w2 = CustomWirer(
            small_sublstm.graph, P100, AstraFeatures.preset("F"),
            context=("bucket", 1), index=index,
        )
        w2.optimize()
        assert len(index) > entries_after_first

    def test_phase_stats_reported(self, small_sublstm):
        rep = AstraSession(small_sublstm, features="FKS", seed=1).optimize()
        names = [p.name for p in rep.astra.phases]
        assert any(n.startswith("fk/") for n in names)
        assert any(n.startswith("streams/") for n in names)


class TestAllocationFork:
    def test_all_explores_multiple_strategies(self, small_sublstm):
        rep = AstraSession(small_sublstm, features="all", seed=1).optimize()
        assert len(rep.astra.strategy_times) >= 2

    def test_best_strategy_is_argmin(self, small_sublstm):
        rep = AstraSession(small_sublstm, features="all", seed=1).optimize()
        best = rep.astra.best_strategy.strategy_id
        assert rep.astra.strategy_times[best] == min(rep.astra.strategy_times.values())

    def test_all_never_worse_than_fks(self, small_sublstm):
        fks = AstraSession(small_sublstm, features="FKS", seed=1).optimize()
        alla = AstraSession(small_sublstm, features="all", seed=1).optimize()
        assert alla.best_time_us <= fks.best_time_us * 1.001


class TestRobustness:
    def test_autoboost_degrades_adaptation(self):
        """Section 7: fine-grained profiling needs predictable execution.
        Under autoboost jitter the wirer's measurements are noisy, and the
        resulting plan (evaluated on a deterministic device) is no better
        -- usually worse -- than the one found at base clock."""
        model = build_sublstm(SMALL)
        base_rep = AstraSession(model, features="FK", seed=3).optimize()
        jittery = AstraSession(
            model, device=P100.with_clock(CLOCK_AUTOBOOST), features="FK", seed=3
        ).optimize()
        # evaluate both final plans on the deterministic device
        from repro.runtime import Executor

        base_time = Executor(model.graph, P100).run(base_rep.astra.best_plan).total_time_us
        jitter_time = Executor(model.graph, P100).run(jittery.astra.best_plan).total_time_us
        assert base_time <= jitter_time * 1.02

    def test_inference_graph_optimizable(self):
        model = build_sublstm(TINY.scaled(train=False))
        rep = AstraSession(model, features="F", seed=0).optimize()
        assert rep.speedup_over_native >= 1.0


class TestObservability:
    """The obs hooks observe the exploration; they must never steer it."""

    def test_disabled_observability_changes_nothing(self, tiny_sublstm):
        from repro.obs import NULL_OBSERVER, Observer

        plain = AstraSession(tiny_sublstm, features="FK", seed=2).optimize()
        assert NULL_OBSERVER.events == []  # the default records nothing
        observed = AstraSession(
            tiny_sublstm, features="FK", seed=2, observer=Observer(),
        ).optimize()
        assert observed.best_time_us == plain.best_time_us
        assert observed.configs_explored == plain.configs_explored
        assert observed.astra.timeline == plain.astra.timeline
        assert observed.astra.assignment == plain.astra.assignment

    def test_metrics_agree_with_report(self, tiny_sublstm):
        from repro.obs import Observer

        observer = Observer()
        rep = AstraSession(
            tiny_sublstm, features="FK", seed=0, observer=observer
        ).optimize()
        metrics = observer.metrics()
        astra = rep.astra
        assert metrics.counter("astra.configs_explored").value == astra.configs_explored
        assert metrics.gauge("astra.best_time_us").value == astra.best_time_us
        assert metrics.gauge("profile_index.entries").value == astra.profile_entries
        for phase in astra.phases:
            gauge = metrics.gauge(f"astra.index_hit_rate.{phase.name}")
            assert gauge.value == pytest.approx(phase.index_hit_rate)
            hits = metrics.counter(f"astra.index_hits.{phase.name}").value
            assert hits == phase.index_hits

    def test_best_so_far_series_is_non_increasing(self, tiny_sublstm):
        from repro.obs import Observer

        observer = Observer()
        AstraSession(
            tiny_sublstm, features="FK", seed=0, observer=observer
        ).optimize()
        metrics = observer.metrics()
        values = [v for _s, v in metrics.series("astra.best_so_far_us").points]
        assert values == sorted(values, reverse=True)
        assert len(values) >= 2

    def test_phase_stats_hit_rate(self):
        from repro.core import PhaseStats

        stats = PhaseStats(name="fk", minibatches=3, index_hits=1)
        assert stats.index_hit_rate == pytest.approx(0.25)
        assert PhaseStats(name="empty").index_hit_rate == 0.0

    def test_shared_index_raises_hit_rate_on_rerun(self, tiny_sublstm):
        """Re-optimizing with a warm profile index should answer phases
        from the index -- visible in the new hit-rate metric."""
        index = ProfileIndex()
        first = AstraSession(
            tiny_sublstm, features="FK", seed=0, index=index
        ).optimize()
        second = AstraSession(
            tiny_sublstm, features="FK", seed=0, index=index
        ).optimize()
        cold = [p.index_hit_rate for p in first.astra.phases]
        warm = [p.index_hit_rate for p in second.astra.phases]
        assert all(w >= c for w, c in zip(warm, cold))
        assert any(w > 0 for w in warm)
