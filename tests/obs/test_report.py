"""Tests for JSON-lines run reports and the summary document."""

import json
import math

import pytest

from repro import AstraSession
from repro.obs import (
    KIND_EXPLORE,
    KIND_PRODUCTION,
    NULL_OBSERVER,
    Observer,
    RunReporter,
)


class TestReporter:
    def test_best_so_far_is_running_min(self):
        rep = RunReporter()
        for t in (10.0, 12.0, 8.0, 9.0):
            rep.minibatch("fk", t)
        assert [r.best_so_far_us for r in rep.records] == [10.0, 10.0, 8.0, 8.0]
        assert rep.convergence_curve() == [(0, 10.0), (1, 10.0), (2, 8.0), (3, 8.0)]

    def test_assignment_delta_reprs_values(self):
        rep = RunReporter()
        rep.minibatch("fk", 1.0, assignment_delta={"lib": "cublas", "chunk": 4})
        delta = rep.records[0].assignment_delta
        assert delta == {"lib": "'cublas'", "chunk": "4"}

    def test_write_jsonl(self, tmp_path):
        rep = RunReporter()
        rep.minibatch("fk", 10.0)
        path = tmp_path / "run.jsonl"
        rep.write_jsonl(path)
        lines = path.read_text().strip().splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["phase"] == "fk"

    def test_empty_reporter(self):
        rep = RunReporter()
        assert rep.best_so_far() == math.inf
        assert rep.jsonl() == ""

    def test_null_reporter_records_nothing(self):
        NULL_OBSERVER.minibatch("fk", KIND_EXPLORE, 10.0, (), {}, 10.0)
        assert NULL_OBSERVER.report().records == []
        assert not NULL_OBSERVER.enabled


class TestSummary:
    @pytest.fixture(scope="class")
    def run(self, tiny_sublstm):
        observer = Observer()
        session = AstraSession(
            tiny_sublstm, features="FK", seed=0, observer=observer,
        )
        report = session.optimize(max_minibatches=40)
        return report, observer.metrics(), observer.report()

    def test_summary_has_convergence_curve_and_hit_rates(self, run):
        report, metrics, reporter = run
        doc = reporter.summary(report.astra, native_time_us=report.native_time_us,
                               metrics=metrics)
        assert doc["minibatches"] == len(reporter.records)
        curve = doc["convergence_curve"]
        assert len(curve) == len(reporter.records)
        best = [v for _s, v in curve]
        assert best == sorted(best, reverse=True)  # non-increasing
        assert all("index_hit_rate" in p for p in doc["phases"])
        assert doc["speedup_over_native"] == pytest.approx(
            report.speedup_over_native
        )
        assert "profile_index.hit_rate" in doc["metrics"]

    def test_summary_is_json_serializable(self, run):
        report, metrics, reporter = run
        doc = reporter.summary(report.astra, metrics=metrics)
        json.dumps(doc)

    def test_one_record_per_explored_minibatch(self, run):
        report, _metrics, reporter = run
        explored = [r for r in reporter.records if r.kind != KIND_PRODUCTION]
        assert len(explored) == report.astra.configs_explored
        assert sum(1 for r in reporter.records if r.kind == KIND_PRODUCTION) == 1

    def test_records_carry_phase_and_context(self, run):
        report, _metrics, reporter = run
        phase_names = {p.name for p in report.astra.phases}
        explore = [r for r in reporter.records if r.kind == KIND_EXPLORE]
        assert explore
        assert all(r.phase in phase_names for r in explore)
        assert all(r.context for r in reporter.records)

    def test_first_record_has_full_assignment_delta(self, run):
        _report, _metrics, reporter = run
        assert reporter.records[0].assignment_delta
