"""Tests for exploration provenance: the per-variable decision history.

The load-bearing properties:

* **log == index, bit-identically** -- every measurement in the log is
  the exact float the exploration's profile index holds (the hooks sit
  on the same ``_record_measurements`` call that feeds ``finalize``);
* **determinism** -- two runs of one exploration log byte-identical
  decisions, however the session spells its width.
"""

import pytest

from repro import AstraSession
from repro.core.profile_index import mangle
from repro.obs.observer import NULL_OBSERVER, Observer
from repro.obs.provenance import ProvenanceLog
from repro.perf import FastPath


def _explore(model, device, workers=None, fast=None,
             features="FK", budget=400):
    """(report, index snapshot, provenance view) of one observed run."""
    observer = Observer()
    session = AstraSession(
        model, device=device, features=features, seed=0,
        observer=observer, workers=workers, fast=fast,
    )
    report = session.optimize(max_minibatches=budget)
    return report, session.wirer.index.snapshot(), observer.provenance()


class TestHooks:
    def test_candidates_recorded_once(self):
        log = ProvenanceLog()
        log.candidates((), "var", [1, 2, 3])
        log.candidates((), "var", [1, 2])  # later snapshot ignored
        assert log.decision("var").candidates == [1, 2, 3]

    def test_measured_first_write_wins(self):
        log = ProvenanceLog()
        log.candidates((), "var", [1, 2])
        log.measured((), "var", 1, 10.0)
        log.measured((), "var", 1, 99.0)  # replay of the same key
        assert log.decision("var").measurements[1] == 10.0

    def test_winner_is_first_strict_minimum(self):
        log = ProvenanceLog()
        log.candidates((), "var", ["a", "b", "c"])
        log.measured((), "var", "a", 5.0)
        log.measured((), "var", "b", 5.0)   # tie: first in order wins
        log.measured((), "var", "c", 7.0)
        decision = log.decision("var")
        assert decision.winner == "a"
        assert decision.runner_up == "b"
        assert decision.margin_us == pytest.approx(0.0)

    def test_quarantine_flagged(self):
        log = ProvenanceLog()
        log.candidates((), "var", [1, 2])
        log.measured((), "var", 1, 10.0)
        log.quarantined((), "var", 2)
        decision = log.decision("var")
        assert 2 in decision.quarantined
        assert decision.winner == 1

    def test_null_provenance_is_inert(self):
        NULL_OBSERVER.decision("candidates", context=(), name="v", choices=[1])
        NULL_OBSERVER.decision("measure", context=(), name="v", choice=1,
                               value=1.0)
        assert not NULL_OBSERVER.enabled
        assert NULL_OBSERVER.provenance().decisions() == []
        assert NULL_OBSERVER.provenance().to_dict() == {"version": 1, "events": []}


def _assert_log_matches_index(log, index_snapshot) -> None:
    """Every measured value in the log must be the exact float the
    profile index holds for the same (context, name, choice) key."""
    checked = 0
    for decision in log.decisions():
        for choice, value in decision.measurements.items():
            key = mangle(decision.context, (decision.name, choice))
            if key in index_snapshot:
                assert index_snapshot[key] == value, (
                    f"{decision.name} {choice!r}: log holds {value!r}, "
                    f"index holds {index_snapshot[key]!r}"
                )
                checked += 1
    assert checked, "no log measurement mapped onto an index entry"


class TestExplorationProvenance:
    def test_every_fk_variable_has_a_decision(self, tiny_scrnn, device):
        report, _index, log = _explore(tiny_scrnn, device)
        decisions = {d.name: d for d in log.decisions()}
        fusion_vars = [
            name for name in report.astra.assignment if name in decisions
        ]
        assert fusion_vars, "exploration must record fk decisions"

    def test_winner_matches_report_assignment(self, tiny_scrnn, device):
        report, _index, log = _explore(tiny_scrnn, device)
        for decision in log.decisions():
            chosen = report.astra.assignment.get(decision.name)
            if chosen is None or decision.winner is None:
                continue
            assert repr(decision.winner) == repr(chosen), (
                f"{decision.name}: provenance winner {decision.winner!r} "
                f"!= report assignment {chosen!r}"
            )

    def test_serial_log_reproduces_index_bit_identically(
        self, tiny_scrnn, device
    ):
        _report, index, log = _explore(tiny_scrnn, device)
        _assert_log_matches_index(log, index)

    def test_engine_log_invariant_across_worker_counts(
        self, tiny_scrnn, device
    ):
        _report, _index, default = _explore(tiny_scrnn, device)
        _report, _index, one = _explore(tiny_scrnn, device, workers=1)
        assert default.to_dict() == one.to_dict()

    def test_prune_verdicts_recorded_with_estimates(self, tiny_scrnn, device):
        _report, _index, log = _explore(
            tiny_scrnn, device, fast=FastPath(cache=True, prune=True),
        )
        pruned = [
            (d.name, choice, estimate)
            for d in log.decisions()
            for choice, estimate in d.pruned
        ]
        assert pruned, "pruning run must record FK-prune verdicts"
        for _name, _choice, estimate in pruned:
            assert estimate is None or estimate > 0.0

    def test_pruned_run_log_matches_winner_of_report(self, tiny_scrnn, device):
        report, _index, log = _explore(
            tiny_scrnn, device, fast=FastPath(cache=True, prune=True),
        )
        for decision in log.decisions():
            chosen = report.astra.assignment.get(decision.name)
            if chosen is None or decision.winner is None:
                continue
            assert repr(decision.winner) == repr(chosen)

    def test_compare_phase_recorded(self, tiny_scrnn, device):
        _report, _index, log = _explore(
            tiny_scrnn, device, features="all", budget=400
        )
        compares = log.compares()
        assert compares, "the cross-strategy compare phase must be logged"
        decisive = log.decisive()
        assert decisive, "decisive() must summarize at least one variable"
        assert any(entry["winner"] is not None for entry in decisive.values())


class TestSerialization:
    def test_round_trip(self, tiny_scrnn, device):
        _report, _index, log = _explore(tiny_scrnn, device)
        restored = ProvenanceLog.from_dict(log.to_dict())
        assert restored.to_dict() == log.to_dict()
        assert len(restored.decisions()) == len(log.decisions())

    def test_report_serialization_carries_provenance(self, tiny_scrnn, device):
        import json

        from repro.serialize import report_to_dict

        report, _index, log = _explore(tiny_scrnn, device)
        doc = report_to_dict(report.astra)
        assert doc["provenance"] is not None
        json.dumps(doc)
        restored = ProvenanceLog.from_dict(doc["provenance"])
        assert restored.to_dict() == log.to_dict()

    def test_render_names_winner_and_runner_up(self, tiny_scrnn, device):
        report, _index, log = _explore(tiny_scrnn, device)
        text = log.render(assignment=report.astra.assignment)
        assert "winner" in text
        assert "runner-up" in text
