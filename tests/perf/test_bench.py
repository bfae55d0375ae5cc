"""The ``repro bench`` harness: document schema and exactness gates.

Deliberately absent: any assertion on the configs/sec *ratio* -- wall
clock on a shared test machine is noise, and the ratio gate belongs to
the full-scale ``repro bench`` run, not the unit suite.  What is pinned:
the schema, the winner-equivalence verdicts, cache effectiveness, and
the failure wiring.
"""

import json

import pytest

from repro.perf.bench import (
    PRIMARY_VARIANT,
    bench_model,
    render_bench,
    timed_session_run,
)
from repro.perf.ranker import FastPath


@pytest.fixture(scope="module")
def quick_doc():
    return bench_model("scrnn", batch=4, seq_len=3, budget=200, quick=True)


class TestBenchModel:
    def test_quick_doc_schema_and_ok(self, quick_doc):
        doc = quick_doc
        assert doc["ok"] is True
        assert doc["failures"] == []
        assert doc["quick"] is True
        assert doc["model"] == "scrnn"
        assert doc["primary_variant"] == PRIMARY_VARIANT
        assert set(doc["variants"]) == {PRIMARY_VARIANT}
        json.dumps(doc)  # fully serializable as-is

    def test_variant_record_fields(self, quick_doc):
        vdoc = quick_doc["variants"][PRIMARY_VARIANT]
        assert vdoc["winner_match"] is True
        assert vdoc["assignment_match"] is True
        assert vdoc["best_time_match"] is True
        assert vdoc["cache_hit_rate"] > 0.0
        for leg in ("baseline", "fast"):
            rec = vdoc[leg]
            assert rec["wall_s"] > 0
            assert rec["choices_total"] > 0
            assert rec["configs_per_sec"] > 0
            assert rec["best_time_us"] > 0
            # exclusive phase accounting: phases sum to the timed wall
            assert sum(rec["phases_s"].values()) == pytest.approx(
                rec["wall_s"], rel=0.05, abs=0.05
            )
        assert vdoc["baseline"]["cache"] is None
        assert vdoc["fast"]["cache"]["hit_rate"] > 0.0
        assert vdoc["fast"]["choices_pruned"] > 0
        assert vdoc["baseline"]["choices_pruned"] == 0
        # same search space on both legs: the ratio numerator is shared
        assert vdoc["baseline"]["choices_total"] == vdoc["fast"]["choices_total"]

    def test_warm_leg_fields_and_gates(self, quick_doc):
        """The warm leg (docs/serving.md) runs even in quick mode, and
        its deterministic gates held: identical winner, at most half the
        cold measurements, non-zero seeding."""
        vdoc = quick_doc["variants"][PRIMARY_VARIANT]
        warm = vdoc["warm"]
        assert warm["wall_s"] > 0
        assert warm["warm"]["seeded_entries"] > 0
        assert vdoc["warm_seeded_entries"] == warm["warm"]["seeded_entries"]
        assert vdoc["warm_winner_match"] is True
        assert vdoc["warm_speedup"] > 0
        assert vdoc["warm_configs_fraction"] <= quick_doc["warm_configs_target"]
        assert warm["configs_explored"] <= (
            quick_doc["warm_configs_target"] * vdoc["fast"]["configs_explored"]
        )
        assert warm["best_time_us"] == vdoc["fast"]["best_time_us"]
        # cold legs carry an empty warm block, not a missing one
        assert vdoc["fast"]["warm"] == {}
        assert vdoc["baseline"]["warm"] == {}

    def test_render_is_human_readable(self, quick_doc):
        text = render_bench(quick_doc)
        assert "bench scrnn" in text
        assert PRIMARY_VARIANT in text
        assert "match" in text
        assert "warm (store):" in text
        assert "FAILURES" not in text

    def test_unknown_model_rejected(self):
        with pytest.raises(ValueError, match="unknown model"):
            bench_model("not_a_model", quick=True)

    def test_quick_waives_timing_gate_only(self, quick_doc):
        """quick mode must not gate on configs/sec, but keeps exactness."""
        assert "speedup_target" in quick_doc
        assert all("below the" not in f for f in quick_doc["failures"])


class TestTimedSessionRun:
    def test_cold_start_and_phase_coverage(self, tiny_scrnn):
        from repro.gpu import libraries

        run = timed_session_run(
            tiny_scrnn, features="FK", seed=0, budget=60,
            fast=FastPath(cache=True, prune=False),
        )
        # the run warms the process memos from a guaranteed-cold start
        assert libraries._PLAN_MEMO
        rec = run.record()
        assert rec["cache"]["hit_rate"] > 0.0
        assert {"lower", "enumerate"} <= set(rec["phases_s"])
        assert rec["phase_total_s"] == pytest.approx(rec["wall_s"], rel=0.05,
                                                     abs=0.05)

    def test_baseline_leg_reports_no_cache(self, tiny_scrnn):
        run = timed_session_run(
            tiny_scrnn, features="FK", seed=0, budget=60,
            fast=FastPath(cache=False, prune=False),
        )
        rec = run.record()
        assert rec["cache"] is None
        assert rec["choices_pruned"] == 0
        assert rec["choices_total"] > 0
