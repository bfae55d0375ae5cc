"""Tests for the bench regression gate (``repro bench --compare``)."""

import copy
import json
import pathlib

import pytest

from repro.perf.bench import REGRESSION_THRESHOLD, compare_bench, render_compare

RESULTS = pathlib.Path(__file__).resolve().parents[2] / "benchmarks" / "results"


def _doc(model="scrnn", ratio=2.0, winner="plan-a", cfg_s=1000.0, hit=0.5,
         warm=None, warm_match=True):
    """A version-2 document; pass ``warm`` (a warm_speedup) for version 3."""
    doc = {
        "version": 2,
        "model": model,
        "variants": {
            "FK": {
                "configs_per_sec_ratio": ratio,
                "winning_assignment": winner,
                "cache_hit_rate": hit,
                "fast": {"configs_per_sec": cfg_s},
                "baseline": {"configs_per_sec": cfg_s / ratio},
            },
        },
    }
    if warm is not None:
        doc["version"] = 3
        doc["variants"]["FK"]["warm_speedup"] = warm
        doc["variants"]["FK"]["warm_winner_match"] = warm_match
        doc["variants"]["FK"]["warm_configs_fraction"] = 0.0
    return doc


class TestCompareBench:
    def test_identical_docs_pass(self):
        doc = _doc()
        diff = compare_bench(doc, copy.deepcopy(doc))
        assert diff["ok"]
        assert diff["failures"] == []
        assert diff["variants"]["FK"]["winner_match"]
        assert diff["variants"]["FK"]["ratio_drop"] == pytest.approx(0.0)

    def test_winner_change_fails(self):
        diff = compare_bench(_doc(winner="plan-b"), _doc(winner="plan-a"))
        assert not diff["ok"]
        assert any("winning assignment changed" in msg for msg in diff["failures"])

    def test_ratio_regression_beyond_threshold_fails(self):
        current = _doc(ratio=2.0 * (1 - REGRESSION_THRESHOLD) * 0.95)
        diff = compare_bench(current, _doc(ratio=2.0))
        assert not diff["ok"]
        assert any("regressed" in msg for msg in diff["failures"])

    def test_ratio_drop_within_threshold_passes(self):
        current = _doc(ratio=2.0 * (1 - REGRESSION_THRESHOLD) * 1.05)
        diff = compare_bench(current, _doc(ratio=2.0))
        assert diff["ok"]

    def test_ratio_improvement_passes(self):
        diff = compare_bench(_doc(ratio=3.0), _doc(ratio=2.0))
        assert diff["ok"]
        assert diff["variants"]["FK"]["ratio_drop"] < 0.0

    def test_absolute_throughput_is_informational_only(self):
        # 10x slower machine, same relative speedup: must still pass
        diff = compare_bench(_doc(cfg_s=100.0), _doc(cfg_s=1000.0))
        assert diff["ok"]
        assert diff["variants"]["FK"]["configs_per_sec_current"] == 100.0
        assert diff["variants"]["FK"]["configs_per_sec_baseline"] == 1000.0

    def test_no_shared_variants_fails(self):
        baseline = _doc()
        baseline["variants"] = {"all": baseline["variants"]["FK"]}
        diff = compare_bench(_doc(), baseline)
        assert not diff["ok"]
        assert any("no shared variants" in msg for msg in diff["failures"])

    def test_render_names_failures(self):
        diff = compare_bench(_doc(winner="plan-b"), _doc(winner="plan-a"))
        text = render_compare(diff)
        assert "FAILURES" in text
        assert "CHANGED" in text

    def test_render_clean_diff(self):
        doc = _doc()
        text = render_compare(compare_bench(doc, copy.deepcopy(doc)))
        assert "FAILURES" not in text
        assert "match" in text


class TestWarmLegCompare:
    """The v3 warm-leg gate, and v2 cross-version tolerance."""

    def test_both_warm_docs_compared(self):
        diff = compare_bench(_doc(warm=5.0), _doc(warm=5.0))
        assert diff["ok"]
        assert diff["variants"]["FK"]["warm_gate"] == "compared"
        assert diff["variants"]["FK"]["warm_speedup_drop"] == pytest.approx(0.0)

    def test_warm_speedup_regression_fails(self):
        current = _doc(warm=5.0 * (1 - REGRESSION_THRESHOLD) * 0.95)
        diff = compare_bench(current, _doc(warm=5.0))
        assert not diff["ok"]
        assert any("warm-start speedup regressed" in m for m in diff["failures"])

    def test_warm_speedup_drop_within_threshold_passes(self):
        current = _doc(warm=5.0 * (1 - REGRESSION_THRESHOLD) * 1.05)
        assert compare_bench(current, _doc(warm=5.0))["ok"]

    def test_warm_winner_divergence_fails(self):
        diff = compare_bench(_doc(warm=5.0, warm_match=False), _doc(warm=5.0))
        assert not diff["ok"]
        assert any("warm leg's winner diverged" in m for m in diff["failures"])

    def test_v2_baseline_skips_warm_gate(self):
        """A committed pre-warm-leg (v2) baseline must keep loading: the
        warm gate reports itself skipped instead of failing."""
        diff = compare_bench(_doc(warm=5.0), _doc())
        assert diff["ok"], diff["failures"]
        assert diff["variants"]["FK"]["warm_gate"].startswith("skipped")
        assert diff["variants"]["FK"]["warm_speedup_baseline"] is None

    def test_v2_current_against_v3_baseline_skips(self):
        diff = compare_bench(_doc(), _doc(warm=5.0))
        assert diff["ok"], diff["failures"]
        assert diff["variants"]["FK"]["warm_gate"].startswith("skipped")

    def test_v3_without_leg_reports_not_run(self):
        current = _doc(warm=5.0)
        baseline = _doc(warm=5.0)
        del baseline["variants"]["FK"]["warm_speedup"]
        diff = compare_bench(current, baseline)
        assert diff["ok"], diff["failures"]
        assert "did not run the warm leg" in \
            diff["variants"]["FK"]["warm_gate"]

    def test_mislabelled_version_is_a_failure(self):
        """A v2-declared document carrying a warm leg is the silent
        pass this schema field exists to prevent: hard failure."""
        mislabelled = _doc()
        mislabelled["variants"]["FK"]["warm_speedup"] = 5.0
        mislabelled["variants"]["FK"]["warm_winner_match"] = True
        for current, baseline in ((mislabelled, _doc(warm=5.0)),
                                  (_doc(warm=5.0), mislabelled)):
            diff = compare_bench(current, baseline)
            assert not diff["ok"]
            assert any("declares version 2 but carries a warm leg" in m
                       for m in diff["failures"])
            assert diff["variants"]["FK"]["warm_gate"] == \
                "failed: version/leg mismatch"

    def test_render_skipped_and_compared(self):
        skipped = render_compare(compare_bench(_doc(warm=5.0), _doc()))
        assert "warm: skipped" in skipped
        compared = render_compare(
            compare_bench(_doc(warm=4.0), _doc(warm=5.0))
        )
        assert "4.00x" in compared and "5.00x" in compared


class TestCommittedBaselines:
    @pytest.mark.parametrize("name", ["BENCH_scrnn.json", "BENCH_milstm.json"])
    def test_baseline_self_compare_is_clean(self, name):
        doc = json.loads((RESULTS / name).read_text())
        diff = compare_bench(copy.deepcopy(doc), doc)
        assert diff["ok"], diff["failures"]
        assert diff["variants"], "committed baseline must expose variants"

    @pytest.mark.parametrize("name", ["BENCH_scrnn.json", "BENCH_milstm.json"])
    def test_committed_v2_baseline_loads_against_v3(self, name):
        """The committed documents predate the warm leg (version 2); a
        fresh v3 document must compare against them without failing on
        the missing leg."""
        baseline = json.loads((RESULTS / name).read_text())
        assert baseline["version"] == 2
        current = copy.deepcopy(baseline)
        current["version"] = 3
        for vdoc in current["variants"].values():
            vdoc["warm_speedup"] = 5.0
            vdoc["warm_winner_match"] = True
            vdoc["warm_configs_fraction"] = 0.0
        diff = compare_bench(current, baseline)
        assert diff["ok"], diff["failures"]
        for vdoc in diff["variants"].values():
            assert vdoc["warm_gate"].startswith("skipped")
        assert "warm: skipped" in render_compare(diff)

    @pytest.mark.parametrize("name", ["BENCH_scrnn.json", "BENCH_milstm.json"])
    def test_committed_v2_baseline_loads_against_v4(self, name):
        """A fresh v4 document (the current version) against the
        committed v2 baselines: the warm gate skips, nothing fails."""
        baseline = json.loads((RESULTS / name).read_text())
        current = copy.deepcopy(baseline)
        current["version"] = 4
        for vdoc in current["variants"].values():
            vdoc["warm_speedup"] = 5.0
            vdoc["warm_winner_match"] = True
        diff = compare_bench(current, baseline)
        assert diff["ok"], diff["failures"]
        for vdoc in diff["variants"].values():
            assert vdoc["warm_gate"].startswith("skipped")
