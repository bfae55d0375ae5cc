"""Tests of the benchmark's own rules: statistics, self time, sample order,
comparison, the end-to-end runs on the ``quick`` workload, and the Table 3
cross-check.

    pytest benchmarks/perf
"""

from __future__ import annotations

import json
import pickle
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from run import (
    EXACT_METRICS,
    OPTIMIZE_PROBES,
    QUIET_FACTOR,
    REFERENCE_PROBE_MS,
    SETUP_PROBES,
    calibrated,
    compare,
    quiet_limit,
)
from spans import (
    ENTRY_POINTS,
    EntryPoint,
    SpanRecorder,
    _lookup,
    instrument,
    layer_totals,
    resolve,
    self_times,
    span_sum_error,
)
from stats import hi, interleave, summary
from workloads import DEFAULT_WORKLOADS, WORKLOADS

PERF = Path(__file__).resolve().parent
ROOT = PERF.parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
sys.path.insert(0, str(ROOT / "src"))


# -- statistics ---------------------------------------------------------------


def test_summary_reports_median_and_quartiles():
    s = summary([5.0, 1.0, 4.0, 2.0, 3.0])
    assert (s["value"], s["q1"], s["q3"], s["n"]) == (3.0, 1.5, 4.5, 5)


def test_hi_needs_ten_samples_beyond_it():
    assert hi(range(10)) is None
    assert summary(range(10))["hi"] is None
    assert hi(range(11)) == (100.0 / 11, 0)
    pct, value = hi(range(1, 101))
    assert (pct, value) == (90.0, 90)
    assert sum(1 for v in range(1, 101) if v > value) == 10


# -- self time ----------------------------------------------------------------


def _tree():
    # optimize [0,10] > wirer [1,9] > Executor.run [2,6] > run_lowered [3,5]
    #   > simulator [3.5,4.5]; a second top-level executor call [7,8]
    return [
        ["optimize", "optimize", 0.0, 10.0, -1, 0],
        ["wirer", "CustomWirer.optimize", 1.0, 9.0, 0, 0],
        ["executor", "Executor.run", 2.0, 6.0, 1, 0],
        ["executor", "Executor.run_lowered", 3.0, 5.0, 2, 0],
        ["simulator", "StreamSimulator.run", 3.5, 4.5, 3, 7],
        ["executor", "Executor.run_lowered", 7.0, 8.0, 1, 0],
    ]


def test_self_time_subtracts_children():
    assert self_times(_tree()) == [2.0, 3.0, 2.0, 1.0, 1.0, 1.0]


def test_same_layer_nesting_counts_one_call():
    layers = layer_totals(_tree())
    executor = layers["executor"]
    assert executor["self_s"] == 4.0
    assert executor["calls"] == 2  # run_lowered inside run is the same call
    assert executor["total_s"] == 5.0
    assert executor["call_ms"] == [4000.0, 1000.0]
    assert layers["simulator"]["items"] == 7
    assert layers["optimize"]["self_s"] == 2.0


def test_span_sum_matches_optimize_span():
    assert span_sum_error(_tree()) == 0.0


def test_overlapping_children_are_covered_once():
    spans = [
        ["a", "a", 0.0, 10.0, -1, 0],
        ["b", "b", 1.0, 5.0, 0, 0],
        ["b", "b", 3.0, 7.0, 0, 0],
        ["c", "c", 9.0, 12.0, 0, 0],  # clipped to the parent
    ]
    assert self_times(spans)[0] == 10.0 - 6.0 - 1.0


def test_recorder_nests_spans():
    ticks = iter(range(100))
    recorder = SpanRecorder(clock=lambda: next(ticks))
    with recorder.span("optimize"):
        with recorder.span("wirer", "CustomWirer.optimize"):
            pass
    assert recorder.spans == [
        ["optimize", "optimize", 0, 3, -1, 0],
        ["wirer", "CustomWirer.optimize", 1, 2, 0, 0],
    ]


# -- sample order -------------------------------------------------------------


def test_interleave_keeps_proportions_in_every_prefix():
    counts = {"a": 6, "b": 14, "c": 3}
    order = interleave(counts)
    assert sorted(order) == sorted(k for k, n in counts.items() for _ in range(n))
    total = sum(counts.values())
    for k in range(1, total + 1):
        prefix = order[:k]
        for key, n in counts.items():
            assert abs(prefix.count(key) - k * n / total) <= 1.0


def test_calibration_scales_by_the_probes_around_the_timed_region():
    ref = REFERENCE_PROBE_MS
    sample = {"setup_s": 1.0, "optimize_s": 2.0,
              "probe_ms": [[ref], [2 * ref], [2 * ref, 2 * ref], [2 * ref, 2 * ref]]}
    assert calibrated(sample, "optimize_s", OPTIMIZE_PROBES) == 1.0
    assert calibrated(sample, "setup_s", SETUP_PROBES) == pytest.approx(1.0 / 1.5)


def test_quiet_limit_follows_the_fastest_probe():
    samples = [{"probe_ms": [[3.0, 5.0], [4.0]]}, {"error": "timed out"}]
    assert quiet_limit(samples) == QUIET_FACTOR * 3.0
    assert quiet_limit([]) == 0.0


# -- entry points -------------------------------------------------------------


def test_every_entry_point_resolves_to_a_callable():
    for entry in ENTRY_POINTS:
        assert callable(_lookup(resolve(entry.owner), entry.attribute)), entry
        assert entry.workload in WORKLOADS, entry


def test_instrument_wraps_and_restores():
    from repro.core.wirer import CustomWirer
    from repro.models import MODEL_BUILDERS

    original = CustomWirer.optimize
    builder = MODEL_BUILDERS["milstm"]
    with instrument(SpanRecorder()):
        assert CustomWirer.optimize is not original
        # the fleet pool pickles the builder by reference
        assert pickle.loads(pickle.dumps(MODEL_BUILDERS["milstm"])) is MODEL_BUILDERS["milstm"]
    assert CustomWirer.optimize is original
    assert MODEL_BUILDERS["milstm"] is builder


def test_instrument_wraps_a_module_when_it_is_first_imported():
    sys.modules.pop("colorsys", None)
    recorder = SpanRecorder()
    entry = EntryPoint("colors", "colorsys", "rgb_to_hsv", "quick")
    with instrument(recorder, entries=(entry,)):
        assert "colorsys" not in sys.modules
        import colorsys

        colorsys.rgb_to_hsv(0.2, 0.4, 0.4)
    assert [row[:2] for row in recorder.spans] == [["colors", "colorsys.rgb_to_hsv"]]
    assert colorsys.rgb_to_hsv.__name__ == "rgb_to_hsv"
    assert not hasattr(colorsys.rgb_to_hsv, "__wrapped__")


# -- compare ------------------------------------------------------------------


def _doc(optimize_s, spread=0.0, plan_us=100.0):
    timing = {"value": optimize_s, "q1": optimize_s * (1 - spread / 2),
              "q3": optimize_s * (1 + spread / 2), "n": 5}
    return {"workloads": {"w": {"metrics": {
        "optimize_s": timing,
        "plan_us": {"value": plan_us},
    }}}}


def _verdicts(a, b):
    rows, ok = compare([a], [b], SPEC)
    return {r["metric"]: r["verdict"] for r in rows}, ok


def test_compare_flags_regression_beyond_bound():
    verdicts, ok = _verdicts(_doc(1.0), _doc(1.5))
    assert verdicts["optimize_s"] == "regressed" and not ok


def test_compare_reports_wide_spread_as_unresolved():
    verdicts, _ok = _verdicts(_doc(1.0, spread=0.5), _doc(1.02, spread=0.5))
    assert verdicts["optimize_s"] == "unresolved"
    verdicts, ok = _verdicts(_doc(1.0), _doc(1.02))
    assert verdicts["optimize_s"] == "unchanged" and ok


def test_compare_requires_exact_metrics_identical():
    verdicts, ok = _verdicts(_doc(1.0), _doc(1.0, plan_us=100.5))
    assert verdicts["plan_us"] == "changed" and not ok


def test_compare_pools_run_sets_by_their_run_to_run_spread():
    # every run's own samples spread wide, but the runs' medians agree
    a = [_doc(t, spread=0.5) for t in (1.00, 1.01, 0.99, 1.02)]
    b = [_doc(t, spread=0.5) for t in (1.03, 1.02, 1.04, 1.01)]
    rows, ok = compare(a, b, SPEC)
    (row,) = [r for r in rows if r["metric"] == "optimize_s"]
    assert row["verdict"] == "unchanged" and ok
    assert (row["a"], row["b"]) == (pytest.approx(1.005), pytest.approx(1.025))
    # one run of B with another plan makes the set's plan disagree
    b[0]["workloads"]["w"]["metrics"]["plan_us"]["value"] = 99.0
    rows, ok = compare(a, b, SPEC)
    assert {r["metric"]: r["verdict"] for r in rows}["plan_us"] == "changed" and not ok


# -- end to end ---------------------------------------------------------------


def test_compare_prints_diagnostics_without_judging_them():
    a, b = _doc(1.0), _doc(1.0)
    a["workloads"]["w"]["diagnostics"] = {"optimize_wall_s": summary([1.0, 1.1])}
    b["workloads"]["w"]["diagnostics"] = {"optimize_wall_s": summary([3.0, 3.1])}
    rows, ok = compare([a], [b], SPEC)
    assert {r["metric"]: r["verdict"] for r in rows}["optimize_wall_s"] == "diagnostic"
    assert ok


def test_benchmark_json_names_the_default_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(DEFAULT_WORKLOADS)
    assert SPEC["paths"] == ["benchmarks/perf"]


def test_benchmark_json_states_each_workloads_sample_counts():
    for entry in SPEC["workloads"]:
        w = WORKLOADS[entry["name"]]
        counts = (f"Samples: {w.samples} full + {w.setup_samples} set-up, "
                  f"{w.traced_samples} traced")
        assert entry["why"].endswith(counts), entry


def _run(tmp_path, *args):
    proc = subprocess.run(
        [sys.executable, str(PERF / "run.py"), "--workload", "quick", "--seed", "1",
         "--out", str(tmp_path), *args],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    return proc, json.loads(proc.stdout.strip().splitlines()[-1])


def _units(section):
    return {m["name"]: m["unit"] for m in SPEC[section]}


def test_quick_run_prints_every_metric_with_its_unit(tmp_path):
    proc, line = _run(tmp_path, "--trace", "0")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] and line["failed"] == 0 and line["attempted"] >= 1
    assert {k: v["unit"] for k, v in line["metrics"].items()} == _units("end_to_end")

    proc, line = _run(tmp_path, "--trace", "1")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert {k: v["unit"] for k, v in line["metrics"].items()} == _units("per_layer")
    doc = json.loads((tmp_path / "results_quick_seed1_trace.json").read_text())
    quick = doc["workloads"]["quick"]
    assert {k: v["unit"] for k, v in quick["metrics"].items()} == {
        **_units("end_to_end"), **EXACT_METRICS,
    }
    assert quick["checks"]["ok"], quick["checks"]
    assert quick["metrics"]["fail_rate"]["value"] == 0.0
    trace = json.loads((tmp_path / "trace_quick_seed1.json").read_text())
    assert {e["cat"] for e in trace["traceEvents"]} >= {"optimize", "simulator"}


def test_tampered_expected_output_fails_every_sample(tmp_path):
    expected = json.loads((PERF / "expected.json").read_text())
    expected["quick"]["plan_us"] += 1.0
    tampered = tmp_path / "expected.json"
    tampered.write_text(json.dumps(expected))
    proc, line = _run(tmp_path, "--expected", str(tampered))
    assert proc.returncode != 0
    assert not line["correct"] and line["failed"] == line["attempted"]
    doc = json.loads((tmp_path / "results_quick_seed1.json").read_text())
    assert doc["workloads"]["quick"]["metrics"]["fail_rate"]["value"] == 1.0


def test_without_the_program_it_fails_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(PERF, tmp_path / "benchmarks" / "perf",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "benchmarks/perf/run.py", "--workload", "quick",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


@pytest.mark.parametrize("name", DEFAULT_WORKLOADS)
def test_every_default_workload_has_an_expected_output(name):
    expected = json.loads((PERF / "expected.json").read_text())
    assert {"plan_us", "measured_configs"} <= set(expected[name])


def test_sample_reproduces_the_committed_table3_milstm_row():
    # milstm-all's job at Table 3's length, through the benchmark's own path
    row = json.loads(
        (ROOT / "benchmarks" / "results" / "table3_milstm.json").read_text()
    )["16"]["all"]
    proc = subprocess.run(
        [sys.executable, str(PERF / "sample.py"), "--workload", "milstm-table3",
         "--seed", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    output = json.loads(proc.stdout.strip().splitlines()[-1])["output"]
    assert (output["plan_us"], output["native_us"]) == (row["best_us"], row["native_us"])
