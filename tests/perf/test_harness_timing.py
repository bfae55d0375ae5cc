"""Regression test for the benchmark harness's timer isolation.

Every variant run owns a fresh :class:`~repro.obs.observer.Observer`
and every phase is an exclusive span of its phase view -- so the
per-phase seconds must sum to the measured wall clock within tolerance,
per variant, and a variant's phases must not carry anything from the
previous variant's run."""

import importlib.util
import sys
from pathlib import Path

import pytest

HARNESS_PATH = Path(__file__).resolve().parents[2] / "benchmarks" / "harness.py"


@pytest.fixture(scope="module")
def harness():
    spec = importlib.util.spec_from_file_location("bench_harness", HARNESS_PATH)
    module = importlib.util.module_from_spec(spec)
    sys.modules["bench_harness"] = module
    spec.loader.exec_module(module)
    yield module
    sys.modules.pop("bench_harness", None)


def test_phase_times_sum_to_wall(harness, tiny_scrnn):
    out = harness.astra_times(
        tiny_scrnn, variants=("FK", "all"), seed=0, max_minibatches=60
    )
    assert set(out) == {"FK", "all"}
    for preset, row in out.items():
        wall, phases = row["wall_s"], row["phases_s"]
        assert wall > 0
        assert phases, f"{preset}: no phases recorded"
        total = sum(phases.values())
        # exclusive accounting: phases partition the wall clock; the only
        # slack is timer-read overhead
        assert total == pytest.approx(wall, rel=0.02, abs=0.05), (
            f"{preset}: phases sum to {total:.4f}s but wall is {wall:.4f}s"
        )
        # the residual bucket exists, and the exploration phases are split
        # out rather than lumped into it
        assert "other" in phases
        assert "explore" in phases or "simulate" in phases
        assert phases["other"] <= total


def test_each_variant_run_isolated(harness, tiny_scrnn):
    """A later variant's numbers never include an earlier variant's time:
    each run's phases sum to *its own* wall clock, so the per-variant
    totals are independent measurements."""
    out = harness.astra_times(
        tiny_scrnn, variants=("F", "FK"), seed=0, max_minibatches=40
    )
    for row in out.values():
        assert sum(row["phases_s"].values()) <= row["wall_s"] * 1.02 + 0.05
    # still reports the original fields
    for row in out.values():
        assert row["best_us"] > 0
        assert row["speedup"] >= 1.0
