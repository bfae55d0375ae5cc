"""The front-end microbench (``benchmarks/micro/frontend.py``) in
correctness mode: every candidate's units, dependencies, compiled
indices, kernel costs and every pre-ranker estimate equal the pre-memo
reference code's."""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[2] / "benchmarks" / "micro" / "frontend.py"
SMALL = ["--model", "milstm", "--batch", "4", "--seq-len", "2", "--reps", "1", "--check"]


def test_replay_equals_the_reference():
    out = subprocess.run(
        [sys.executable, str(SCRIPT), *SMALL],
        capture_output=True, text=True, timeout=300,
    )
    assert out.returncode == 0, out.stdout + out.stderr
    doc = json.loads(out.stdout.splitlines()[-1])
    assert doc["check"] == "ok"
    assert doc["reps"] == 1 and doc["candidates"] == len(doc["per_candidate_median_s"]) > 0
    counts = doc["per_candidate_counts"]
    assert len(counts) == doc["candidates"]
    assert all(set(c) == {"fresh_units", "rechained_nodes", "fresh_unit_sources"}
               for c in counts)
    # the first candidate is built and compiled from nothing
    assert counts[0]["rechained_nodes"] > 0 and counts[0]["fresh_unit_sources"] > 0
    for layer in ("build", "compile", "costs", "estimates"):
        stats = doc[f"{layer}_s"]
        assert 0 < stats["q1"] <= stats["median"] <= stats["q3"]


def load_bench():
    spec = importlib.util.spec_from_file_location("frontend_microbench", SCRIPT)
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    return bench


@pytest.mark.parametrize("reps", ["0", "-1"])
def test_reps_below_one_is_rejected(reps, capsys):
    with pytest.raises(SystemExit) as exit_info:
        load_bench().main(["--reps", reps])
    assert exit_info.value.code == 2
    assert f"--reps: must be at least 1, not {reps}" in capsys.readouterr().err


def test_check_fails_when_a_cost_differs(monkeypatch, capsys):
    bench = load_bench()
    reference = bench.reference_kernel_costs

    def off_by_one(kernels, device):
        durations, caps, kinds = reference(kernels, device)
        return [durations[0] + 1.0, *durations[1:]], caps, kinds

    monkeypatch.setattr(bench, "reference_kernel_costs", off_by_one)
    assert bench.main(SMALL) == 1
    assert "costs" in json.loads(capsys.readouterr().out.splitlines()[-1])["check"]
