"""The engine microbench (``benchmarks/micro/engine.py``) in correctness
mode: replaying an exploration's plans through lower, simulate and
readback reproduces every number the exploration recorded."""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[2] / "benchmarks" / "micro" / "engine.py"
SMALL = ["--model", "scrnn", "--batch", "4", "--seq-len", "2", "--reps", "1", "--check"]


def test_replay_reproduces_every_recorded_number():
    out = subprocess.run(
        [sys.executable, str(SCRIPT), *SMALL],
        capture_output=True, text=True, timeout=300,
    )
    assert out.returncode == 0, out.stdout + out.stderr
    doc = json.loads(out.stdout.splitlines()[-1])
    assert doc["check"] == "ok"
    assert doc["reps"] == 1 and doc["plans"] > 0 and doc["items"] > doc["plans"]
    for layer in ("lower", "simulate", "readback"):
        stats = doc[f"{layer}_s"]
        assert 0 < stats["q1"] <= stats["median"] <= stats["q3"]
    assert doc["simulator_items_per_s"] > 0
    assert doc["concurrent_kernels"] > 0 and 0 < doc["lone_kernel_share"] <= 1


def load_bench():
    spec = importlib.util.spec_from_file_location("engine_microbench", SCRIPT)
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    return bench


@pytest.mark.parametrize("reps", ["0", "-1"])
def test_reps_below_one_is_rejected(reps, capsys):
    with pytest.raises(SystemExit) as exit_info:
        load_bench().main(["--reps", reps])
    assert exit_info.value.code == 2
    assert f"--reps: must be at least 1, not {reps}" in capsys.readouterr().err


def test_check_fails_when_a_replayed_number_differs(monkeypatch, capsys):
    bench = load_bench()
    replay = bench.replay

    def off_by_one(graph, plans):
        seconds, replayed = replay(graph, plans)
        (total, *observed), unit_times, epoch_metrics = replayed[-1]
        replayed[-1] = ((total + 1.0, *observed), unit_times, epoch_metrics)
        return seconds, replayed

    monkeypatch.setattr(bench, "replay", off_by_one)
    assert bench.main(SMALL) == 1
    assert json.loads(capsys.readouterr().out.splitlines()[-1])["check"] == "1 plans differ"


def test_check_fails_when_a_kernel_record_drifts(monkeypatch, capsys):
    """Kernel records are compared themselves, not only through the unit
    times and epoch metrics read from them: a drift in one record's end
    time, with every derived number unchanged, fails the check."""
    bench = load_bench()
    replay = bench.replay

    def drifted(graph, plans):
        seconds, replayed = replay(graph, plans)
        (total, cpu, overhead, records, events), *readback = replayed[0]
        stream, issue, start, end = records[0]
        records = [(stream, issue, start, end + 1e-6), *records[1:]]
        replayed[0] = ((total, cpu, overhead, records, events), *readback)
        return seconds, replayed

    monkeypatch.setattr(bench, "replay", drifted)
    assert bench.main(SMALL) == 1
    assert json.loads(capsys.readouterr().out.splitlines()[-1])["check"] == "1 plans differ"
