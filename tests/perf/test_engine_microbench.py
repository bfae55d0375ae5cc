"""The engine microbench (``benchmarks/micro/engine.py``) in correctness
mode: replaying an exploration's plans through lower, simulate and
readback reproduces every number the exploration recorded."""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

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


def test_check_fails_when_a_replayed_number_differs(monkeypatch, capsys):
    spec = importlib.util.spec_from_file_location("engine_microbench", SCRIPT)
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    replay = bench.replay

    def off_by_one(graph, plans):
        seconds, replayed = replay(graph, plans)
        total, unit_times, epoch_metrics = replayed[-1]
        replayed[-1] = (total + 1.0, unit_times, epoch_metrics)
        return seconds, replayed

    monkeypatch.setattr(bench, "replay", off_by_one)
    assert bench.main(SMALL) == 1
    assert json.loads(capsys.readouterr().out.splitlines()[-1])["check"] == "1 plans differ"
