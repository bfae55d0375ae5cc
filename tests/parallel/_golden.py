"""Committed exploration results under ``tests/data/``.

A test records a finished run as a JSON state and checks it against one
named cell of a golden file.  Under ``REPRO_REGEN_GOLDEN=1`` the cell is
rewritten from the run instead; review the diff like any other code
change.
"""

import json
import os
from pathlib import Path

import pytest

DATA_DIR = Path(__file__).resolve().parent.parent / "data"
REGEN = os.environ.get("REPRO_REGEN_GOLDEN") == "1"


def run_state(session, report) -> dict:
    """Everything byte-comparable about a finished run, as JSON values."""
    return json.loads(json.dumps({
        "assignment": {k: repr(v) for k, v in report.astra.assignment.items()},
        "best_time_us": report.best_time_us,
        "configs_explored": report.configs_explored,
        "exploration_time_us": report.astra.exploration_time_us,
        "timeline": report.astra.timeline,
        "fault_summary": report.astra.fault_summary,
        "index": json.loads(session.wirer.index.dumps()),
    }))


def check_golden(name: str, cell: str, state: dict) -> None:
    path = DATA_DIR / f"{name}.json"
    golden = json.loads(path.read_text()) if path.exists() else {}
    if REGEN:
        golden[cell] = state
        path.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    if cell not in golden:
        pytest.fail(
            f"cell {cell!r} missing from {path.name}; generate it with "
            "REPRO_REGEN_GOLDEN=1"
        )
    for field, value in golden[cell].items():
        assert state[field] == value, (
            f"{cell}: {field} diverged from {path.name}; if the change is "
            "intentional, regenerate with REPRO_REGEN_GOLDEN=1 and review "
            "the diff"
        )
    assert set(state) == set(golden[cell])
