"""The serial exploration loop reproduces the pinned runs exactly.

Every candidate draws its jitter and fault substreams from its global
mini-batch ordinal, so a run is a pure function of its inputs.  Fault-free
runs of the tiny models are pinned in ``tests/data/golden_exploration.json``
(assignment, best and exploration time, explored count, timeline, profile
index and fault summary), byte for byte, not ulp-close.  The cells were
recorded while the serial path and a two-process worker pool still agreed
on every one of them.  ``workers=None`` and ``workers=1`` are the same run,
and no other width is accepted.

Regenerating after an *intentional* change to exploration::

    REPRO_REGEN_GOLDEN=1 PYTHONPATH=src python -m pytest tests/parallel/test_equivalence.py
"""

import pytest

from repro.core.session import AstraSession
from repro.gpu import DEVICES
from repro.perf.ranker import FastPath

from ._golden import check_golden, run_state
from ._memos import clear_process_memos

FAST = FastPath(cache=True, prune=True)


def run_once(model, device_name="P100", features="FK", budget=400, **kwargs):
    clear_process_memos()
    session = AstraSession(
        model, device=DEVICES[device_name], features=features, seed=1,
        fast=FAST, **kwargs,
    )
    report = session.optimize(max_minibatches=budget)
    return report, run_state(session, report)


@pytest.fixture(scope="module")
def scrnn_runs(tiny_scrnn):
    return {
        "default": run_once(tiny_scrnn),
        "w1": run_once(tiny_scrnn, workers=1),
    }


class TestSerialVsEngine:
    """The serial loop lands on the runs the engine was pinned against."""

    @pytest.mark.parametrize("fixture", ["tiny_scrnn", "tiny_milstm"])
    @pytest.mark.parametrize("device_name", ["P100", "V100"])
    def test_winner_and_index_keys(self, request, fixture, device_name):
        model = request.getfixturevalue(fixture)
        _report, state = run_once(model, device_name)
        check_golden(
            "golden_exploration", f"{model.name}/{device_name}/FK", state
        )

    @pytest.mark.parametrize("fixture", ["tiny_scrnn", "tiny_milstm"])
    def test_all_features_bit_identical(self, request, fixture):
        """Streams, compare and production phases too."""
        model = request.getfixturevalue(fixture)
        _report, state = run_once(model, features="all")
        check_golden("golden_exploration", f"{model.name}/P100/all", state)

    def test_serial_timeline_epoch_times_match(self, scrnn_runs):
        assert scrnn_runs["default"][1] == scrnn_runs["w1"][1]


class TestEngineWorkerCountInvariance:
    def test_serial_report_has_no_engine_summary(self, scrnn_runs):
        report, _state = scrnn_runs["default"]
        assert "parallel" not in report.astra.fast_path

    def test_other_widths_point_to_the_fleet_search(self, tiny_scrnn):
        with pytest.raises(ValueError, match="repro fleet --workers"):
            AstraSession(tiny_scrnn, workers=2)
