"""One loop at every width: results are bit-identical across widths.

The default width (1: waves measured in the caller, on the wirer's own
pipeline -- the serial path) and a two-process pool run the same
exploration loop and draw the same per-candidate substreams, so they
agree on everything byte-comparable: assignment, best time, explored
config count, exploration time, timeline, profile index and fault
summary.  ``workers=None`` and ``workers=1`` are the same run.
"""

import pickle

import pytest

from repro.core.session import AstraSession
from repro.gpu import DEVICES
from repro.perf.ranker import FastPath

from ._memos import clear_process_memos

FAST = FastPath(cache=True, prune=True)


def run_once(model, device_name="P100", workers=None, features="FK", budget=400):
    clear_process_memos()
    width = {} if workers is None else {"workers": workers}
    session = AstraSession(
        model, device=DEVICES[device_name], features=features, seed=1,
        fast=FAST, **width,
    )
    try:
        report = session.optimize(max_minibatches=budget)
    finally:
        session.close()
    return report, session.wirer.index.snapshot()


def fingerprint(report, index):
    """Everything byte-comparable between runs."""
    return pickle.dumps((
        {k: repr(v) for k, v in report.astra.assignment.items()},
        report.best_time_us,
        report.configs_explored,
        report.astra.exploration_time_us,
        report.astra.timeline,
        index,
        report.astra.fault_summary,
    ))


@pytest.fixture(scope="module")
def scrnn_runs(tiny_scrnn):
    return {
        "default": run_once(tiny_scrnn),
        "w1": run_once(tiny_scrnn, workers=1),
        "w2": run_once(tiny_scrnn, workers=2),
    }


class TestSerialVsEngine:
    """The default width is the serial path, and it is the same run as a
    two-process pool -- pinned exactly, not ulp-close."""

    @pytest.mark.parametrize("fixture", ["tiny_scrnn", "tiny_milstm"])
    @pytest.mark.parametrize("device_name", ["P100", "V100"])
    def test_winner_and_index_keys(self, request, fixture, device_name):
        model = request.getfixturevalue(fixture)
        assert (fingerprint(*run_once(model, device_name))
                == fingerprint(*run_once(model, device_name, workers=2)))

    @pytest.mark.parametrize("fixture", ["tiny_scrnn", "tiny_milstm"])
    def test_all_features_bit_identical(self, request, fixture):
        """Streams, compare and production phases measure in the caller
        at every width; they must not notice the fk phase's pool."""
        model = request.getfixturevalue(fixture)
        assert (fingerprint(*run_once(model, features="all"))
                == fingerprint(*run_once(model, workers=2, features="all")))

    def test_serial_timeline_epoch_times_match(self, scrnn_runs):
        assert (fingerprint(*scrnn_runs["default"])
                == fingerprint(*scrnn_runs["w1"]))


class TestEngineWorkerCountInvariance:
    def test_one_vs_two_workers_bit_identical(self, scrnn_runs):
        assert (fingerprint(*scrnn_runs["w1"])
                == fingerprint(*scrnn_runs["w2"]))

    def test_report_carries_engine_summary(self, scrnn_runs):
        report, _ = scrnn_runs["w2"]
        summary = report.astra.fast_path["parallel"]
        assert summary["workers"] == 2
        assert summary["pool"] in ("process", "inline")
        assert summary["candidates"] >= 0
        assert summary["inline_fallbacks"] == 0

    def test_serial_report_has_no_engine_summary(self, scrnn_runs):
        report, _ = scrnn_runs["default"]
        assert report.astra.fast_path["parallel"] is None
