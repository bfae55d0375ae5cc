"""Tests for report serialization."""

import json

import pytest

from repro import AstraSession
from repro.serialize import report_to_dict


class TestReportSerialization:
    def test_session_report(self, tiny_sublstm):
        report = AstraSession(tiny_sublstm, features="F", seed=0).optimize()
        data = json.loads(json.dumps(report_to_dict(report)))
        assert data["speedup_over_native"] == pytest.approx(report.speedup_over_native)
        assert data["astra"]["configs_explored"] == report.astra.configs_explored
        assert "plan" in data["astra"]
