"""Tests for ExecutionPlan and Unit containers."""

import pytest

from repro.gpu.kernels import CopyLaunch, GemmLaunch
from repro.runtime import ExecutionPlan, Unit


def unit(uid, nodes=(1,), kernel=None):
    return Unit(uid, kernel or GemmLaunch(4, 4, 4, "cublas"), tuple(nodes))


class TestUnit:
    def test_host_only_unit(self):
        u = Unit(0, None, (3,), host_us=10.0)
        assert u.kernel is None

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            Unit(0, None, (1,))
        with pytest.raises(ValueError):
            Unit(0, GemmLaunch(2, 2, 2, "cublas"), ())

    def test_default_epoch_unassigned(self):
        plan = ExecutionPlan(units=[unit(0)])
        assert plan.epoch(0) == (-1, -1)


class TestExecutionPlan:
    def test_default_stream_zero(self):
        plan = ExecutionPlan(units=[unit(0), unit(1, (2,))])
        assert plan.stream(0) == 0
        assert plan.num_streams == 1

    def test_num_streams(self):
        plan = ExecutionPlan(units=[unit(0), unit(1, (2,))], stream_of={1: 2})
        assert plan.num_streams == 3

    def test_unit_by_id(self):
        u0, u1 = unit(0), unit(1, (2,))
        plan = ExecutionPlan(units=[u0, u1])
        assert plan.unit_by_id(1) is u1
        with pytest.raises(KeyError):
            plan.unit_by_id(99)

    def test_covering_allows_pack_copies_on_leaves(self):
        """Weight-pack prologues may reference leaves other units also
        reference -- that is not double coverage of compute."""
        pack = Unit(0, CopyLaunch(1024, label="pack_w"), (1, 2), label="pack_w")
        main = unit(1, (1, 5))
        plan = ExecutionPlan(units=[pack, main])
        plan.validate_covering()

    def test_covering_rejects_duplicate_compute(self):
        plan = ExecutionPlan(units=[unit(0, (5,)), unit(1, (5,))])
        with pytest.raises(ValueError):
            plan.validate_covering()

    def test_empty_plan(self):
        plan = ExecutionPlan(units=[])
        assert plan.num_streams == 1
        plan.validate_covering()
