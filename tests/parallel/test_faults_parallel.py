"""The engine under fire: fault injection, preemption, checkpoint/resume.

Every measurement draws faults from a per-candidate substream keyed by
its base mini-batch ordinal, so fault decisions are a function of
*which* candidate runs, not *where* it runs -- runs are bit-identical
across widths even mid-chaos, and a checkpoint taken at one width
resumes at any other.
"""

import pickle

import pytest

from repro.core import MeasurementPolicy
from repro.core.session import AstraSession
from repro.faults import (
    FAULT_LAUNCH,
    FAULT_PREEMPT,
    FAULT_SLOWDOWN,
    FaultPlan,
    FaultSpec,
    PreemptionError,
)
from repro.gpu import DEVICES
from repro.perf.bench import _clear_process_memos
from repro.perf.ranker import FastPath

FAST = FastPath(cache=True, prune=True)
CHAOS = FaultPlan(
    specs=(
        FaultSpec(kind=FAULT_LAUNCH, rate=0.05),
        FaultSpec(kind=FAULT_SLOWDOWN, rate=0.2, factor=4.0),
    ),
    seed=7,
)
POLICY = MeasurementPolicy(samples=3, max_attempts=3)


def _width(workers) -> dict:
    return {} if workers is None else {"workers": workers}


def run_chaos(model, workers, features="FK", budget=400):
    _clear_process_memos()
    session = AstraSession(
        model, device=DEVICES["P100"], features=features, seed=1, fast=FAST,
        faults=CHAOS, policy=POLICY, **_width(workers),
    )
    try:
        report = session.optimize(max_minibatches=budget)
    finally:
        session.close()
    return pickle.dumps((
        {k: repr(v) for k, v in report.astra.assignment.items()},
        report.best_time_us,
        report.configs_explored,
        report.astra.exploration_time_us,
        report.astra.timeline,
        report.astra.fault_summary,
        session.wirer.index.snapshot(),
    ))


class TestFaultEquivalence:
    def test_chaos_bit_identical_across_worker_counts(self, tiny_scrnn):
        default = run_chaos(tiny_scrnn, None)
        assert default == run_chaos(tiny_scrnn, 1) == run_chaos(tiny_scrnn, 2)

    @pytest.mark.parametrize("fixture, features", [
        ("tiny_milstm", "FK"), ("tiny_scrnn", "all"), ("tiny_milstm", "all"),
    ])
    def test_chaos_bit_identical_across_widths(self, request, fixture, features):
        model = request.getfixturevalue(fixture)
        assert (run_chaos(model, None, features)
                == run_chaos(model, 2, features))


class TestCheckpointResume:
    def _preempt_then_resume(self, model, path, first_workers, resume_workers):
        _clear_process_memos()
        faults = FaultPlan(
            specs=CHAOS.specs + (FaultSpec(kind=FAULT_PREEMPT, at=5),),
            seed=7,
        )
        session = AstraSession(
            model, device=DEVICES["P100"], features="FK", seed=1, fast=FAST,
            faults=faults, policy=POLICY, checkpoint_path=path,
            **_width(first_workers),
        )
        with pytest.raises(PreemptionError):
            try:
                session.optimize(max_minibatches=400)
            finally:
                session.close()
        session = AstraSession(
            model, device=DEVICES["P100"], features="FK", seed=1, fast=FAST,
            faults=CHAOS, policy=POLICY, checkpoint_path=path,
            **_width(resume_workers),
        )
        try:
            report = session.optimize(max_minibatches=400)
        finally:
            session.close()
        return pickle.dumps((
            {k: repr(v) for k, v in report.astra.assignment.items()},
            report.best_time_us,
            session.wirer.index.snapshot(),
        ))

    def test_resume_worker_count_free(self, tiny_scrnn, tmp_path):
        """Preempt at workers=1, resume at workers=2: same final state as
        preempting and resuming at workers=1 -- the checkpoint pins the
        exploration, not the fleet size."""
        a = self._preempt_then_resume(
            tiny_scrnn, str(tmp_path / "a.json"), 1, 1
        )
        b = self._preempt_then_resume(
            tiny_scrnn, str(tmp_path / "b.json"), 1, 2
        )
        assert a == b

    def test_default_width_resumes_at_two_workers(self, tiny_scrnn, tmp_path):
        """Preempt at the default width, resume at workers=2: the same
        final state as resuming at the default width."""
        a = self._preempt_then_resume(
            tiny_scrnn, str(tmp_path / "a.json"), None, None
        )
        b = self._preempt_then_resume(
            tiny_scrnn, str(tmp_path / "b.json"), None, 2
        )
        assert a == b
