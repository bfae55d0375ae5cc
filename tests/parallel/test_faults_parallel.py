"""Exploration under fire, pinned: fault injection, preemption, resume.

Every measurement draws faults from a per-candidate substream keyed by
its base mini-batch ordinal, so a chaos run is a pure function of its
inputs.  Each cell -- the ``CHAOS`` or ``MILD`` plan under ``POLICY`` on
a model and feature set, and the final state of a run preempted at
mini-batch 5 and resumed -- is pinned in ``tests/data/golden_chaos.json``:
assignment, best and exploration time, explored count, timeline, fault
summary and the profile index, byte for byte.  The ``CHAOS`` cells were
recorded while widths 1 and 2 of the old worker pool still agreed on
every one of them, so a run that matches them is the run every width
produced.  ``CHAOS`` loses nearly every sample, so those cells degrade to
the native plan; the ``mild/*`` cells pin the path where retried samples
succeed and their measurements reach the index.

Regenerating after an *intentional* change to exploration or fault
injection::

    REPRO_REGEN_GOLDEN=1 PYTHONPATH=src python -m pytest tests/parallel/test_faults_parallel.py

then review the diff of ``tests/data/golden_chaos.json`` like any other
code change.
"""

import pytest

from repro.core import MeasurementPolicy
from repro.core.session import AstraSession
from repro.faults import (
    FAULT_EVENT_CORRUPT,
    FAULT_EVENT_DROP,
    FAULT_LAUNCH,
    FAULT_PREEMPT,
    FAULT_SLOWDOWN,
    FaultPlan,
    FaultSpec,
    PreemptionError,
)
from repro.gpu import DEVICES
from repro.perf.ranker import FastPath

from ._golden import check_golden, run_state
from ._memos import clear_process_memos

FAST = FastPath(cache=True, prune=True)
CHAOS = FaultPlan(
    specs=(
        FaultSpec(kind=FAULT_LAUNCH, rate=0.05),
        FaultSpec(kind=FAULT_SLOWDOWN, rate=0.2, factor=4.0),
    ),
    seed=7,
)
#: light enough that retried samples succeed and no cell degrades
MILD = FaultPlan(
    specs=(
        FaultSpec(kind=FAULT_LAUNCH, rate=0.002),
        FaultSpec(kind=FAULT_SLOWDOWN, rate=0.2, factor=4.0),
        FaultSpec(kind=FAULT_EVENT_DROP, rate=0.02),
        FaultSpec(kind=FAULT_EVENT_CORRUPT, rate=0.02, factor=1.5),
    ),
    seed=7,
)
POLICY = MeasurementPolicy(samples=3, max_attempts=3)


def _session(model, features="FK", faults=CHAOS, **kwargs):
    return AstraSession(
        model, device=DEVICES["P100"], features=features, seed=1, fast=FAST,
        faults=faults, policy=POLICY, **kwargs,
    )


def run_chaos(model, features="FK", budget=400, **kwargs) -> dict:
    clear_process_memos()
    session = _session(model, features, **kwargs)
    return run_state(session, session.optimize(max_minibatches=budget))


def preempt_then_resume(model, path, **resume_kwargs) -> dict:
    """Preempt at mini-batch 5 with a checkpoint, then resume from it."""
    clear_process_memos()
    preempting = FaultPlan(
        specs=CHAOS.specs + (FaultSpec(kind=FAULT_PREEMPT, at=5),), seed=7,
    )
    with pytest.raises(PreemptionError):
        _session(model, faults=preempting, checkpoint_path=path).optimize(
            max_minibatches=400
        )
    session = _session(model, checkpoint_path=path, **resume_kwargs)
    return run_state(session, session.optimize(max_minibatches=400))


class TestFaultEquivalence:
    def test_chaos_bit_identical_across_worker_counts(self, tiny_scrnn):
        """The one width a session accepts, spelled either way, is the
        pinned run."""
        default = run_chaos(tiny_scrnn)
        assert run_chaos(tiny_scrnn, workers=1) == default
        check_golden("golden_chaos", "scrnn/FK", default)

    @pytest.mark.parametrize("fixture, features", [
        ("tiny_milstm", "FK"), ("tiny_scrnn", "all"), ("tiny_milstm", "all"),
    ])
    def test_chaos_bit_identical_across_widths(self, request, fixture, features):
        model = request.getfixturevalue(fixture)
        check_golden(
            "golden_chaos", f"{model.name}/{features}", run_chaos(model, features)
        )


    @pytest.mark.parametrize("fixture", ["tiny_scrnn", "tiny_milstm"])
    @pytest.mark.parametrize("features", ["FK", "all"])
    def test_mild_faults_measure_through_retries(
        self, request, fixture, features
    ):
        """Under ``MILD`` the retried samples are the measurements: no
        cell degrades, so each pins a real assignment."""
        model = request.getfixturevalue(fixture)
        state = run_chaos(model, features, faults=MILD)
        assert state["assignment"]
        check_golden("golden_chaos", f"mild/{model.name}/{features}", state)


class TestCheckpointResume:
    def test_resume_worker_count_free(self, tiny_scrnn, tmp_path):
        """Preempt, then resume: the final state is the pinned one, and
        the checkpoint does not care how the resuming session spells its
        width."""
        state = preempt_then_resume(tiny_scrnn, str(tmp_path / "a.json"))
        assert preempt_then_resume(
            tiny_scrnn, str(tmp_path / "b.json"), workers=1
        ) == state
        check_golden("golden_chaos", "scrnn/FK/preempt-5-resume", state)
