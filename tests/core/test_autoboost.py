"""Satellite: exploration under autoboost clock jitter.

The paper (section 5.3) pins clocks to the base frequency because
autoboost makes single-sample timings unstable.  These tests show (a)
exploration stays deterministic for a fixed seed even with jitter armed,
and (b) min-of-k measurement recovers the base-clock winner that a
single trusting sample gets wrong."""

from dataclasses import replace

import pytest

from repro.core import MeasurementPolicy
from repro.core.session import AstraSession
from repro.gpu import CLOCK_AUTOBOOST, P100
from repro.runtime import Executor

#: jitter cranked well past the default 0.12 so the seeded noise is
#: strong enough to flip a winner within a small exploration
NOISY = replace(P100.with_clock(CLOCK_AUTOBOOST), autoboost_jitter=0.6)


def clean_time(model, plan):
    """Evaluate a plan on a pinned-clock device: the ground truth."""
    return Executor(model.graph, P100, seed=0).run(plan).total_time_us


class TestDeterminism:
    def test_fixed_seed_fixed_exploration(self, small_sublstm):
        """Jitter is seeded simulator state, not wall-clock noise: the
        same seed must reproduce the identical exploration."""
        runs = [
            AstraSession(
                small_sublstm, device=NOISY, features="FK", seed=11,
            ).optimize(max_minibatches=40)
            for _ in range(2)
        ]
        assert runs[0].best_time_us == runs[1].best_time_us
        assert runs[0].astra.assignment == runs[1].astra.assignment
        assert runs[0].astra.timeline == runs[1].astra.timeline


class TestMinOfK:
    def test_single_sample_crowns_wrong_winner(self, small_sublstm):
        """With heavy jitter, one lucky boost makes a slower config look
        fastest -- the failure mode min-of-k exists for."""
        base = AstraSession(
            small_sublstm, device=P100, features="FK", seed=3,
        ).optimize(max_minibatches=40)
        base_time = clean_time(small_sublstm, base.astra.best_plan)

        # jitter is drawn per candidate, keyed by (seed, mini-batch
        # ordinal); at seed 2 a lucky boost crowns a slower config
        trusting = AstraSession(
            small_sublstm, device=NOISY, features="FK", seed=2,
        ).optimize(max_minibatches=40)
        trusting_time = clean_time(small_sublstm, trusting.astra.best_plan)
        assert trusting_time > base_time * 1.001

    def test_min_of_k_recovers_base_clock_winner(self, small_sublstm):
        """Same noisy device, same seed, 7 samples per configuration:
        the winner matches the pinned-clock exploration."""
        base = AstraSession(
            small_sublstm, device=P100, features="FK", seed=3,
        ).optimize(max_minibatches=40)
        base_time = clean_time(small_sublstm, base.astra.best_plan)

        robust = AstraSession(
            small_sublstm, device=NOISY, features="FK", seed=2,
            policy=MeasurementPolicy(samples=7),
        ).optimize(max_minibatches=280)
        robust_time = clean_time(small_sublstm, robust.astra.best_plan)
        assert robust_time <= base_time * 1.001
        assert robust.astra.assignment == base.astra.assignment
