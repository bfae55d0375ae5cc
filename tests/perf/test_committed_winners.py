"""Committed winners: scrnn's Table 2 job must keep landing on the same
configuration at the same simulated time.

The pruned-vs-exhaustive tests pin that the fast path never changes the
answer; this one pins the answer itself, so a change anywhere in the
simulator, the cost model or the exploration that moves scrnn's winner
or its epoch time fails tier-1 with a field-level diff.  The values were
recorded with the default CLI settings (P100, seed 0, budget 3000,
cache and pruning on) and compare with exact ``==``: simulated times are
deterministic, so any drift is a behaviour change to explain, not noise.
"""

import pytest

from repro.core.session import AstraSession
from repro.gpu import DEVICES
from repro.models import build_scrnn
from repro.models.scrnn import DEFAULT_CONFIG
from repro.perf import FastPath

FK_ASSIGNMENT = {
    "fusion:commonA@layer0/backward#172": "(2, 'cublas')",
    "fusion:commonA@layer0/backward#251": "(2, 'cublas')",
    "fusion:commonB@layer0/forward#17": "(5, 'cublas')",
    "fusion:commonB@head/forward#68": "(5, 'cublas')",
    "fusion:commonB@layer0/backward#173": "(4, 'cublas')",
    "fusion:commonB@layer0/backward#248": "(2, 'cublas')",
    "ladder:174": "(True, 'cublas')",
    "ladder:169": "(True, 'cublas')",
    "kernel:('head', 'backward', 16, 2000, 650)": "'oai_1'",
    "kernel:('head', 'backward', 650, 16, 2000)": "'cublas'",
    "kernel:('head', 'backward', 650, 64, 2000)": "'cublas'",
    "kernel:('layer0', 'backward', 16, 325, 650)": "'cublas'",
    "kernel:('layer0', 'backward', 16, 650, 325)": "'cublas'",
    "kernel:('layer0', 'backward', 16, 650, 650)": "'cublas'",
    "kernel:('layer0', 'forward', 16, 325, 650)": "'cublas'",
    "kernel:('layer0', 'forward', 16, 650, 650)": "'cublas'",
}

ALL_ASSIGNMENT = {
    **FK_ASSIGNMENT,
    "stream:se0/e0": "1",
    "stream:se0/e1": "2",
    "stream:se0/e13": "1",
    "stream:se0/e14": "0",
    "stream:se0/e15": "0",
    "stream:se0/e16": "0",
    "stream:se0/e17": "0",
    "stream:se0/e18": "0",
    "stream:se0/e19": "2",
    "stream:se0/e27": "10",
    "stream:se0/e29": "13",
    "stream:se0/e30": "1",
    "stream:se0/e31": "1",
    "stream:se0/e32": "10",
    "stream:se0/e33": "1",
}

COMMITTED = {
    "FK": (FK_ASSIGNMENT, 951.2189924432894),
    "all": (ALL_ASSIGNMENT, 900.49736101992),
}


@pytest.fixture(scope="module")
def scrnn_b16():
    return build_scrnn(DEFAULT_CONFIG.scaled(batch_size=16, seq_len=5))


@pytest.mark.parametrize("features", ["FK", "all"])
def test_scrnn_winner_matches_committed(scrnn_b16, features):
    assignment, best_time_us = COMMITTED[features]
    report = AstraSession(
        scrnn_b16, device=DEVICES["P100"], features=features, seed=0,
        fast=FastPath(cache=True, prune=True),
    ).optimize(max_minibatches=3000)
    got = {k: repr(v) for k, v in report.astra.assignment.items()}
    assert got == assignment
    assert report.best_time_us == best_time_us
