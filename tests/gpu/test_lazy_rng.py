"""The autoboost RNG is built on first draw, from the seed it would have
been built from eagerly, so every draw is the one an eagerly built RNG
makes -- for a plain seed, for the substream key the custom-wirer gives
each measurement's simulator, and inside a wirer measurement."""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines.native import native_plan
from repro.core.enumerator import AstraFeatures
from repro.core.measurement import SIM_STREAM_TAG
from repro.core.wirer import CustomWirer
from repro.gpu.device import CLOCK_AUTOBOOST, P100
from repro.gpu.events import EventNamespace
from repro.gpu.kernels import GemmLaunch
from repro.gpu.streams import HostSyncItem, LaunchItem, StreamSimulator
from repro.runtime import executor as executor_module
from repro.runtime.executor import Executor
from repro.runtime.dispatcher import Dispatcher

AUTOBOOST = P100.with_clock(CLOCK_AUTOBOOST)
SEEDS = (0, 1, 7, 2024)


class EagerSimulator(StreamSimulator):
    """The simulator with its RNG built at construction."""

    def __init__(self, device, seed=0, injector=None):
        super().__init__(device, seed=seed, injector=injector)
        self._rng = np.random.default_rng(seed)


def timings(result) -> list:
    return [result.total_time_us] + [
        (r.start_time, r.end_time) for r in result.records
    ]


@pytest.fixture(scope="module")
def items(tiny_scrnn):
    return Dispatcher(tiny_scrnn.graph).lower(native_plan(tiny_scrnn.graph)).items


def two_streams() -> list:
    """A concurrent schedule: the event-driven engine draws per start."""
    events = EventNamespace()
    gate = events.new_event()
    return [
        LaunchItem(GemmLaunch(256, 1024, 1024, "cublas"), 0, record=gate),
        LaunchItem(GemmLaunch(64, 256, 256, "cublas"), 1),
        LaunchItem(GemmLaunch(64, 256, 256, "cublas"), 1, waits=(gate,)),
        HostSyncItem(),
    ]


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("reseed", [False, True], ids=["no-reseed", "reseed"])
@pytest.mark.parametrize("schedule", ["native", "two-streams"])
def test_draws_equal_an_eagerly_built_rng(items, seed, reseed, schedule):
    """``reseed``: each run on a fresh simulator seeded with that run's
    substream key, as every wirer measurement is."""
    if schedule == "two-streams":
        items = two_streams()
    lazy = StreamSimulator(AUTOBOOST, seed=seed)
    eager = EagerSimulator(AUTOBOOST, seed=seed)
    assert lazy._rng is None
    for run in range(3):
        if reseed:
            key = (seed, SIM_STREAM_TAG, run)
            lazy = StreamSimulator(AUTOBOOST, seed=key)
            eager = EagerSimulator(AUTOBOOST, seed=key)
        assert timings(lazy.run(items)) == timings(eager.run(items))


def test_base_clock_never_builds_the_rng(items):
    simulator = StreamSimulator(P100, seed=(3, SIM_STREAM_TAG, 0))
    simulator.run(items)
    assert simulator._rng is None


@pytest.mark.parametrize("seed", SEEDS)
def test_measuring_restores_an_rng_not_yet_built(
    tiny_scrnn, monkeypatch, seed
):
    """A measurement at a resumed run's mini-batch 5 draws what an eagerly
    built RNG under that ordinal's substream key draws."""
    graph = tiny_scrnn.graph
    plan = native_plan(graph)
    features = AstraFeatures.preset("F")
    key = (seed, SIM_STREAM_TAG, 5)
    measured = [[Executor(graph, AUTOBOOST, seed=key).run(plan).total_time_us]]
    for simulator in (StreamSimulator, EagerSimulator):
        monkeypatch.setattr(executor_module, "StreamSimulator", simulator)
        wirer = CustomWirer(graph, AUTOBOOST, features, seed=seed)
        wirer._prior_spent = 5  # measured as a resumed run's mini-batch 5
        results = wirer._measure(plan, (), "probe")
        measured.append([result.total_time_us for result in results])
    assert measured[0] == measured[1] == measured[2]
