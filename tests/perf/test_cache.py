"""Differential test of the compilation cache (the tentpole's correctness
contract): a cache-served lowering serializes bit-identically to a fresh
``Dispatcher.lower`` of the same plan -- for every bundled model, on a
miss and on a hit, and after a checkpoint/resume cycle."""

import pytest

from repro.core import AstraFeatures, Enumerator
from repro.core.session import AstraSession
from repro.faults import FAULT_PREEMPT, FaultPlan, PreemptionError
from repro.gpu import P100
from repro.core.profile_index import ProfileIndex
from repro.perf import FastPath, LoweringCache, structure_key
from repro.runtime import Dispatcher
from repro.serialize import schedule_to_dict

MODEL_FIXTURES = (
    "tiny_scrnn", "tiny_sublstm", "tiny_milstm", "tiny_stacked_lstm", "tiny_gnmt",
)


def _plans(graph, features="FK"):
    """A spread of structurally different plans for one graph: the default
    assignment of each strategy, plus a profiling-restricted variant."""
    enum = Enumerator(graph, P100, AstraFeatures.preset(features))
    out = []
    for strategy in enum.strategies:
        tree = enum.build_fk_tree(strategy)
        tree.initialize()
        plan = enum.build_plan(strategy, tree.assignment()).plan
        out.append(plan)
    import dataclasses
    first = out[0]
    out.append(dataclasses.replace(
        first, profile_unit_ids=frozenset({first.units[0].unit_id})
    ))
    return out


@pytest.mark.parametrize("fixture", MODEL_FIXTURES)
def test_cached_lowering_bit_identical(fixture, request):
    model = request.getfixturevalue(fixture)
    graph = model.graph
    dispatcher = Dispatcher(graph)
    cache = LoweringCache()
    for plan in _plans(graph):
        fresh_doc = schedule_to_dict(dispatcher.lower(plan))
        # first sighting: structure miss (deps/order computed and stored)
        miss = cache.lower(dispatcher, plan)
        # second: structure hit (deps/order from cache)
        structure_hit = cache.lower(dispatcher, plan)
        assert schedule_to_dict(miss) == fresh_doc
        assert schedule_to_dict(structure_hit) == fresh_doc
        assert structure_hit.plan is plan
    stats = cache.stats()
    # every plan hit on its second lowering; the profiling variant
    # shares its structure entry with its parent plan
    assert stats["structure_hits"] >= len(_plans(graph))
    assert stats["structure_misses"] >= 1


def test_cache_differential_on_explored_winner(tiny_scrnn):
    """End-to-end: after a cached exploration, the winning plan re-lowers
    through the session's own cache identically to a fresh dispatcher."""
    session = AstraSession(
        tiny_scrnn, features="all", seed=0, fast=FastPath(cache=True, prune=False)
    )
    report = session.optimize(max_minibatches=60)
    cache = session.wirer.cache
    assert cache is not None
    assert cache.hit_rate > 0.0
    plan = report.astra.best_plan
    fresh = Dispatcher(tiny_scrnn.graph).lower(plan)
    served = cache.lower(session.wirer.executor.dispatcher, plan)
    assert schedule_to_dict(served) == schedule_to_dict(fresh)


def test_cache_differential_after_checkpoint_resume(tiny_scrnn, tmp_path):
    """Satellite: the bit-identical contract holds across a preemption --
    the resumed session rebuilds its cache and must serve schedules equal
    to fresh lowering (and converge exactly like an uninterrupted run)."""
    baseline = AstraSession(
        tiny_scrnn, features="all", seed=0, fast=FastPath(cache=True, prune=False)
    ).optimize(max_minibatches=60)

    path = str(tmp_path / "ck.json")
    resumes = 0
    while True:
        session = AstraSession(
            tiny_scrnn, features="all", seed=0,
            fast=FastPath(cache=True, prune=False),
            faults=FaultPlan.single(FAULT_PREEMPT, at=6, seed=0),
            checkpoint_path=path,
        )
        try:
            resumed = session.optimize(max_minibatches=60)
            break
        except PreemptionError:
            resumes += 1
            assert resumes <= 2
    assert resumes == 1
    assert resumed.best_time_us == baseline.best_time_us
    assert resumed.astra.assignment == baseline.astra.assignment

    plan = resumed.astra.best_plan
    fresh = Dispatcher(tiny_scrnn.graph).lower(plan)
    served = session.wirer.cache.lower(session.wirer.executor.dispatcher, plan)
    assert schedule_to_dict(served) == schedule_to_dict(fresh)


def test_eviction_respects_capacity(tiny_scrnn):
    graph = tiny_scrnn.graph
    dispatcher = Dispatcher(graph)
    cache = LoweringCache(capacity=1)
    # walk one fk tree: its fusion choices change the unit structure
    enum = Enumerator(graph, P100, AstraFeatures.preset("FK"))
    strategy = enum.strategies[0]
    tree = enum.build_fk_tree(strategy)
    tree.initialize()
    plans = [enum.build_plan(strategy, tree.assignment()).plan]
    while tree.advance(ProfileIndex(), ()):
        plans.append(enum.build_plan(strategy, tree.assignment()).plan)
    assert len({structure_key(plan) for plan in plans}) >= 2
    for plan in plans:
        cache.lower(dispatcher, plan)
    stats = cache.stats()
    assert stats["structure_entries"] <= 1
    assert stats["evictions"] > 0


def test_disabled_cache_absent_from_wirer(tiny_scrnn):
    session = AstraSession(
        tiny_scrnn, features="FK", seed=0, fast=FastPath(cache=False, prune=False)
    )
    assert session.wirer.cache is None
    report = session.optimize(max_minibatches=40)
    assert report.astra.fast_path["cache"] is None
    assert report.astra.fast_path["cache_enabled"] is False
