"""Pool construction, degradation, and the sharding policy.

The engine's determinism argument leans on one property pinned here:
concatenating shard results in shard order is exactly candidate-ordinal
order, for every (item count, worker count) pair.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.measurement import TRUSTING
from repro.gpu import P100
from repro.parallel import InlinePool, make_pool
from repro.parallel.engine import _shard, engine_supported
from repro.parallel.wire import WorkerSpec
from repro.parallel.worker import WorkerState, run_shard
from repro.perf.ranker import FastPath


def _spec(model, **overrides):
    fields = dict(
        graph=model.graph, device=P100, features="FK", seed=0,
        validate=False, policy=TRUSTING, fast=FastPath(),
    )
    fields.update(overrides)
    return WorkerSpec(**fields)


class TestShard:
    @given(n=st.integers(0, 200), workers=st.integers(1, 16))
    @settings(max_examples=80, deadline=None)
    def test_concat_in_shard_order_is_original_order(self, n, workers):
        items = list(range(n))
        shards = _shard(items, workers)
        assert [x for shard in shards for x in shard] == items

    @given(n=st.integers(0, 200), workers=st.integers(1, 16))
    @settings(max_examples=80, deadline=None)
    def test_balanced_and_bounded(self, n, workers):
        shards = _shard(list(range(n)), workers)
        assert len(shards) <= workers
        assert all(shard for shard in shards)  # no empty shards
        if shards:
            sizes = [len(s) for s in shards]
            assert max(sizes) - min(sizes) <= 1


class TestMakePool:
    def test_workers_one_is_inline(self, tiny_scrnn):
        pool = make_pool(_spec(tiny_scrnn), 1, WorkerState, run_shard)
        assert isinstance(pool, InlinePool)
        assert pool.kind == "inline"
        pool.close()

    def test_unpicklable_spec_degrades_to_inline(self, tiny_scrnn):
        # a lambda can't cross a process boundary; the pool must degrade,
        # not die -- the engine still runs, merely without speedup
        pool = make_pool(
            _spec(tiny_scrnn, policy=lambda: None), 4, WorkerState, run_shard
        )
        assert isinstance(pool, InlinePool)
        pool.close()

    def test_inline_pool_runs_worker_code(self, tiny_scrnn):
        from repro.core.enumerator import AstraFeatures

        pool = make_pool(
            _spec(tiny_scrnn, features=AstraFeatures.preset("FK")), 1,
            WorkerState, run_shard,
        )
        future = pool.run_shard([])
        assert future.result() == []
        pool.close()


class TestEngineSupported:
    def test_fk_tree_supported(self, tiny_scrnn):
        from repro.core.enumerator import AstraFeatures, Enumerator

        enum = Enumerator(tiny_scrnn.graph, P100, AstraFeatures.preset("FK"))
        tree = enum.build_fk_tree(enum.strategies[0])
        assert engine_supported(tree)

    def test_non_update_node_rejected(self):
        assert not engine_supported(object())
