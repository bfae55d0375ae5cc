"""Pool construction, degradation, and the sharding policy.

The fleet search's determinism argument leans on one property pinned
here: concatenating shard results in shard order is exactly task order,
for every (item count, worker count) pair.
"""

from hypothesis import given, settings, strategies as st

from repro.parallel import InlinePool, make_pool
from repro.parallel.engine import _shard


class _State:
    """A worker state that only remembers the spec it was built from."""

    def __init__(self, spec):
        self.spec = spec


def _run_shard(state, tasks):
    return [(state.spec, task) for task in tasks]


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
    def test_workers_one_is_inline(self):
        pool = make_pool("spec", 1, _State, _run_shard)
        assert isinstance(pool, InlinePool)
        assert pool.kind == "inline"
        pool.close()

    def test_unpicklable_spec_degrades_to_inline(self):
        # a lambda can't cross a process boundary; the pool must degrade,
        # not die -- the search still runs, merely without speedup
        pool = make_pool(lambda: None, 4, _State, _run_shard)
        assert isinstance(pool, InlinePool)
        pool.close()

    def test_inline_pool_runs_worker_code(self):
        pool = make_pool("spec", 1, _State, _run_shard)
        assert pool.run_shard([]).result() == []
        assert pool.run_shard([1, 2]).result() == [("spec", 1), ("spec", 2)]
        pool.close()
