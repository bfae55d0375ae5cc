"""The fleet pool's sharding policy and its fallbacks.

The fleet search's determinism argument leans on one property pinned
here: concatenating shard results in shard order is exactly task order,
for every (item count, worker count) pair.  The fallbacks lean on
another: a primitive a worker did not return is measured in place by
the search's composition, to the same value, so a failed shard or a
spec that cannot reach a worker changes the engine summary only.
"""

import multiprocessing

import pytest
from hypothesis import given, settings, strategies as st

import repro.fleet.search as fleet_search
from repro.fleet import FleetMeasurer, Strategy, get_fleet, run_fleet_search
from repro.models import MODEL_BUILDERS
from repro.models.scrnn import DEFAULT_CONFIG
from repro.parallel.engine import _shard

CONFIG = DEFAULT_CONFIG.scaled(batch_size=64, seq_len=5)

needs_fork = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="workers inherit the patched measurer only when forked",
)


def _search(builder=MODEL_BUILDERS["scrnn"], **kwargs):
    return run_fleet_search(
        builder, CONFIG, get_fleet("hetero"), model_name="scrnn",
        exhaustive=True, **kwargs,
    )


def _document(report) -> dict:
    doc = report.to_dict()
    del doc["engine"], doc["workers"]
    return doc


@pytest.fixture(scope="module")
def width_one():
    report = _search()
    assert report.engine == {}  # width 1 runs no pool
    return _document(report)


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
    def test_workers_one_is_inline(self, monkeypatch, width_one):
        """Width 1 makes no pool: the search measures in the caller and
        reports no engine, even were a process pool unavailable."""
        import repro.parallel.engine as engine

        def no_pool(*args, **kwargs):
            raise AssertionError("width 1 stood up a process pool")

        monkeypatch.setattr(engine, "ParallelEngine", no_pool)
        report = _search(workers=1)
        assert report.engine == {}
        assert report.workers == 1
        assert _document(report) == width_one


class TestFallback:
    @needs_fork
    def test_failed_shard_is_measured_in_place(self, monkeypatch, width_one):
        """A worker shard that raises leaves its primitives to the
        composition: same document as width 1, one fallback counted."""
        failing = ("compute", "V100", 32)  # data x2 [V100,V100]'s replica
        measure = FleetMeasurer.measure_primitive

        def measure_or_fail(self, primitive):
            if primitive == failing:
                raise RuntimeError("worker lost")
            measure(self, primitive)

        monkeypatch.setattr(FleetMeasurer, "measure_primitive", measure_or_fail)
        report = _search(workers=2)
        assert report.engine["shards"] == 2
        assert report.engine["inline_fallbacks"] == 1
        assert _document(report) == width_one

    def test_unpicklable_builder_is_measured_in_place(self, width_one):
        """A closure cannot reach a worker: every shard falls back and
        the search still yields the width-1 document."""

        def closure_builder(config):
            return MODEL_BUILDERS["scrnn"](config)

        report = _search(builder=closure_builder, workers=2)
        assert report.engine["inline_fallbacks"] == report.engine["shards"] == 2
        assert _document(report) == width_one

    @pytest.mark.parametrize("workers", [1, 2])
    def test_measurement_error_still_raises(self, monkeypatch, workers):
        """A fallback re-measures in the caller, where a genuine error
        (cuts that do not split scrnn's one layer scope) surfaces."""
        bad = Strategy("pipeline", ("P100", "V100"), cuts=(1, 1), microbatches=4)
        monkeypatch.setattr(
            fleet_search, "enumerate_strategies", lambda *a, **kw: [bad],
        )
        with pytest.raises(ValueError, match="do not split"):
            _search(workers=workers)
