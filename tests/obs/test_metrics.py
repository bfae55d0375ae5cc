"""Tests for the counter/gauge/histogram/series registry."""

import json

import pytest

from repro.obs import NULL_OBSERVER, MetricsRegistry, Observer


class TestInstruments:
    def test_counter(self):
        reg = MetricsRegistry()
        reg.counter("c").inc()
        reg.counter("c").inc(4)
        assert reg.counter("c").value == 5

    def test_gauge_last_write_wins(self):
        reg = MetricsRegistry()
        reg.gauge("g").set(1.5)
        reg.gauge("g").set(2.5)
        assert reg.gauge("g").value == 2.5

    def test_histogram_stats(self):
        reg = MetricsRegistry()
        h = reg.histogram("h")
        for v in (1.0, 3.0, 5.0):
            h.observe(v)
        assert h.count == 3
        assert h.mean == pytest.approx(3.0)
        assert h.min == 1.0 and h.max == 5.0

    def test_histogram_power_of_two_buckets(self):
        reg = MetricsRegistry()
        h = reg.histogram("h")
        h.observe(3.0)   # -> bucket 4
        h.observe(4.0)   # -> bucket 4
        h.observe(5.0)   # -> bucket 8
        h.observe(0.0)   # -> bucket 0
        assert h.buckets == {4.0: 2, 8.0: 1, 0.0: 1}

    def test_series_auto_steps(self):
        reg = MetricsRegistry()
        s = reg.series("s")
        s.append(10.0)
        s.append(9.0)
        s.append(8.5, step=10)
        assert s.points == [(0, 10.0), (1, 9.0), (10, 8.5)]
        assert s.last == 8.5


class TestRegistry:
    def test_get_or_create_returns_same_instrument(self):
        reg = MetricsRegistry()
        assert reg.counter("x") is reg.counter("x")

    def test_kind_conflict_rejected(self):
        reg = MetricsRegistry()
        reg.counter("x")
        with pytest.raises(TypeError):
            reg.gauge("x")

    def test_snapshot_round_trips_through_json(self):
        reg = MetricsRegistry()
        reg.counter("a").inc(2)
        reg.gauge("b").set(0.5)
        reg.histogram("c").observe(7.0)
        reg.series("d").append(1.0)
        data = json.loads(reg.to_json())
        assert data["version"] == 1
        snap = data["metrics"]
        assert snap["a"] == {"type": "counter", "value": 2}
        assert snap["b"]["value"] == 0.5
        assert snap["c"]["count"] == 1
        assert snap["d"]["points"] == [[0, 1.0]]

    def test_snapshot_sorted_by_name(self):
        reg = MetricsRegistry()
        reg.counter("z")
        reg.counter("a")
        assert list(reg.snapshot()) == ["a", "z"]


class TestNullRegistry:
    def test_all_operations_are_noops(self):
        NULL_OBSERVER.count("c")
        NULL_OBSERVER.gauge("g", 1.0)
        NULL_OBSERVER.histogram("h", 1.0)
        NULL_OBSERVER.series("s", 1.0)
        assert NULL_OBSERVER.metrics().snapshot() == {}
        assert not NULL_OBSERVER.enabled

    def test_shared_instrument_never_accumulates(self):
        NULL_OBSERVER.count("c", 100)
        assert "c" not in NULL_OBSERVER.metrics()
        assert NULL_OBSERVER.events == []


class TestObserverView:
    def test_metric_updates_fold_into_the_registry(self):
        observer = Observer()
        observer.count("c")
        observer.count("c", 4)
        observer.gauge("g", 1.5)
        observer.gauge("g", 2.5)
        observer.histogram("h", 3.0)
        observer.series("s", 10.0)
        observer.series("s", 8.5, step=10)
        reg = observer.metrics()
        assert reg.counter("c").value == 5
        assert reg.gauge("g").value == 2.5
        assert reg.histogram("h").count == 1
        assert reg.series("s").points == [(0, 10.0), (10, 8.5)]

    def test_decisions_imply_their_metrics(self):
        observer = Observer()
        observer.minibatch("fk", "explore", 10.0, ("c",), {}, 10.0)
        observer.minibatch("fk", "explore", 8.0, ("c",), {}, 8.0)
        observer.minibatch("production", "production", 7.0, ("c",), {}, 8.0)
        observer.fault("fk", "launch_fail", "boom", ("c",))
        observer.fault("summary", "launch_fail", "injected=1", surfaced=False)
        observer.degraded("gave up", 12.0)
        reg = observer.metrics()
        assert reg.counter("astra.configs_explored").value == 2
        assert reg.series("astra.best_so_far_us").points == [(0, 10.0), (1, 8.0)]
        assert reg.histogram("astra.minibatch_us.production").count == 1
        assert reg.counter("fault.surfaced.launch_fail").value == 1
        assert reg.counter("recovery.degraded").value == 1


class TestHistogramPercentiles:
    def test_single_observation_is_every_percentile(self):
        reg = MetricsRegistry()
        h = reg.histogram("h")
        h.observe(7.0)
        assert h.percentile(50) == pytest.approx(7.0)
        assert h.percentile(99) == pytest.approx(7.0)

    def test_percentiles_monotone_and_clamped(self):
        reg = MetricsRegistry()
        h = reg.histogram("h")
        for value in (1.0, 2.0, 4.0, 8.0, 100.0):
            h.observe(value)
        p50, p90, p99 = h.percentile(50), h.percentile(90), h.percentile(99)
        assert p50 <= p90 <= p99
        assert h.min <= p50 and p99 <= h.max
        assert h.percentile(100) == pytest.approx(h.max)

    def test_median_within_bucket_resolution(self):
        reg = MetricsRegistry()
        h = reg.histogram("h")
        for value in range(1, 101):
            h.observe(float(value))
        # power-of-two buckets: the estimate is within a factor of two
        assert 25.0 <= h.percentile(50) <= 100.0

    def test_empty_histogram_has_no_percentiles(self):
        reg = MetricsRegistry()
        h = reg.histogram("h")
        assert h.percentile(50) is None
        assert h.summary() == {"p50": None, "p90": None, "p99": None}

    def test_bad_quantile_raises(self):
        reg = MetricsRegistry()
        h = reg.histogram("h")
        h.observe(1.0)
        for q in (0.0, -1.0, 101.0):
            with pytest.raises(ValueError):
                h.percentile(q)

    def test_summary_keys_and_snapshot_carry_percentiles(self):
        reg = MetricsRegistry()
        h = reg.histogram("h")
        h.observe(3.0)
        assert set(h.summary()) == {"p50", "p90", "p99"}
        snap = h.snapshot()
        for key in ("p50", "p90", "p99"):
            assert snap[key] == pytest.approx(3.0)
        json.dumps(reg.to_json() and json.loads(reg.to_json()))

    def test_null_instrument_percentiles_inert(self):
        NULL_OBSERVER.histogram("h", 5.0)
        h = NULL_OBSERVER.metrics().histogram("h")
        assert h.percentile(50) is None
        assert h.summary() == {"p50": None, "p90": None, "p99": None}
