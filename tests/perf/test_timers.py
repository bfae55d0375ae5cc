"""The observer's phase view: exclusive nesting accounting and the
disabled default."""

import time

from repro.obs.observer import NULL_OBSERVER, Observer


class TestPhaseClock:
    def test_single_phase_records_time_and_count(self):
        observer = Observer()
        with observer.span("work"):
            time.sleep(0.01)
        assert observer.phases()["work"] >= 0.009
        assert [e[1] for e in observer.events] == ["work"]

    def test_nested_phase_is_exclusive(self):
        """A nested span pauses the enclosing one: the inner sleep must
        be charged to the inner phase only."""
        observer = Observer()
        with observer.span("outer"):
            time.sleep(0.005)
            with observer.span("inner"):
                time.sleep(0.02)
            time.sleep(0.005)
        phases = observer.phases()
        assert phases["inner"] >= 0.018
        # outer gets only its own ~10ms, never the inner 20ms
        assert phases["outer"] < 0.018
        assert set(phases) == {"outer", "inner"}

    def test_phases_sum_to_timed_wall(self):
        observer = Observer()
        start = time.perf_counter()
        with observer.span("a"):
            time.sleep(0.004)
            with observer.span("b"):
                time.sleep(0.004)
            with observer.span("c"):
                time.sleep(0.004)
        wall = time.perf_counter() - start
        phases = observer.phases()
        assert abs(sum(phases.values()) - wall) < 0.005
        assert set(phases) == {"a", "b", "c"}

    def test_reentry_accumulates(self):
        observer = Observer()
        for _ in range(3):
            with observer.span("hot"):
                pass
        assert sum(1 for e in observer.events if e[1] == "hot") == 3
        assert observer.phases()["hot"] >= 0.0

    def test_exception_still_closes_phase(self):
        observer = Observer()
        try:
            with observer.span("outer"):
                with observer.span("boom"):
                    raise RuntimeError("x")
        except RuntimeError:
            pass
        assert set(observer.phases()) == {"outer", "boom"}

    def test_snapshot_shape(self):
        """Only spans make phases: instants, metric updates and
        decisions recorded inside one add no row of their own."""
        observer = Observer()
        with observer.span("a"):
            observer.instant("mark")
            observer.count("c")
            observer.decision("warm", source="s", entries=1, digest=None)
        assert set(observer.phases()) == {"a"}
        assert [e[0] for e in observer.events] == [
            "instant", "counter", "decision", "span",
        ]


class TestNullClock:
    def test_phase_is_noop_context(self):
        with NULL_OBSERVER.span("anything") as span:
            assert span is None
        NULL_OBSERVER.count("c")
        assert NULL_OBSERVER.events == []
        assert NULL_OBSERVER.phases() == {}

    def test_shared_instance(self):
        assert not NULL_OBSERVER.enabled
        assert NULL_OBSERVER.span("a") is NULL_OBSERVER.span("b")
