"""Lightweight counter/gauge/histogram/series registry.

The observability counterpart of the profile index: where the index stores
*measurements that drive adaptation*, the registry stores *metrics that
describe the adaptation itself* -- configs explored, index hits vs misses
per phase, per-phase mini-batch time distributions, and the convergence
curve of the best-so-far end-to-end time.

Instrumented code does not hold a registry: it records metric updates
and decisions on an :class:`~repro.obs.observer.Observer`, whose
:meth:`~repro.obs.observer.Observer.metrics` view folds them into one.
"""

from __future__ import annotations

import json
import math


class Counter:
    """Monotonically increasing count."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0

    def inc(self, n: int = 1) -> None:
        self.value += n

    def snapshot(self) -> dict:
        return {"type": "counter", "value": self.value}


class Gauge:
    """Last-write-wins scalar."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)

    def snapshot(self) -> dict:
        return {"type": "gauge", "value": self.value}


class Histogram:
    """Streaming distribution: count/sum/min/max plus power-of-two buckets.

    Buckets are keyed by the upper bound ``2**i`` (in the observed unit);
    the layout is fixed so histograms from different runs merge trivially.
    """

    __slots__ = ("name", "count", "total", "min", "max", "buckets")

    def __init__(self, name: str):
        self.name = name
        self.count = 0
        self.total = 0.0
        self.min = math.inf
        self.max = -math.inf
        self.buckets: dict[float, int] = {}

    def observe(self, value: float) -> None:
        value = float(value)
        self.count += 1
        self.total += value
        self.min = min(self.min, value)
        self.max = max(self.max, value)
        bound = 2.0 ** math.ceil(math.log2(value)) if value > 0 else 0.0
        self.buckets[bound] = self.buckets.get(bound, 0) + 1

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def percentile(self, q: float) -> float | None:
        """Estimate the ``q``-th percentile (``0 < q <= 100``) from the
        power-of-two buckets: find the bucket holding the target rank and
        interpolate linearly across its ``(bound/2, bound]`` range,
        clamped to the observed min/max (exact at the distribution tails,
        within a factor-of-two bucket elsewhere)."""
        if not 0.0 < q <= 100.0:
            raise ValueError(f"percentile q must be in (0, 100], got {q!r}")
        if self.count == 0:
            return None
        target = q / 100.0 * self.count
        cumulative = 0
        for bound in sorted(self.buckets):
            in_bucket = self.buckets[bound]
            if cumulative + in_bucket >= target:
                lo = bound / 2.0 if bound > 0 else 0.0
                fraction = (target - cumulative) / in_bucket
                value = lo + fraction * (bound - lo)
                return min(max(value, self.min), self.max)
            cumulative += in_bucket
        return self.max

    def summary(self) -> dict:
        """The serving-latency view: p50/p90/p99."""
        return {f"p{q}": self.percentile(q) for q in (50, 90, 99)}

    def snapshot(self) -> dict:
        return {
            "type": "histogram",
            "count": self.count,
            "sum": self.total,
            "min": self.min if self.count else None,
            "max": self.max if self.count else None,
            "mean": self.mean,
            **self.summary(),
            "buckets": {str(k): v for k, v in sorted(self.buckets.items())},
        }


class Series:
    """Append-only (step, value) sequence -- e.g. the convergence curve of
    the best-so-far end-to-end mini-batch time over exploration steps."""

    __slots__ = ("name", "points")

    def __init__(self, name: str):
        self.name = name
        self.points: list[tuple[int, float]] = []

    def append(self, value: float, step: int | None = None) -> None:
        if step is None:
            step = self.points[-1][0] + 1 if self.points else 0
        self.points.append((step, float(value)))

    @property
    def last(self) -> float | None:
        return self.points[-1][1] if self.points else None

    def snapshot(self) -> dict:
        return {"type": "series", "points": [[s, v] for s, v in self.points]}


_KINDS = {"counter": Counter, "gauge": Gauge, "histogram": Histogram, "series": Series}


class MetricsRegistry:
    """Name-keyed store of instruments; get-or-create per name."""

    def __init__(self) -> None:
        self._instruments: dict[str, object] = {}

    def _get(self, name: str, cls):
        instrument = self._instruments.get(name)
        if instrument is None:
            instrument = cls(name)
            self._instruments[name] = instrument
        elif not isinstance(instrument, cls):
            raise TypeError(
                f"metric {name!r} already registered as "
                f"{type(instrument).__name__}, requested {cls.__name__}"
            )
        return instrument

    def counter(self, name: str) -> Counter:
        return self._get(name, Counter)

    def gauge(self, name: str) -> Gauge:
        return self._get(name, Gauge)

    def histogram(self, name: str) -> Histogram:
        return self._get(name, Histogram)

    def series(self, name: str) -> Series:
        return self._get(name, Series)

    def __len__(self) -> int:
        return len(self._instruments)

    def __contains__(self, name: str) -> bool:
        return name in self._instruments

    def snapshot(self) -> dict:
        """Plain-data dump of every instrument, sorted by name."""
        return {
            name: self._instruments[name].snapshot()
            for name in sorted(self._instruments)
        }

    def to_json(self, **kwargs) -> str:
        return json.dumps({"version": 1, "metrics": self.snapshot()}, **kwargs)
