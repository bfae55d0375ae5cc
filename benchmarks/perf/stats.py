"""Statistics rules of the benchmark and the order samples run in."""

from __future__ import annotations

import statistics


def hi(values) -> tuple[float, float] | None:
    """The highest percentile with at least 10 samples beyond it, as
    ``(percentile, value)``; None when there are 10 samples or fewer."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= 10:
        return None
    return 100.0 * (n - 10) / n, ordered[n - 11]


def summary(values) -> dict:
    """Median, quartiles, ``n`` and ``hi`` of one timing's samples."""
    values = list(values)
    n = len(values)
    if n == 1:
        q1 = q3 = values[0]
    else:
        q1, _median, q3 = statistics.quantiles(values, n=4)
    high = hi(values)
    return {
        "value": statistics.median(values),
        "q1": q1,
        "q3": q3,
        "n": n,
        "hi_pct": high[0] if high else None,
        "hi": high[1] if high else None,
    }


def spread(entry: dict) -> float:
    """Quartile spread of a summarized timing, as a share of its median."""
    return (entry["q3"] - entry["q1"]) / entry["value"] if entry["value"] else 0.0


def interleave(counts: dict) -> list:
    """Every key repeated ``counts[key]`` times, spread evenly so that any
    stretch of the result holds the keys in proportion to their counts
    (a slow minute of the host then hits every key alike)."""
    slots = [
        ((i + 0.5) / count, order, key)
        for order, (key, count) in enumerate(counts.items())
        for i in range(count)
    ]
    return [key for _pos, _order, key in sorted(slots)]
