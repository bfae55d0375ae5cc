"""Noise-robust measurement policy: min-of-k with MAD outlier rejection.

Astra's exploration trusts single mini-batch measurements because the
paper pins the GPU to its base clock (section 7).  When that assumption
breaks -- autoboost jitter, throttle windows, multi-tenant stragglers,
plausibly-corrupted timestamps -- a single sample can crown the wrong
configuration.  The standard hardening (Learning to Optimize Tensor
Programs does the same for real-hardware measurement loops) is to
re-measure each configuration k times, reject outliers by robust
statistics, and score the configuration by the *minimum* surviving
sample: minimum, because timing noise on a deterministic device is
one-sided -- interference only ever adds time.

The policy also owns the failure-handling knobs: how many times a
measurement aborted by a transient fault is retried, how the retry
backoff grows, and when a configuration that keeps faulting is
quarantined out of the search space.  The custom-wirer's sample/retry
loop (:meth:`~repro.core.wirer.CustomWirer._measure`) applies a policy
to each built plan, with :data:`SIM_STREAM_TAG` separating each
measurement's simulator jitter substream; a quarantined configuration is
recorded as :data:`QUARANTINED_US`.
"""

from __future__ import annotations

from dataclasses import dataclass

#: profile-index value recorded for quarantined configurations: large
#: enough that finalize() never picks one over any real measurement, small
#: enough to survive a strict-JSON round trip (unlike infinity)
QUARANTINED_US = 1.0e30

#: domain-separation tag for per-candidate simulator jitter substreams
SIM_STREAM_TAG = 0x51B0


@dataclass(frozen=True)
class MeasurementPolicy:
    """How the custom-wirer turns executions into trusted measurements."""

    #: mini-batches spent per configuration (min-of-k; 1 = paper behavior)
    samples: int = 1
    #: modified-z-score cutoff for MAD outlier rejection of the k samples
    mad_threshold: float = 3.5
    #: attempts per sample when a transient fault aborts the mini-batch
    max_attempts: int = 3
    #: mini-batches of backoff charged after attempt i (grows 2**i); models
    #: waiting out interference instead of hammering a faulting device
    backoff_minibatches: int = 1
    #: consecutive fully-failed measurements before a configuration is
    #: quarantined (recorded as QUARANTINED_US so exploration moves on)
    quarantine_after: int = 1

    def __post_init__(self) -> None:
        if self.samples < 1:
            raise ValueError(f"samples must be >= 1, got {self.samples}")
        if self.max_attempts < 1:
            raise ValueError(f"max_attempts must be >= 1, got {self.max_attempts}")

    def backoff_for(self, attempt: int) -> int:
        """Backoff (in mini-batches) charged before retry ``attempt``."""
        if attempt <= 0 or self.backoff_minibatches <= 0:
            return 0
        return self.backoff_minibatches * 2 ** (attempt - 1)


#: the paper's trusting single-sample policy
TRUSTING = MeasurementPolicy()
#: hardened policy for noisy/faulty environments (chaos runs default here)
ROBUST = MeasurementPolicy(samples=3, max_attempts=4, quarantine_after=2)


def median(values: list[float]) -> float:
    ordered = sorted(values)
    n = len(ordered)
    if n == 0:
        raise ValueError("median of no values")
    mid = n // 2
    if n % 2:
        return ordered[mid]
    return 0.5 * (ordered[mid - 1] + ordered[mid])


def mad(values: list[float], center: float | None = None) -> float:
    """Median absolute deviation -- the robust spread estimate."""
    if center is None:
        center = median(values)
    return median([abs(v - center) for v in values])


def reject_outliers(values: list[float], threshold: float = 3.5) -> list[float]:
    """Drop samples whose modified z-score ``0.6745*(x-med)/MAD`` exceeds
    ``threshold`` (Iglewicz & Hoaglin).  With fewer than three samples, or
    zero spread, every sample is kept."""
    if len(values) < 3:
        return list(values)
    med = median(values)
    spread = mad(values, med)
    if spread <= 0.0:
        return list(values)
    kept = [v for v in values if abs(0.6745 * (v - med) / spread) <= threshold]
    return kept or [med]


def robust_min(values: list[float], threshold: float = 3.5) -> float:
    """Min-of-k after MAD rejection: the configuration's trusted score.

    Rejection matters on the *low* side: a corrupted timestamp that
    deflates a duration would otherwise win the min outright."""
    return min(reject_outliers(values, threshold))
