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
quarantined out of the search space.  :func:`measure_plan` is the one
sample/retry loop that applies a policy to a built plan; every
exploration phase measures through it.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..check.violations import ScheduleValidationError
from ..faults.events import FaultError, PreemptionError

#: profile-index value recorded for quarantined configurations: large
#: enough that finalize() never picks one over any real measurement, small
#: enough to survive a strict-JSON round trip (unlike infinity)
QUARANTINED_US = 1.0e30


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


# -- the sample/retry loop ---------------------------------------------------

#: domain-separation tag for per-candidate simulator jitter substreams
SIM_STREAM_TAG = 0x51B0


class SampleRecord:
    """Event log of one measurement sample (one budget charge).

    ``aborts`` lists the transient faults the retry loop caught, in
    order, as (kind, message) pairs; ``result`` is the measurement, or
    None when the sample was lost (attempt budget exhausted) or cut
    short by a non-transient error recorded on the outcome.
    """

    def __init__(self, aborts: list | None = None, result=None):
        self.aborts = [] if aborts is None else aborts
        self.result = result


class CandidateOutcome:
    """Everything measuring one configuration observed.

    Fields default as below; keyword arguments override them.
    """

    def __init__(self, **fields):
        self.samples: list = []  # [SampleRecord, ...]
        #: injector sub-state side effects (None when no injector armed)
        self.injector_records: list = []
        self.injector_minibatch: int | None = None
        self.injector_preempted = False
        #: a non-transient error that aborted the configuration; the
        #: wirer raises it once the samples before it are accounted for
        self.error: BaseException | None = None
        #: schedule-validation violations to record in the run report
        self.violations: list = []  # [(label, kind, text)]
        #: set when the candidate's injector fired a scheduled preemption
        self.preempted_at: int | None = None
        for name, value in fields.items():
            if not hasattr(self, name):
                raise TypeError(f"unknown CandidateOutcome field {name!r}")
            setattr(self, name, value)


def measure_plan(
    executor,
    plan,
    policy: MeasurementPolicy,
    *,
    seed: int,
    base_minibatch: int,
    faults=None,
    preempted: bool = False,
    samples: int | None = None,
) -> CandidateOutcome:
    """Measure one built plan under ``policy`` and log what happened.

    Up to ``samples`` (default ``policy.samples``) mini-batches, each
    retried on transient faults up to ``policy.max_attempts``; a retried
    plan is statically re-validated even when ``executor`` runs
    unvalidated.  The executor's injector and jitter stream are swapped
    for ones derived from ``faults`` (a
    :class:`~repro.faults.plan.FaultPlan`, or None), ``seed`` and
    ``base_minibatch`` -- the global ordinal of the first sample -- and
    restored on the way out, so the result depends only on the plan and
    which mini-batch it starts at.  Instead of *acting* on what it
    observes, the loop returns a :class:`CandidateOutcome`, which the
    wirer accounts for.
    """
    out = CandidateOutcome()
    injector = None
    if faults is not None and faults.specs:
        from ..faults.injector import FaultInjector

        injector = FaultInjector.for_candidate(
            faults, base_minibatch, preempted=preempted
        )
    simulator = executor._simulator
    saved = (executor.injector, simulator.injector,
             simulator._seed, simulator._rng)
    executor.injector = simulator.injector = injector
    simulator.reseed((seed, SIM_STREAM_TAG, base_minibatch))
    try:
        for _sample in range(policy.samples if samples is None else samples):
            record = SampleRecord()
            out.samples.append(record)
            attempts = 0
            while True:
                try:
                    validate = True if attempts and not executor.validate else None
                    result = executor.run(plan, validate=validate)
                except FaultError as exc:
                    if not exc.transient:
                        raise
                    attempts += 1
                    record.aborts.append((exc.kind, str(exc)))
                    if attempts >= policy.max_attempts:
                        break  # sample lost; result stays None
                    continue
                record.result = result
                break
    except PreemptionError as exc:
        out.preempted_at = exc.minibatch
    except ScheduleValidationError as exc:
        out.violations = [
            (plan.label, violation.kind, str(violation))
            for violation in exc.report.violations
        ]
        out.error = exc
    except FaultError as exc:  # non-transient: OOM window, etc.
        out.error = exc
    finally:
        (executor.injector, simulator.injector,
         simulator._seed, simulator._rng) = saved
    if injector is not None:
        out.injector_records = list(injector.ledger)
        out.injector_minibatch = injector.minibatch
        out.injector_preempted = injector._preempted
    return out
