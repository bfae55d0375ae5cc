"""Wire protocol of the parallel exploration engine.

Everything that crosses the process boundary lives here, and it is
deliberately *small*: a candidate travels as its tree assignment plus the
names of the variables being profiled (a few hundred bytes), never as a
built plan or a lowered schedule -- workers rebuild both deterministically
from the same enumerator inputs, which PR 4's signature machinery
guarantees are bit-identical (two plans with equal
:func:`~repro.perf.signature.plan_key` lower to bit-identical schedules).
Results travel back as slim :class:`~repro.runtime.executor.MiniBatchResult`
objects with the raw simulator output stripped, plus the event log the
wirer needs to replay its bookkeeping exactly (retry counters,
fault records, injector ledger entries, the worker's observer events) in
canonical candidate order.
"""

from __future__ import annotations

from dataclasses import replace
from typing import NamedTuple

# Plain classes and named tuples rather than dataclasses: every run
# imports this module, and creating a dataclass costs import time.


class WorkerSpec(NamedTuple):
    """Everything a worker needs to reconstruct the exploration world.

    Shipped once, pickled, through the pool initializer.  A worker built
    from the same spec as the wirer holds an enumerator, executor and
    lowering cache whose outputs are bit-identical to the parent's --
    the determinism the merge relies on.
    """

    graph: object
    device: object
    features: object
    seed: int
    validate: bool
    policy: object
    fast: object
    #: the :class:`~repro.faults.plan.FaultPlan`, or None; workers derive
    #: per-candidate injector sub-states from it
    fault_plan: object = None
    #: the parent's observer is enabled: workers record their own events
    #: (executor counters, lower/simulate spans) and ship them per outcome
    observe: bool = False


class CandidateTask(NamedTuple):
    """One configuration to measure, identified by value, not by object.

    ``base_minibatch`` is the global budget ordinal of the candidate's
    first sample (prior spent + samples charged by earlier candidates in
    the wave); it keys the injector and jitter sub-streams, so results
    depend only on *which* candidate this is -- never on worker count,
    scheduling order, or resume history.
    """

    ordinal: int
    strategy_id: int
    assignment: tuple  # sorted (name, choice) pairs; dicts don't hash
    live_names: tuple
    base_minibatch: int
    #: parent injector already fired its one-shot preemption
    preempted: bool = False

    def assignment_dict(self) -> dict:
        return dict(self.assignment)


class SampleRecord:
    """Event log of one measurement sample (one budget charge).

    ``aborts`` lists the transient faults the retry loop caught, in
    order, as (kind, message) pairs; ``result`` is the slim measurement,
    or None when the sample was lost (attempt budget exhausted) or cut
    short by a non-transient error recorded on the outcome.
    """

    def __init__(self, aborts: list | None = None, result=None):
        self.aborts = [] if aborts is None else aborts
        self.result = result


class CandidateOutcome:
    """Everything a worker observed measuring one candidate.

    Fields default as below; keyword arguments override them.
    """

    def __init__(self, ordinal: int, **fields):
        self.ordinal = ordinal
        self.samples: list = []  # [SampleRecord, ...]
        #: var name -> unit ids, from the worker-built plan (feeds the
        #: parent's metric extraction without shipping the plan itself)
        self.var_units: dict = {}
        #: observer events the worker recorded measuring this candidate
        #: (fault.* and check.* counters, lower/simulate spans), replayed
        #: by the parent at the candidate's canonical merge position;
        #: empty when the candidate was measured in the parent itself
        self.events: list = []
        #: injector sub-state side effects (None when no injector armed)
        self.injector_records: list = []
        self.injector_minibatch: int | None = None
        self.injector_preempted = False
        #: a non-transient error that aborted the candidate, pickled; the
        #: parent re-raises it at the canonical merge position
        self.error: bytes | None = None
        self.error_repr: str | None = None
        #: schedule-validation violations to replay into the run report
        self.violations: list = []  # [(label, kind, text)]
        #: set when the candidate's injector fired a scheduled preemption
        self.preempted_at: int | None = None
        #: worker wall seconds spent on this candidate (utilization metric)
        self.busy_s = 0.0
        #: os pid of the worker that measured this candidate (trace track key)
        self.worker_pid = 0
        for name, value in fields.items():
            if not hasattr(self, name):
                raise TypeError(f"unknown CandidateOutcome field {name!r}")
            setattr(self, name, value)

    @property
    def halts_merge(self) -> bool:
        """The wirer's merge stops at this candidate: it was cut short,
        or every sample was lost (the configuration is retried)."""
        return (
            self.preempted_at is not None
            or self.error is not None
            or self.error_repr is not None
            or all(record.result is None for record in self.samples)
        )


def slim_result(result, keep_units=None):
    """Strip the raw simulator output before shipping a result.

    ``raw`` holds every kernel record of the mini-batch -- two orders of
    magnitude more bytes than the per-unit times the wirer actually
    consumes.  When ``keep_units`` is given, ``unit_times`` is also
    filtered down to those unit ids: the parent's ``_metric_for`` only
    ever reads the units of this candidate's live variables, so shipping
    the rest of the schedule's per-unit times is pure IPC weight.  The
    remaining wirer-facing fields round-trip untouched.
    """
    unit_times = result.unit_times
    if keep_units is not None:
        unit_times = {
            uid: t for uid, t in unit_times.items() if uid in keep_units
        }
    return replace(result, raw=None, unit_times=unit_times)
