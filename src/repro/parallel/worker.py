"""The measurement half of the exploration engine.

:func:`measure_plan` is the wirer's one sample/retry loop: up to
``policy.samples`` mini-batches of a built plan, each retried on
transient faults, against a per-candidate injector sub-state and jitter
sub-stream keyed by the candidate's global mini-batch ordinal.  Instead
of *acting* on what it observes (counters, fault logs, quarantine), it
records an event log, a :class:`~repro.parallel.wire.CandidateOutcome`,
which the wirer replays in canonical order.  Every phase measures
through it: fk candidates by way of :func:`measure_candidate`, which
first builds the plan from a shipped assignment, and the stream,
compare and production phases directly.

A :class:`WorkerState` holds one measurement pipeline -- enumerator,
lowering cache, executor.  A pool process builds its own from the
:class:`~repro.parallel.wire.WorkerSpec`, with its own observer whose
events ship with each outcome; at width 1 the wirer lends its own, so
the loop runs in the caller with no second pipeline and records straight
into the wirer's observer.
"""

from __future__ import annotations

import os
import pickle
import time

from ..check.violations import ScheduleValidationError
from ..faults.events import FaultError, PreemptionError
from ..obs.observer import NULL_OBSERVER, Observer
from .wire import CandidateOutcome, CandidateTask, SampleRecord, WorkerSpec, slim_result

#: domain-separation tag for per-candidate simulator jitter substreams
SIM_STREAM_TAG = 0x51B0


class WorkerState:
    """One measurement pipeline, built from ``spec`` unless lent."""

    def __init__(self, spec: WorkerSpec, enumerator=None, executor=None):
        from ..core.enumerator import Enumerator
        from ..perf.cache import LoweringCache
        from ..runtime.executor import Executor

        self.spec = spec
        #: the observer a pool process records into, drained into each
        #: outcome; None for a lent pipeline
        self.outbox = None
        if enumerator is None:
            enumerator = Enumerator(
                spec.graph, spec.device, spec.features,
                cache_units=spec.fast.cache,
            )
        if executor is None:
            self.outbox = Observer() if spec.observe else NULL_OBSERVER
            executor = Executor(
                spec.graph, spec.device, seed=spec.seed,
                validate=spec.validate, observer=self.outbox,
                cache=LoweringCache() if spec.fast.cache else None,
            )
        self.enumerator = enumerator
        self.executor = executor
        self.strategies = {
            s.strategy_id: s for s in self.enumerator.strategies
        }
        #: strategy_id -> {var name -> var} of an unpruned fk tree;
        #: estimates must see the same choice lists the parent's
        #: unpruned tree has
        self._fk_vars: dict[int, dict] = {}

    def _vars_for(self, strategy_id: int) -> dict:
        cached = self._fk_vars.get(strategy_id)
        if cached is None:
            tree = self.enumerator.build_fk_tree(self.strategies[strategy_id])
            cached = {v.name: v for v in tree.variables()}
            self._fk_vars[strategy_id] = cached
        return cached


def run_estimates(state: WorkerState, strategy_id: int, names: list) -> list:
    """Cost-model estimates for a shard of fk variables.

    Returns one per-choice estimate list per name, computed by the same
    pure-float :func:`~repro.perf.ranker.estimate_choices_us` the
    in-process pre-ranker uses -- bit-identical across processes.
    """
    from ..perf.ranker import estimate_choices_us

    strategy = state.strategies[strategy_id]
    gemm_us: dict = {}
    with state.spec.graph.memoized():
        return [
            estimate_choices_us(
                state.enumerator, strategy, state._vars_for(strategy_id)[name],
                state.spec.device, gemm_us=gemm_us,
            )
            for name in names
        ]


def run_shard(state: WorkerState, tasks: list) -> list:
    """Measure a contiguous shard of candidates, in ordinal order.

    Stops after a candidate that halts the merge: the wave's later
    candidates would be discarded unread.
    """
    outcomes = []
    with state.spec.graph.memoized():
        for task in tasks:
            outcome = measure_candidate(state, task)
            if state.outbox is not None:
                outcome.events = state.outbox.drain()
            outcomes.append(outcome)
            if outcome.halts_merge:
                break
    return outcomes


def measure_candidate(state: WorkerState, task: CandidateTask) -> CandidateOutcome:
    """Build one fk candidate's plan from its assignment and measure it."""
    strategy = state.strategies[task.strategy_id]
    with state.executor.observer.span("enumerate"):
        built = state.enumerator.build_plan(
            strategy, task.assignment_dict(), profile_vars=set(task.live_names),
        )
    return measure_plan(
        state.executor, state.spec, built.plan, built.var_units,
        base_minibatch=task.base_minibatch, preempted=task.preempted,
        ordinal=task.ordinal,
    )


def measure_plan(
    executor,
    spec: WorkerSpec,
    plan,
    var_units: dict,
    *,
    base_minibatch: int,
    preempted: bool = False,
    samples: int | None = None,
    ordinal: int = 0,
) -> CandidateOutcome:
    """Measure one built plan under the policy and log what happened.

    Up to ``samples`` (default ``policy.samples``) mini-batches, each
    retried on transient faults up to ``policy.max_attempts``; a retried
    plan is statically re-validated even in unvalidated mode.  The
    executor's injector and jitter stream are swapped for per-candidate
    ones and restored on the way out, so the result depends only on
    (spec, plan, ``base_minibatch``).
    """
    out = CandidateOutcome(
        ordinal=ordinal, var_units=var_units, worker_pid=os.getpid()
    )
    keep_units = {uid for ids in var_units.values() for uid in ids}
    start = time.perf_counter()
    injector = None
    if spec.fault_plan is not None and spec.fault_plan.specs:
        from ..faults.injector import FaultInjector

        injector = FaultInjector.for_candidate(
            spec.fault_plan, base_minibatch, preempted=preempted
        )
    simulator = executor._simulator
    saved = (executor.injector, simulator.injector,
             simulator._seed, simulator._rng)
    executor.injector = simulator.injector = injector
    simulator.reseed((spec.seed, SIM_STREAM_TAG, base_minibatch))
    try:
        for _sample in range(spec.policy.samples if samples is None else samples):
            record = SampleRecord()
            out.samples.append(record)
            attempts = 0
            while True:
                try:
                    validate = True if attempts > 0 and not spec.validate else None
                    result = executor.run(plan, validate=validate)
                except FaultError as exc:
                    if not exc.transient:
                        raise
                    attempts += 1
                    record.aborts.append((exc.kind, str(exc)))
                    if attempts >= spec.policy.max_attempts:
                        break  # sample lost; result stays None
                    continue
                record.result = slim_result(result, keep_units)
                break
    except PreemptionError as exc:
        out.preempted_at = exc.minibatch
    except ScheduleValidationError as exc:
        out.violations = [
            (plan.label, violation.kind, str(violation))
            for violation in exc.report.violations
        ]
        out.error, out.error_repr = _encode_error(exc)
    except FaultError as exc:  # non-transient: OOM window, etc.
        out.error, out.error_repr = _encode_error(exc)
    finally:
        (executor.injector, simulator.injector,
         simulator._seed, simulator._rng) = saved
    if injector is not None:
        out.injector_records = list(injector.ledger)
        out.injector_minibatch = injector.minibatch
        out.injector_preempted = injector._preempted
    out.busy_s = time.perf_counter() - start
    return out


def _encode_error(exc) -> tuple:
    try:
        return pickle.dumps(exc), repr(exc)
    except Exception:
        return None, repr(exc)
