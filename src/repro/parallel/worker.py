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
:class:`~repro.parallel.wire.WorkerSpec`; at width 1 the wirer lends its
own, so the loop runs in the caller with no second pipeline.
"""

from __future__ import annotations

import os
import pickle
import time

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
        if enumerator is None:
            enumerator = Enumerator(
                spec.graph, spec.device, spec.features,
                cache_units=spec.fast.cache,
            )
        if executor is None:
            executor = Executor(
                spec.graph, spec.device, seed=spec.seed,
                validate=spec.validate,
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
    pure-float :func:`~repro.perf.ranker.estimate_choice_us` the
    in-process pre-ranker uses -- bit-identical across processes.
    """
    from ..perf.ranker import estimate_choice_us

    strategy = state.strategies[strategy_id]
    out = []
    for name in names:
        var = state._vars_for(strategy_id)[name]
        out.append([
            estimate_choice_us(
                state.enumerator, strategy, var, choice, state.spec.device
            )
            for choice in var.choices
        ])
    return out


def run_shard(state: WorkerState, tasks: list) -> list:
    """Measure a contiguous shard of candidates, in ordinal order.

    Stops after a candidate that halts the merge: the wave's later
    candidates would be discarded unread.
    """
    outcomes = []
    for task in tasks:
        outcomes.append(measure_candidate(state, task))
        if outcomes[-1].halts_merge:
            break
    return outcomes


def measure_candidate(state: WorkerState, task: CandidateTask) -> CandidateOutcome:
    """Build one fk candidate's plan from its assignment and measure it."""
    strategy = state.strategies[task.strategy_id]
    built = state.enumerator.build_plan(
        strategy, task.assignment_dict(), profile_vars=set(task.live_names),
    )
    return measure_plan(
        state.executor, state.spec, built.plan, built.var_units,
        base_minibatch=task.base_minibatch, preempted=task.preempted,
        ordinal=task.ordinal, trace=state.spec.trace,
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
    trace: bool = False,
) -> CandidateOutcome:
    """Measure one built plan under the policy and log what happened.

    Up to ``samples`` (default ``policy.samples``) mini-batches, each
    retried on transient faults up to ``policy.max_attempts``; a retried
    plan is statically re-validated even in unvalidated mode.  The
    executor's metrics registry, injector and jitter stream are swapped
    for per-candidate ones and restored on the way out, so the result
    depends only on (spec, plan, ``base_minibatch``).
    """
    from ..check import ScheduleValidationError
    from ..faults.events import FaultError, PreemptionError
    from ..faults.injector import FaultInjector
    from ..obs.metrics import Counter, MetricsRegistry

    out = CandidateOutcome(
        ordinal=ordinal, var_units=var_units, worker_pid=os.getpid()
    )
    keep_units = {uid for ids in var_units.values() for uid in ids}
    start = time.perf_counter()
    registry = MetricsRegistry()
    injector = None
    if spec.fault_plan is not None and spec.fault_plan.specs:
        injector = FaultInjector.for_candidate(
            spec.fault_plan, base_minibatch, preempted=preempted
        )
    simulator = executor._simulator
    saved = (executor.metrics, executor.injector, simulator.injector,
             simulator._rng)
    executor.metrics = registry
    executor.injector = simulator.injector = injector
    simulator.reseed((spec.seed, SIM_STREAM_TAG, base_minibatch))
    try:
        for sample_no in range(spec.policy.samples if samples is None else samples):
            record = SampleRecord()
            out.samples.append(record)
            attempts = 0
            sample_start = time.perf_counter()
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
            if trace:
                now = time.perf_counter()
                out.spans.append({
                    "ph": "X",
                    "name": f"sample {plan.label}",
                    "cat": "worker",
                    "ts": (sample_start - start) * 1e6,
                    "dur": (now - sample_start) * 1e6,
                    "args": {
                        "ordinal": ordinal,
                        "sample": sample_no,
                        "retries": attempts,
                        "sim_us": (
                            record.result.total_time_us
                            if record.result is not None else None
                        ),
                    },
                })
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
        (executor.metrics, executor.injector, simulator.injector,
         simulator._rng) = saved
    if injector is not None:
        out.injector_records = list(injector.ledger)
        out.injector_minibatch = injector.minibatch
        out.injector_preempted = injector._preempted
    out.counters = {
        name: metric.value
        for name, metric in registry._instruments.items()
        if isinstance(metric, Counter) and metric.value
    }
    out.busy_s = time.perf_counter() - start
    return out


def _encode_error(exc) -> tuple:
    try:
        return pickle.dumps(exc), repr(exc)
    except Exception:
        return None, repr(exc)
