"""The custom-wirer: Astra's runtime half.

Section 4.7: takes the enumerator's templated schedules, runs one
configuration per training mini-batch (work-conserving exploration:
every exploration mini-batch still advances training), feeds fine-grained
measurements into the profile index, drives the update tree, and finally
custom-wires the job to the best configuration found.

Exploration proceeds per allocation strategy (the hierarchical fork of
section 4.5.2): within each strategy, a fusion/kernel phase (parallel
exploration over independent variables), then a stream phase (barrier +
prefix exploration), then the per-strategy best configurations are
compared end to end.

The wirer is hardened against the fault classes in :mod:`repro.faults`:
measurements can be taken min-of-k with MAD outlier rejection
(:class:`~repro.core.measurement.MeasurementPolicy`), mini-batches
aborted by transient faults are retried with bounded backoff (and the
re-executed schedule is re-validated by :mod:`repro.check`),
configurations that keep faulting are quarantined out of the search
space, allocation strategies whose arenas cannot fit usable device
memory are pruned, a run that cannot make progress degrades gracefully
to the native plan, and a preempted run checkpoints its exploration
state (see :mod:`repro.faults.checkpoint`) so a restart resumes instead
of re-exploring.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..faults.checkpoint import ExplorationCheckpoint
from ..faults.events import DeviceOOMError, PreemptionError
from ..gpu.device import GPUSpec
from ..ir.graph import Graph
from ..obs.metrics import NULL_REGISTRY, MetricsRegistry
from ..obs.provenance import NULL_PROVENANCE
from ..obs.report import KIND_COMPARE, KIND_EXPLORE, KIND_PRODUCTION, NULL_REPORTER, RunReporter
from ..obs.trace import NULL_TRACER
from ..parallel.engine import (
    HIT,
    STATUS_BUDGET,
    STATUS_EXHAUSTED,
    ParallelEngine,
    plan_wave,
)
from ..parallel.pool import InlinePool, make_pool
from ..parallel.wire import CandidateOutcome, CandidateTask, WorkerSpec
from ..parallel.worker import WorkerState, measure_plan, run_shard
from ..perf.cache import LoweringCache
from ..perf.ranker import FastPath, prune_fk_tree
from ..perf.timers import NULL_CLOCK
from ..runtime.executor import Executor, MiniBatchResult
from ..runtime.plan import ExecutionPlan
from .adaptive import AdaptiveVariable, UpdateNode
from .allocation import AllocationStrategy
from .enumerator import AstraFeatures, BuiltPlan, Enumerator
from .epochs import EpochPartition
from .measurement import QUARANTINED_US, TRUSTING, MeasurementPolicy, robust_min
from .profile_index import ProfileIndex, mangle

#: sentinel distinguishing "variable never assigned" from any real choice
_UNSET = object()


@dataclass
class PhaseStats:
    name: str
    minibatches: int = 0
    index_hits: int = 0

    @property
    def index_hit_rate(self) -> float:
        """Fraction of this phase's configurations answered from the
        profile index instead of spending a training mini-batch."""
        total = self.minibatches + self.index_hits
        return self.index_hits / total if total else 0.0


@dataclass
class AstraReport:
    """Outcome of one optimization run."""

    best_plan: ExecutionPlan
    best_time_us: float
    best_strategy: AllocationStrategy
    configs_explored: int
    exploration_time_us: float
    phases: list[PhaseStats]
    profile_entries: int
    #: mean fraction of mini-batch time spent on profiling events
    profiling_overhead: float
    #: per-strategy best end-to-end times
    strategy_times: dict[int, float]
    #: chosen assignment of every adaptive variable
    assignment: dict[str, object] = field(default_factory=dict)
    #: per exploration mini-batch: (phase name, mini-batch time in us);
    #: the work-conservation record -- every entry was real training work
    timeline: list[tuple[str, float]] = field(default_factory=list)
    #: True when the wirer fell back to the native plan because no
    #: explored strategy could make progress (see docs/robustness.md)
    degraded: bool = False
    #: injected-fault accounting from the fault injector's ledger
    fault_summary: dict = field(default_factory=dict)
    #: arena footprint of the chosen plan vs device capacity
    memory: dict = field(default_factory=dict)
    #: fast-path accounting: compilation-cache stats, pruning counts
    #: (see docs/performance.md)
    fast_path: dict = field(default_factory=dict)
    #: warm-start accounting: entries seeded from a ProfileStore or a
    #: serve daemon before exploration began (see docs/serving.md)
    warm: dict = field(default_factory=dict)
    #: exploration decision history (candidates, decisive measurements,
    #: prune verdicts, quarantines); NULL_PROVENANCE unless requested
    provenance: object = NULL_PROVENANCE

    def amortization(self, native_time_us: float) -> "Amortization":
        """How quickly the exploration pays for itself.

        Exploration mini-batches are slower than the final custom-wired
        plan but still do real training work; relative to running native
        forever, the extra cost is recouped after a number of
        steady-state mini-batches (the paper runs "a few thousand out of
        millions", section 4.2).
        """
        explored = sum(t for _phase, t in self.timeline)
        native_equivalent = native_time_us * len(self.timeline)
        overhead_vs_native = explored - native_equivalent
        gain_per_batch = native_time_us - self.best_time_us
        breakeven = (
            overhead_vs_native / gain_per_batch if gain_per_batch > 0 else float("inf")
        )
        return Amortization(
            exploration_minibatches=len(self.timeline),
            exploration_time_us=explored,
            overhead_vs_native_us=max(0.0, overhead_vs_native),
            breakeven_minibatches=max(0.0, breakeven),
        )


@dataclass
class Amortization:
    """Cost/benefit of the online exploration vs running native."""

    exploration_minibatches: int
    exploration_time_us: float
    overhead_vs_native_us: float
    #: steady-state mini-batches until the exploration overhead is repaid
    breakeven_minibatches: float


class CustomWirer:
    """Runs the online exploration for one traced graph on one device."""

    def __init__(
        self,
        graph: Graph,
        device: GPUSpec,
        features: AstraFeatures,
        seed: int = 0,
        context: tuple = (),
        index: ProfileIndex | None = None,
        metrics: MetricsRegistry | None = None,
        reporter: RunReporter | None = None,
        tracer=None,
        validate: bool = False,
        policy: MeasurementPolicy | None = None,
        faults=None,
        checkpoint_path: str | None = None,
        fast: FastPath | None = None,
        clock=None,
        workers: int = 1,
        provenance=None,
        learned=None,
    ):
        self.graph = graph
        self.device = device
        self.features = features
        self.seed = seed
        self.index = index if index is not None else ProfileIndex()
        self.base_context = context
        # observability hooks; null objects when not requested, so the
        # instrumented paths cost nothing and change nothing when disabled
        self.metrics = metrics if metrics is not None else NULL_REGISTRY
        self.reporter = reporter if reporter is not None else NULL_REPORTER
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.provenance = provenance if provenance is not None else NULL_PROVENANCE
        # fast path (docs/performance.md): compilation caching is on by
        # default (bit-identical lowering by construction); cost-model
        # pruning is opt-in at this layer, the CLI flips it on
        self.fast = fast if fast is not None else FastPath()
        self.clock = clock if clock is not None else NULL_CLOCK
        # learned fast path (docs/learning.md): a trained cost-model
        # artifact (path, JSON text, model, or pre-bound ranker) prunes
        # the fk space down to its top-k + uncertainty band.  A corrupt
        # or stale artifact is refused here -- counted, recorded in the
        # report, and the run falls back to the exact paths above
        self.learned = None
        self._learned_rejected: str | None = None
        if learned is not None:
            from ..learn.model import ModelArtifactError, StaleModelError
            from ..learn.ranker import LearnedRanker

            try:
                self.learned = LearnedRanker.bind(learned, metrics=self.metrics)
            except StaleModelError as exc:
                self._learned_rejected = str(exc)
                self.metrics.counter("learn.artifact_stale").inc()
                self.metrics.counter("learn.artifact_rejected").inc()
            except ModelArtifactError as exc:
                self._learned_rejected = str(exc)
                self.metrics.counter("learn.artifact_rejected").inc()
        # validated execution: every explored configuration is statically
        # checked (repro.check) before it runs; violations surface as
        # metrics counters and run-report records, then abort the run
        self.validate = validate
        # measurement policy + fault injection (docs/robustness.md); the
        # defaults -- single trusting sample, no injector -- reproduce the
        # paper's base-clock behavior exactly
        self.policy = policy if policy is not None else TRUSTING
        self.faults = faults
        self.injector = (
            faults.injector() if faults is not None and faults.specs else None
        )
        self.checkpoint_path = checkpoint_path
        # exploration engine (docs/performance.md): one loop at every
        # width.  Above width 1 the worker pool is stood up before the
        # enumerator, so worker start-up overlaps the parent's own static
        # analysis; at width 1 the waves run in the caller, on this
        # wirer's own enumerator, lowering cache and executor
        self.workers = max(1, workers or 1)
        self.spec = WorkerSpec(
            graph=graph, device=device, features=features, seed=seed,
            validate=validate, policy=self.policy, fast=self.fast,
            fault_plan=faults, trace=self.tracer.enabled and self.workers > 1,
        )
        self.engine: ParallelEngine | None = None
        if self.workers > 1:
            self.engine = ParallelEngine(
                make_pool(self.spec, self.workers, WorkerState, run_shard),
                metrics=self.metrics, tracer=self.tracer,
            )
            self.engine.prewarm()
        with self.clock.phase("enumerate"):
            self.enumerator = Enumerator(
                graph, device, features,
                metrics=self.metrics, cache_units=self.fast.cache,
            )
        self.cache = (
            LoweringCache(metrics=self.metrics) if self.fast.cache else None
        )
        # no injector here: every measurement arms its own per-candidate
        # injector (repro.parallel.worker.measure_plan)
        self.executor = Executor(
            graph, device, seed=seed, validate=validate, metrics=self.metrics,
            cache=self.cache, clock=self.clock,
        )
        if self.engine is None:
            state = WorkerState(self.spec, self.enumerator, self.executor)
            self.engine = ParallelEngine(
                InlinePool(WorkerState, run_shard, self.spec, state=state),
                metrics=self.metrics, tracer=self.tracer,
            )
        self._choices_total = 0
        self._choices_pruned = 0
        self._overhead_samples: list[float] = []
        self._timeline: list[tuple[str, float]] = []
        self._last_assignment: dict[str, object] = {}
        self._best_so_far = float("inf")
        #: mini-batches spent by a prior (checkpointed) incarnation
        self._prior_spent = 0
        self._phase_carry: dict[str, tuple[int, int]] = {}
        #: full-measurement failures per configuration key (quarantine)
        self._fault_strikes: dict[tuple, int] = {}
        self._preempted_at: int | None = None
        self._spent_this_run = 0
        self._all_phases: list[PhaseStats] = []
        #: warm-start accounting (filled by :meth:`warm_start`)
        self._warm: dict = {}

    # -- warm start ---------------------------------------------------------

    def warm_start(self, measurements, source: str, digest: str | None = None) -> int:
        """Seed the profile index with another run's measurements.

        Must be called before :meth:`optimize`.  Goes through
        :meth:`ProfileIndex.merge`, so seeding is first-writer-wins and
        idempotent: keys this wirer already holds (a restored
        checkpoint, an earlier warm source) keep their values.  Every
        phase consults the index before spending a mini-batch, so a
        fully seeded exploration converges to the identical winner with
        index hits instead of measurements -- the cross-job counterpart
        of checkpoint resume (see docs/serving.md).

        Returns the number of entries actually seeded and records the
        event in the metrics registry and the provenance log.
        """
        counts = self.index.merge(measurements)
        seeded = counts["merged"]
        self._warm["digest"] = digest
        self._warm.setdefault("sources", []).append({
            "source": source,
            "seeded_entries": seeded,
            "duplicates": counts["duplicates"],
        })
        self._warm["seeded_entries"] = (
            self._warm.get("seeded_entries", 0) + seeded
        )
        if seeded:
            self.metrics.counter("warm.seeded_entries").inc(seeded)
            self.metrics.counter(f"warm.hits.{source}").inc()
            self.provenance.warm_seeded(source, seeded, digest)
            self.tracer.instant("warm-start", entries=seeded, source=source)
        else:
            self.metrics.counter(f"warm.misses.{source}").inc()
        return seeded

    # -- checkpointing ------------------------------------------------------

    def signature(self) -> dict:
        """Fingerprint of (graph, device, features, seed): what must match
        for a checkpoint's index keys to be meaningful here."""
        return {
            "graph_nodes": len(self.graph.nodes),
            "graph_flops": float(self.graph.total_flops()),
            "device": self.device.name,
            "features": repr(self.features),
            "seed": self.seed,
            "context": repr(self.base_context),
            # pruning reshapes the explored space; a checkpoint from a
            # pruned run must not resume into an exhaustive one (or vice
            # versa) -- the tree indices would mean different choices
            "fast": repr(self.fast),
            # same argument for the learned ranker: present only when a
            # model is bound, so learned and unlearned checkpoints never
            # resume each other, and neither do two different artifacts
            **(
                {"learned": self.learned.model.fingerprint}
                if self.learned is not None else {}
            ),
            # worker count is deliberately absent: every width runs the
            # same loop and draws the same per-candidate substreams, so a
            # checkpoint taken at any width resumes at any other
        }

    def checkpoint_state(
        self, preempted_at: int | None = None, completed: bool = False
    ) -> ExplorationCheckpoint:
        import json as _json

        best = self._best_so_far
        return ExplorationCheckpoint(
            signature=self.signature(),
            index_doc=_json.loads(self.index.dumps()),
            total_spent=self._prior_spent + self._spent_this_run,
            timeline=list(self._timeline),
            overhead_samples=list(self._overhead_samples),
            best_so_far=None if best == float("inf") else best,
            phase_carry={
                stats.name: (stats.minibatches, stats.index_hits)
                for stats in self._all_phases
            },
            injector_state=(
                self.injector.state() if self.injector is not None else None
            ),
            preempted_at=preempted_at,
            completed=completed,
        )

    def restore(self, checkpoint: ExplorationCheckpoint) -> None:
        """Adopt a prior incarnation's exploration state.

        Must be called before :meth:`optimize`.  The profile index, spent
        budget, work-conservation timeline, and RNG streams all continue
        where the preempted run stopped."""
        checkpoint.check_signature(self.signature())
        self.index = checkpoint.profile_index()
        self._prior_spent = checkpoint.total_spent
        self._timeline = list(checkpoint.timeline)
        self._overhead_samples = list(checkpoint.overhead_samples)
        if checkpoint.best_so_far is not None:
            self._best_so_far = checkpoint.best_so_far
        self._phase_carry = dict(checkpoint.phase_carry)
        if checkpoint.injector_state is not None and self.injector is not None:
            self.injector.restore(checkpoint.injector_state)
        self.metrics.counter("recovery.resumed").inc()
        self.tracer.instant(
            "checkpoint/restored", minibatches=checkpoint.total_spent
        )

    def _save_checkpoint(
        self, preempted_at: int | None = None, completed: bool = False
    ) -> str | None:
        if self.checkpoint_path is None:
            return None
        self.checkpoint_state(preempted_at, completed).save(self.checkpoint_path)
        self.metrics.counter("recovery.checkpoint_saves").inc()
        return self.checkpoint_path

    def _phase_stats(self, name: str) -> PhaseStats:
        """Fresh per-phase stats, seeded with any checkpointed progress so
        a resumed run reports cumulative counts."""
        carried = self._phase_carry.get(name, (0, 0))
        stats = PhaseStats(
            name=name, minibatches=carried[0], index_hits=carried[1]
        )
        self._all_phases.append(stats)
        return stats

    # -- observability plumbing -------------------------------------------

    def _log_minibatch(
        self,
        phase: str,
        time_us: float,
        context: tuple,
        assignment: dict[str, object] | None = None,
        kind: str = KIND_EXPLORE,
    ) -> None:
        """One executed mini-batch: timeline entry + metrics + run report.

        Production-mode measurements (``kind == KIND_PRODUCTION``) are
        logged but excluded from the work-conservation timeline and the
        configs-explored count -- they happen after exploration ends.
        """
        delta: dict[str, object] = {}
        if assignment:
            delta = {
                name: choice for name, choice in assignment.items()
                if self._last_assignment.get(name, _UNSET) != choice
            }
            self._last_assignment.update(assignment)
        if kind != KIND_PRODUCTION:
            self._timeline.append((phase, time_us))
            self._best_so_far = min(self._best_so_far, time_us)
            self.metrics.counter("astra.configs_explored").inc()
            self.metrics.series("astra.best_so_far_us").append(self._best_so_far)
        self.metrics.histogram(f"astra.minibatch_us.{phase}").observe(time_us)
        self.reporter.minibatch(
            phase, time_us, context=context, assignment_delta=delta, kind=kind
        )

    def _log_fault(self, kind: str, message: str, context: tuple, phase: str) -> None:
        """One fault surfaced to the wirer: counter + run-report record +
        trace annotation."""
        self.metrics.counter(f"fault.surfaced.{kind}").inc()
        self.reporter.fault(phase, kind, message, context=context)
        self.tracer.instant(f"fault/{kind}", detail=message)

    # -- measurement: one sample/retry loop, one replay ------------------

    def _measure_local(
        self, plan: ExecutionPlan, var_units: dict, samples: int | None = None,
    ) -> CandidateOutcome:
        """Measure a plan this wirer built itself (stream, compare and
        production phases) as the next mini-batch, in the caller, through
        the same loop the worker pool runs."""
        return measure_plan(
            self.executor, self.spec, plan, var_units,
            base_minibatch=self._prior_spent + self._spent_this_run,
            preempted=self._injector_preempted(), samples=samples,
        )

    def _injector_preempted(self) -> bool:
        return self.injector._preempted if self.injector is not None else False

    def _replay(
        self,
        outcome: CandidateOutcome,
        context: tuple,
        phase: str,
        stats: PhaseStats | None = None,
        assignment: dict[str, object] | None = None,
        kind: str = KIND_EXPLORE,
    ) -> tuple[list[MiniBatchResult], int]:
        """Act on one measured configuration's event log, in order.

        Executor counters, injector side effects, fault records and the
        retry accounting land at the configuration's canonical position.
        Each sample charged to ``stats`` costs one mini-batch of budget
        and joins the timeline (a lost one still costs: its work was
        dispatched); the uncharged production run (``stats`` None) is
        logged by its caller.  A preemption or error that cut the
        measurement short is re-raised here.

        Returns (successful samples, mini-batches charged).
        """
        for name, value in sorted(outcome.counters.items()):
            self.metrics.counter(name).inc(value)
        if self.injector is not None and outcome.injector_minibatch is not None:
            self.injector.absorb(
                outcome.injector_records,
                outcome.injector_minibatch,
                outcome.injector_preempted,
            )
        results: list[MiniBatchResult] = []
        charged = 0
        for record in outcome.samples:
            gave_up = (
                record.result is None
                and len(record.aborts) >= self.policy.max_attempts
            )
            for attempt, (fault_kind, message) in enumerate(record.aborts, 1):
                self._log_fault(fault_kind, message, context, phase)
                if gave_up and attempt == len(record.aborts):
                    self.metrics.counter("recovery.measurements_failed").inc()
                else:
                    # the retry re-validates the schedule statically
                    # (repro.check), even in unvalidated mode
                    if not self.validate:
                        self.metrics.counter("recovery.revalidated").inc()
                    self.metrics.counter("recovery.retries").inc()
                    self.metrics.counter("recovery.backoff_minibatches").inc(
                        self.policy.backoff_for(attempt)
                    )
            if record.result is None and not gave_up:
                continue  # cut short by the fatal event raised below
            if stats is not None:
                charged += 1
                self._spent_this_run += 1
            if record.result is None:
                continue  # lost: the attempt budget ran out
            if record.aborts:
                self.metrics.counter("recovery.retries_succeeded").inc()
            for fault in record.result.faults:
                self._log_fault(fault.kind, fault.detail, context, phase)
            results.append(record.result)
            if stats is not None:
                self._overhead_samples.append(
                    record.result.profiling_overhead_fraction
                )
                self._log_minibatch(
                    phase, record.result.total_time_us, context, assignment,
                    kind=kind,
                )
                stats.minibatches += 1
        if outcome.preempted_at is not None:
            raise PreemptionError(outcome.preempted_at)
        if outcome.error is not None or outcome.error_repr:
            # a defective schedule is recorded in the run report (one
            # record per violation) before the error propagates
            for label, violation_kind, text in outcome.violations:
                self.reporter.violation(
                    label, violation_kind, text, context=context
                )
            raise self._decode_worker_error(outcome)
        return results, charged

    def _record_measurements(
        self,
        tree: UpdateNode,
        var_units: dict[str, list[int]],
        results: list[MiniBatchResult],
        context: tuple,
    ) -> None:
        """Feed this configuration's fine-grained profiles into the index
        under context-mangled keys (sections 4.6, 4.7).  With several
        samples per configuration, each variable's metric is the robust
        minimum (MAD rejection first) across samples.

        Goes through :meth:`ProfileIndex.merge`, which enforces the
        merge invariants (already-measured keys keep their first value;
        quarantine sentinels are never overwritten).
        """
        measurements: dict = {}
        for var in tree.variables():
            key = var.profile_key(context)
            if key in self.index or key in measurements:
                continue
            values = []
            for result in results:
                metric = self._metric_for(var, var_units, result)
                if metric is not None:
                    values.append(metric)
            if values:
                measurements[key] = robust_min(
                    values, self.policy.mad_threshold
                )
                # the first-merged value is the decisive one: merge() is
                # first-writer-wins and the `key in self.index` guard above
                # filters re-measurements, so this hook sees exactly the
                # numbers finalize() will read, in canonical order
                self.provenance.measured(context, var.name, var.value, measurements[key])
        self.index.merge(measurements)

    def _metric_for(
        self,
        var: AdaptiveVariable,
        var_units: dict[str, list[int]],
        result: MiniBatchResult,
    ) -> float | None:
        if var.metric_kind == "units":
            unit_ids = var_units.get(var.name, [])
            if not unit_ids:
                return None
            tainted = {f.unit_id for f in result.faults}
            total = 0.0
            for uid in unit_ids:
                time = result.unit_times.get(uid)
                if time is None:
                    if uid in tainted:
                        # this variable's measurement was withheld (lost
                        # or implausible timestamp): no number at all
                        # beats a silently-wrong one
                        return None
                    time = 0.0  # host-only unit: no kernel to time
                total += time
            return total
        if var.metric_kind == "epoch":
            _ordinal, epoch = var.payload  # type: ignore[misc]
            return result.epoch_metrics.get((epoch.super_epoch, epoch.index))
        if var.metric_kind == "end_to_end":
            return result.total_time_us
        raise ValueError(f"unknown metric kind {var.metric_kind!r}")

    def _quarantine(
        self,
        live_vars: list[AdaptiveVariable],
        context: tuple,
        phase: str,
    ) -> None:
        """Write the quarantine sentinel for every live, unmeasured choice
        of this configuration so exploration moves past it; finalize()
        can never prefer it over a real measurement."""
        names = []
        for var in live_vars:
            key = var.profile_key(context)
            if key not in self.index:
                self.index.record(key, QUARANTINED_US)
                self.provenance.quarantined(context, var.name, var.value)
                names.append(f"{var.name}={var.value!r}")
        self.metrics.counter("recovery.quarantined").inc()
        self._log_fault(
            "quarantine", f"configuration quarantined: {', '.join(names)}",
            context, phase,
        )

    # -- the exploration loop ------------------------------------------

    def _explore(
        self,
        tree: UpdateNode,
        context: tuple,
        stats: PhaseStats,
        budget: int,
        measure,
    ) -> int:
        """Explore one update tree: plan a wave, measure, replay, advance.

        :func:`~repro.parallel.engine.plan_wave` lays out the
        configurations the tree visits; ``measure(entries)`` returns one
        outcome per measurement entry; :meth:`_merge_wave` replays them
        in visiting order, so the index, the counters, the timeline, the
        strikes and the budget evolve the same way at every width.
        Returns the mini-batches spent.
        """
        spent = 0
        advance_first = False
        with self.tracer.span(f"explore/{stats.name}"):
            while True:
                with self.clock.phase("enumerate"):
                    entries, status = plan_wave(
                        tree, self.index, context,
                        samples=self.policy.samples,
                        spent=spent, budget=budget,
                        advance_first=advance_first,
                    )
                advance_first = False
                if not entries:
                    break  # the owed advance found the tree exhausted
                end_snapshot = tree.snapshot_state()
                candidates = [e for e in entries if e is not HIT]
                outcomes = measure(candidates) if candidates else []
                merge_status, spent = self._merge_wave(
                    tree, context, stats, entries, outcomes, spent, budget
                )
                if merge_status == "retry":
                    # every sample of a configuration failed: the tree
                    # sits at that configuration (wave tail discarded);
                    # re-plan from there
                    continue
                if merge_status == "budget":
                    # budget exhausted at the failed configuration
                    tree.finalize(self.index, context)
                    break
                tree.restore_state(end_snapshot)
                if status == STATUS_BUDGET:
                    tree.finalize(self.index, context)
                    break
                if status == STATUS_EXHAUSTED:
                    break
                advance_first = True  # sealed or wave-capped: advance owed
        return spent

    def _measure_fk_wave(self, strategy: AllocationStrategy, entries):
        """Ship an fk wave to the engine; workers build the plans."""
        base = self._prior_spent + self._spent_this_run
        samples = self.policy.samples
        preempted = self._injector_preempted()
        tasks = [
            CandidateTask(
                ordinal=n,
                strategy_id=strategy.strategy_id,
                assignment=tuple(sorted(entry.assignment.items())),
                live_names=entry.live_names,
                base_minibatch=base + n * samples,
                preempted=preempted,
            )
            for n, entry in enumerate(entries)
        ]
        with self.clock.phase("dispatch"):
            return self.engine.measure_wave(tasks)

    def _merge_wave(
        self,
        tree: UpdateNode,
        context: tuple,
        stats: PhaseStats,
        entries,
        outcomes,
        spent: int,
        budget: int,
    ) -> tuple[str, int]:
        """Replay a wave's outcomes in visiting order.

        Each measurement entry restores its tree snapshot (profile keys
        and quarantine keys read variables' *current* values), replays
        its outcome through :meth:`_replay`, and merges the profiles into
        the index.  Returns ``("ok" | "retry" | "budget", spent)``; on
        ``retry``/``budget`` the tree is left at the failed entry's
        configuration and the wave's unmerged tail is discarded -- its
        speculative keys were never written anywhere.
        """
        outcome_iter = iter(outcomes)
        for position, entry in enumerate(entries):
            if entry is HIT:
                stats.index_hits += 1
                self.metrics.counter(f"astra.index_hits.{stats.name}").inc()
                continue
            outcome = next(outcome_iter)
            tree.restore_state(entry.snapshot)
            results, charged = self._replay(
                outcome, context, stats.name, stats, entry.assignment
            )
            spent += charged
            live_vars = [
                v for v in tree.variables() if v.name in entry.live_names
            ]
            key = self._config_key(live_vars, context)
            if results:
                self._record_measurements(
                    tree, outcome.var_units, results, context
                )
                self._fault_strikes.pop(key, None)
                self.metrics.counter(f"astra.index_misses.{stats.name}").inc()
                continue
            # every sample of this configuration failed: strike it;
            # quarantine once the policy's patience is out, otherwise
            # retry the same configuration
            strikes = self._fault_strikes.get(key, 0) + 1
            self._fault_strikes[key] = strikes
            if strikes >= self.policy.quarantine_after:
                self._quarantine(live_vars, context, stats.name)
            discarded = sum(1 for later in entries[position + 1:] if later is not HIT)
            if discarded:
                self.engine.stats.discarded += discarded
                self.metrics.counter("parallel.candidates_discarded").inc(discarded)
            return ("retry" if spent < budget else "budget"), spent
        return "ok", spent

    @staticmethod
    def _config_key(live_vars: list[AdaptiveVariable], context: tuple) -> tuple:
        return tuple(var.profile_key(context) for var in live_vars)

    def _decode_worker_error(self, outcome) -> BaseException:
        import pickle as _pickle

        if outcome.error is not None:
            try:
                return _pickle.loads(outcome.error)
            except Exception:
                pass
        return RuntimeError(
            f"worker-side error: {outcome.error_repr or 'unknown'}"
        )

    def close(self) -> None:
        """Release the engine's worker pool."""
        self.engine.close()

    def optimize(self, max_minibatches: int = 5000) -> AstraReport:
        """Run the full online exploration and return the custom-wired plan.

        On an injected preemption the exploration state is checkpointed
        (when a checkpoint path is configured) and the
        :class:`~repro.faults.events.PreemptionError` propagates with
        ``checkpoint_path`` filled in; a wirer restored from that
        checkpoint continues where this one stopped."""
        self._spent_this_run = 0
        self._all_phases: list[PhaseStats] = []
        try:
            with self.clock.phase("explore"):
                report = self._optimize(max_minibatches)
        except PreemptionError as exc:
            self._preempted_at = exc.minibatch
            exc.checkpoint_path = self._save_checkpoint(preempted_at=exc.minibatch)
            self.tracer.instant("preempted", minibatch=exc.minibatch)
            raise
        self._save_checkpoint(completed=True)
        return report

    def _optimize(self, max_minibatches: int) -> AstraReport:
        exploration_time = 0.0
        phases: list[PhaseStats] = []
        strategy_best: dict[int, tuple[float, ExecutionPlan, dict[str, object]]] = {}

        for strategy in self.enumerator.strategies:
            context = self.base_context + strategy.context_key()
            try:
                best = self._explore_strategy(
                    strategy, context, phases, max_minibatches
                )
            except DeviceOOMError as exc:
                # this strategy's arena cannot fit usable device memory:
                # prune the whole branch of the exploration fork
                self._log_fault(exc.kind, str(exc), context, f"alloc/{strategy.label}")
                self.metrics.counter("recovery.strategies_pruned").inc()
                continue
            if best is not None:
                strategy_best[strategy.strategy_id] = best

        total_spent = self._prior_spent + self._spent_this_run
        if not strategy_best:
            # no strategy made progress (all pruned or fully quarantined):
            # degrade gracefully to the native plan rather than failing
            return self._degraded_report(phases, total_spent)

        exploration_time = sum(t for t, _p, _a in strategy_best.values())
        best_id = min(strategy_best, key=lambda sid: strategy_best[sid][0])
        best_time, best_plan, best_assignment = strategy_best[best_id]
        best_strategy = next(
            s for s in self.enumerator.strategies if s.strategy_id == best_id
        )

        # production mode: same plan with profiling events disabled
        production = ExecutionPlan(
            units=best_plan.units,
            allocation=best_plan.allocation,
            stream_of=best_plan.stream_of,
            barriers_after=best_plan.barriers_after,
            profile=False,
            label=best_plan.label + "/production",
        )
        production_context = self.base_context + best_strategy.context_key()
        production_results, _charged = self._replay(
            self._measure_local(production, {}, samples=1),
            production_context, "production",
        )
        if production_results:
            production_time = production_results[0].total_time_us
        else:
            # the confirmation run itself kept faulting; the compare-phase
            # measurement stands in for it
            production_time = best_time
        self._log_minibatch(
            "production", production_time, production_context,
            best_assignment, kind=KIND_PRODUCTION,
        )

        return self._finish_report(
            best_plan=production,
            best_time_us=production_time,
            best_strategy=best_strategy,
            configs_explored=total_spent,
            exploration_time_us=exploration_time,
            phases=phases,
            strategy_times={sid: t for sid, (t, _p, _a) in strategy_best.items()},
            assignment=best_assignment,
        )

    def _explore_strategy(
        self,
        strategy: AllocationStrategy,
        context: tuple,
        phases: list[PhaseStats],
        max_minibatches: int,
    ) -> tuple[float, ExecutionPlan, dict[str, object]] | None:
        """Explore one allocation strategy end to end; returns the
        strategy's best (time, plan, assignment), or None when every
        candidate failed."""
        # OOM-aware pruning: an arena that cannot fit usable memory makes
        # every plan of this strategy un-runnable -- don't spend a single
        # mini-batch discovering that by crashing
        arena = self.enumerator.arena_plan(strategy)
        capacity = self.device.memory_bytes
        if self.injector is not None:
            capacity = self.injector.effective_memory_bytes(self.device)
        if arena.arena_size_bytes > capacity:
            raise DeviceOOMError(arena.arena_size_bytes, capacity)

        def budget_left() -> int:
            return max(
                1, max_minibatches - self._prior_spent - self._spent_this_run
            )

        # Phase 1: fusion chunking x kernel selection (parallel)
        with self.clock.phase("enumerate"):
            fk_tree = self.enumerator.build_fk_tree(strategy)
        self._choices_total += sum(
            len(v.choices) for v in fk_tree.variables()
        )
        pre_prune = (
            {v.name: list(v.choices) for v in fk_tree.variables()}
            if self.provenance.enabled else {}
        )
        if self.fast.prune:
            with self.clock.phase("prerank"):
                estimates = None
                if self.engine.workers > 1:
                    # shard the cost-model evaluation across the pool;
                    # workers compute against their own unpruned copy of
                    # this tree, and the pure-float estimates are
                    # bit-identical to the in-process computation
                    from ..perf.ranker import estimate_jobs

                    jobs = estimate_jobs(
                        self.enumerator, fk_tree, self.device,
                        injector=self.injector,
                    )
                    if jobs:
                        estimates = self.engine.gather_estimates(
                            strategy.strategy_id, jobs
                        )
                pruned = prune_fk_tree(
                    self.enumerator, strategy, fk_tree, self.device,
                    self.fast, metrics=self.metrics, injector=self.injector,
                    estimates=estimates,
                )
            self._choices_pruned += pruned
            if self.provenance.enabled and pruned:
                self._record_prune_provenance(strategy, fk_tree, pre_prune, context)
        if self.learned is not None:
            # learned top-k pruning runs after (and composes with) the FK
            # pre-ranker; it applies its own admissibility and what-if
            # gates and declines rather than risk the winner
            with self.clock.phase("prerank"):
                model_pruned = self.learned.apply(
                    self.enumerator, strategy, fk_tree, self.device,
                    graph=self.graph, seed=self.seed, context=context,
                    injector=self.injector, provenance=self.provenance,
                )
            self._choices_pruned += model_pruned
        if self.provenance.enabled:
            for var in fk_tree.variables():
                self.provenance.candidates(context, var.name, var.choices)
        fk_stats = self._phase_stats(f"fk/{strategy.label}")
        self._explore(
            fk_tree, context, fk_stats, budget_left(),
            lambda entries: self._measure_fk_wave(strategy, entries),
        )
        phases.append(fk_stats)
        fk_tree.finalize(self.index, context)
        fk_assignment = fk_tree.assignment()

        # Phase 2: stream adaptation (barrier + prefix exploration)
        stream_assignment: dict[str, object] = {}
        partition: EpochPartition | None = None
        stream_tree: UpdateNode | None = None
        if self.features.streams and not self.features.tf_mode:
            with self.clock.phase("enumerate"):
                partition, stream_tree = self.enumerator.prepare_stream_phase(
                    strategy, fk_assignment
                )
            self._choices_total += sum(
                len(v.choices) for v in stream_tree.variables()
            )
            if self.provenance.enabled:
                for var in stream_tree.variables():
                    self.provenance.candidates(context, var.name, var.choices)
            stream_stats = self._phase_stats(f"streams/{strategy.label}")

            def measure_streams(entries):
                (entry,) = entries  # a prefix tree plans one per wave
                with self.clock.phase("enumerate"):
                    built = self._build_with_streams(
                        strategy, fk_assignment, entry.assignment,
                        partition, stream_tree,
                        profile_vars=set(entry.live_names),
                    )
                return [self._measure_local(built.plan, built.var_units)]

            self._explore(
                stream_tree, context, stream_stats, budget_left(),
                measure_streams,
            )
            phases.append(stream_stats)
            stream_tree.finalize(self.index, context)
            stream_assignment = stream_tree.assignment()

        # best configuration for this strategy, measured end to end.
        # Astra can turn an optimization off when the measurement says
        # so (section 6.6): the stream-adapted plan competes against
        # the plain fusion/kernel plan and the faster one wins.
        with self.clock.phase("enumerate"):
            candidates = [
                ("fk", self.enumerator.build_plan(strategy, fk_assignment),
                 fk_assignment),
            ]
            if stream_tree is not None and partition is not None:
                candidates.append((
                    "streams",
                    self._build_with_streams(
                        strategy, fk_assignment, stream_tree.assignment(),
                        partition, stream_tree,
                    ),
                    {**fk_assignment, **stream_assignment},
                ))
        compare_stats = self._phase_stats(f"compare/{strategy.label}")
        measured = []
        for candidate_label, built, assignment in candidates:
            # compare measurements are indexed too, so a resumed run never
            # re-spends mini-batches re-comparing finished strategies
            compare_key = mangle(context, ("compare", candidate_label))
            cached = self.index.get(compare_key)
            if cached is not None:
                compare_stats.index_hits += 1
                self.metrics.counter(
                    f"astra.index_hits.{compare_stats.name}").inc()
                self.provenance.compared(context, candidate_label, cached, cached=True)
                measured.append((cached, built.plan, assignment))
                continue
            results, _charged = self._replay(
                self._measure_local(built.plan, built.var_units),
                context, compare_stats.name, compare_stats, assignment,
                kind=KIND_COMPARE,
            )
            if not results:
                continue
            time_us = robust_min(
                [r.total_time_us for r in results], self.policy.mad_threshold
            )
            self.index.record(compare_key, time_us)
            self.provenance.compared(context, candidate_label, time_us)
            measured.append((time_us, built.plan, assignment))
        if compare_stats.minibatches or compare_stats.index_hits:
            phases.append(compare_stats)
        if not measured:
            return None
        best_time, best_plan_local, best_assignment_local = min(
            measured, key=lambda entry: entry[0]
        )
        end_key = mangle(context, ("end_to_end", "best"))
        self.index.record(end_key, best_time)
        return best_time, best_plan_local, best_assignment_local

    def _record_prune_provenance(
        self,
        strategy: AllocationStrategy,
        fk_tree: UpdateNode,
        pre_prune: dict[str, list],
        context: tuple,
    ) -> None:
        """Record each FK-prune verdict with its cost-model estimate.

        Pruning only runs when the estimate is provably exact (base
        clock, no injector), so re-deriving the estimate here reproduces
        the number that justified the cut."""
        from ..perf.ranker import estimate_choice_us

        survivors = {v.name: v.choices for v in fk_tree.variables()}
        by_name = {v.name: v for v in fk_tree.variables()}
        for name, before in pre_prune.items():
            kept = survivors.get(name, [])
            var = by_name.get(name)
            for choice in before:
                if choice in kept or var is None:
                    continue
                estimate = estimate_choice_us(
                    self.enumerator, strategy, var, choice, self.device
                )
                self.provenance.pruned(context, name, choice, estimate)

    def _degraded_report(
        self, phases: list[PhaseStats], total_spent: int
    ) -> AstraReport:
        """Graceful degradation: custom-wire to the native plan.

        Used when no allocation strategy could produce a measured
        configuration (all pruned by OOM or quarantined away).  The
        native plan carries no arena requirements and no cross-stream
        structure, so it is always runnable; its time is measured on a
        clean executor because the report's number describes the plan,
        not the interference."""
        from ..baselines.native import native_plan

        plan = native_plan(self.graph)
        plan.label = "native/degraded"
        clean = Executor(self.graph, self.device, seed=self.seed)
        native_time = clean.run(plan).total_time_us
        self.metrics.counter("recovery.degraded").inc()
        self.tracer.instant("degraded", best_time_us=native_time)
        self.reporter.fault(
            "degraded", "degradation",
            "no strategy made progress; custom-wired to native plan",
            context=self.base_context,
        )
        fallback_strategy = AllocationStrategy(
            strategy_id=-1, label="native-fallback", satisfied=frozenset()
        )
        return self._finish_report(
            best_plan=plan,
            best_time_us=native_time,
            best_strategy=fallback_strategy,
            configs_explored=total_spent,
            exploration_time_us=sum(t for _p, t in self._timeline),
            phases=phases,
            strategy_times={},
            assignment={},
            degraded=True,
        )

    def _finish_report(
        self,
        best_plan: ExecutionPlan,
        best_time_us: float,
        best_strategy: AllocationStrategy,
        configs_explored: int,
        exploration_time_us: float,
        phases: list[PhaseStats],
        strategy_times: dict[int, float],
        assignment: dict[str, object],
        degraded: bool = False,
    ) -> AstraReport:
        # publish run-level gauges and the profile-index stats
        self.metrics.gauge("astra.best_time_us").set(best_time_us)
        self.metrics.gauge("astra.exploration_time_us").set(exploration_time_us)
        self.metrics.gauge("astra.exploration_minibatches").set(configs_explored)
        for stats in phases:
            self.metrics.gauge(f"astra.index_hit_rate.{stats.name}").set(
                stats.index_hit_rate
            )
        self.index.observe_into(self.metrics)

        # memory accounting (arena footprint vs device capacity) grounds
        # OOM injection and strategy pruning in the device model
        arena_bytes = (
            best_plan.allocation.arena_size_bytes
            if best_plan.allocation is not None else 0
        )
        memory = {
            "arena_bytes": arena_bytes,
            "capacity_bytes": self.device.memory_bytes,
            "utilization": arena_bytes / self.device.memory_bytes,
        }
        self.metrics.gauge("memory.arena_bytes").set(arena_bytes)
        self.metrics.gauge("memory.capacity_bytes").set(self.device.memory_bytes)
        self.metrics.gauge("memory.utilization").set(memory["utilization"])

        # fault accounting: every injected fault must be visible in the
        # fault.* metrics and as run-report records
        fault_summary: dict = {}
        if self.injector is not None:
            self.injector.observe_into(self.metrics)
            fault_summary = self.injector.summary()
            for kind, count in fault_summary["injected"].items():
                self.reporter.fault(
                    "summary", kind, f"injected={count}",
                    context=self.base_context,
                )

        self.tracer.instant(
            "custom-wired", best_time_us=best_time_us, strategy=best_strategy.label
        )
        fast_path = {
            "cache_enabled": self.fast.cache,
            "prune_enabled": self.fast.prune,
            "cache": self.cache.stats() if self.cache is not None else None,
            "choices_total": self._choices_total,
            "choices_pruned": self._choices_pruned,
            "parallel": self.engine.summary() if self.workers > 1 else None,
            "learned": (
                self.learned.summary() if self.learned is not None
                else {"rejected": self._learned_rejected}
                if self._learned_rejected is not None
                else None
            ),
        }
        self.metrics.gauge("perf.choices_total").set(self._choices_total)
        self.metrics.gauge("perf.choices_pruned").set(self._choices_pruned)
        if self._warm:
            self.metrics.gauge("warm.seeded_total").set(
                self._warm.get("seeded_entries", 0)
            )
        overhead = (
            sum(self._overhead_samples) / len(self._overhead_samples)
            if self._overhead_samples
            else 0.0
        )
        return AstraReport(
            best_plan=best_plan,
            best_time_us=best_time_us,
            best_strategy=best_strategy,
            configs_explored=configs_explored,
            exploration_time_us=exploration_time_us,
            phases=phases,
            profile_entries=len(self.index),
            profiling_overhead=overhead,
            strategy_times=strategy_times,
            assignment=assignment,
            timeline=list(self._timeline),
            degraded=degraded,
            fault_summary=fault_summary,
            memory=memory,
            fast_path=fast_path,
            warm=dict(self._warm),
            provenance=self.provenance,
        )

    def _build_with_streams(
        self,
        strategy: AllocationStrategy,
        fk_assignment: dict[str, object],
        stream_assignment: dict[str, object],
        partition: EpochPartition,
        stream_tree: UpdateNode,
        profile_vars: set[str] | None = None,
    ) -> BuiltPlan:
        options: dict[int, dict[int, int]] = {}
        for var in stream_tree.variables():
            ordinal, epoch = var.payload  # type: ignore[misc]
            choice = stream_assignment.get(var.name, var.value)
            options[ordinal] = epoch.options[choice]
        built = self.enumerator.build_plan(
            strategy,
            fk_assignment,
            stream_options=options,
            partition=partition,
            profile_vars=profile_vars,
            label="astra+streams",
        )
        # stream variables own their epoch's units: the epoch-completion
        # metric needs an event on the epoch's last unit, and only live
        # epochs pay for it (regions of interest, section 5.2)
        extra_profile: set[int] = set()
        for var in stream_tree.variables():
            _ordinal, epoch = var.payload  # type: ignore[misc]
            built.var_units.setdefault(var.name, list(epoch.unit_ids))
            if profile_vars is None or var.name in profile_vars:
                extra_profile.add(max(epoch.unit_ids))
                # the super-epoch start is read from the first unit's record
                extra_profile.add(min(epoch.unit_ids))
        if built.plan.profile_unit_ids is not None:
            built.plan.profile_unit_ids = frozenset(
                built.plan.profile_unit_ids | extra_profile
            )
        return built
