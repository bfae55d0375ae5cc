"""Measuring fleet strategies from shared, device-mangled primitives.

The measurer decomposes every strategy's step time into *primitives* --
per-device-class compute at a given shard size, per-scope stage times at
a given micro-batch -- and stores each primitive in the shared
:class:`~repro.core.profile_index.ProfileIndex` under a key that folds
the device class in (the per-device mangling of ``docs/performance.md``
lifted to fleets).  Two strategies that place the same subgraph on the
same device class share the measurement: the second one is free.

Everything is deterministic in (model, fleet, seed, fault plan).  Under
fault injection each primitive gets its own injector sub-state keyed by
a stable hash of the primitive key -- not by measurement order or worker
identity -- so a chaos search injects the same faults whether it runs
pruned or exhaustive, on one worker or eight.  That is what makes the
chaos stand-down test exact: same faulted primitives, same faulted
winner.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import NamedTuple

from ..baselines.native import native_plan
from ..core.measurement import QUARANTINED_US
from ..core.profile_index import ProfileIndex, mangle
from ..gpu.cost_model import unit_cost_us, units_cost_us
from ..obs.observer import NULL_OBSERVER
from ..perf.ranker import FastPath
from ..perf.signature import plan_signature
from ..runtime.executor import Executor
from .spec import FleetSpec
from .strategy import Strategy

#: the adaptive variable the fleet search explores
STRATEGY_VAR = "fleet.strategy"

#: fraction of the all-reduce hidden under the backward pass by bucketed
#: overlap (gradients for early layers are ready while later layers still
#: compute); the residue is exposed at the end of the step
OVERLAP_FRACTION = 0.6


def gradient_bytes(graph) -> int:
    """Bytes all-reduced per step: one gradient per parameter."""
    return sum(n.spec.size_bytes for n in graph.params())


def layer_scopes(graph) -> list[str]:
    """Stackable layer provenances in forward order (layer0, layer1, ...).

    Only step-structured scopes are split across pipeline stages; the
    embedding goes to the first stage and the head (plus gradient
    accumulation and anything unscoped) to the last -- the way
    practitioners place them.
    """
    seen: dict[str, int] = {}
    for node in graph.compute_nodes():
        if "/step" not in node.scope:
            continue
        scope = node.scope.split("/")[0]
        if scope in ("embed", "head", "attention"):
            continue
        if scope not in seen:
            seen[scope] = node.node_id
    return [s for s, _ in sorted(seen.items(), key=lambda kv: kv[1])]


def attribute_to_scopes(
    graph, plan, unit_us: dict, launch_overhead_us: float
) -> dict[str, float]:
    """Charge every schedule unit (its time plus one launch overhead) to
    the layer scope that owns it: the embedding rides with the first
    layer, the head/glue/accumulation with the last.  ``unit_us`` may
    hold measured unit times or analytic kernel costs; the attribution is
    identical, which is what makes the pre-ranker's analytic stage bound
    comparable to the measured stage time.
    """
    ordered = layer_scopes(graph)
    owned = set(ordered)
    first_owner = ordered[0] if ordered else "__first__"
    last_owner = ordered[-1] if ordered else "__last__"
    times: dict[str, float] = {scope: 0.0 for scope in ordered}
    for unit in plan.units:
        node_scope = graph.node(unit.node_ids[0]).scope
        top = node_scope.split("/")[0] if node_scope else ""
        if top not in owned:
            top = first_owner if top == "embed" else last_owner
        cost = unit_us.get(unit.unit_id, 0.0) + launch_overhead_us
        times[top] = times.get(top, 0.0) + cost
    return times


def stage_unit_times(graph, executor: Executor) -> dict[str, float]:
    """Per-layer-scope time attribution from ONE executed mini-batch.

    Runs the native plan once and attributes the measured unit times, so
    summing any group of scopes from this dict equals measuring that
    group's stage -- a pipeline split of S stages costs one simulation
    instead of S.
    """
    plan = native_plan(graph, fuse_elementwise=True)
    result = executor.run(plan)
    return attribute_to_scopes(
        graph, plan, result.unit_times, executor.device.launch_overhead_us
    )


def strategy_profile_key(context: tuple, strategy: Strategy) -> tuple:
    """The index key of one strategy's measured per-sample time -- the
    same key :class:`~repro.core.adaptive.AdaptiveVariable` derives for
    the choice, so the wave planner's index lookups and the measurer's
    records meet."""
    return mangle(context, (STRATEGY_VAR, strategy.key()))


class FleetJob(NamedTuple):
    """What the full-batch model contributes to every fleet measurement."""

    #: every fleet key hangs off the job identity: the model's native
    #: plan signature plus the global batch -- jobs never collide
    context: tuple
    #: stackable layer scopes, in forward order (:func:`layer_scopes`)
    scopes: tuple
    #: bytes all-reduced per step (:func:`gradient_bytes`)
    grad_bytes: int


@dataclass
class StrategyOutcome:
    """One fully measured (or index-hit) strategy."""

    strategy: Strategy
    step_us: float
    per_sample_us: float
    samples: int
    detail: dict = field(default_factory=dict)
    cached: bool = False


class FleetMeasurer:
    """Prices and measures strategies for one (model, fleet) pair."""

    def __init__(
        self,
        builder,
        config,
        fleet: FleetSpec,
        *,
        index: ProfileIndex | None = None,
        use_astra: bool = False,
        features: str = "FK",
        seed: int = 0,
        faults=None,
        observer=NULL_OBSERVER,
        inner_budget: int = 2000,
        job: FleetJob | None = None,
        exhaustive: bool = False,
    ):
        """``job`` adopts a :class:`FleetJob` another measurer derived for
        the same (builder, config); without it the full-batch model is
        built to derive one.  ``exhaustive`` turns off the inner
        sessions' FK pre-ranking, so every inner choice is measured."""
        if use_astra and faults is not None:
            raise ValueError(
                "inner-Astra compute and fleet fault injection are separate "
                "hardening paths; arm one at a time"
            )
        self.builder = builder
        self.config = config
        self.fleet = fleet
        self.index = index if index is not None else ProfileIndex()
        self.use_astra = use_astra
        self.features = features
        self.seed = seed
        self.faults = faults
        self.observer = observer
        self.inner_budget = inner_budget
        self.exhaustive = exhaustive
        self.class_specs = fleet.class_specs()
        self._models: dict[int, object] = {}
        self._plans: dict[int, object] = {}
        self._analytic_compute: dict[tuple, tuple[float, float]] = {}
        self._analytic_stage: dict[tuple, dict[str, float]] = {}

        if job is None:
            full = self._model(config.batch_size)
            digest = plan_signature(self._plan(config.batch_size)).digest[:12]
            job = FleetJob(
                context=("fleet", digest, config.batch_size),
                scopes=tuple(layer_scopes(full.graph)),
                grad_bytes=gradient_bytes(full.graph),
            )
        self.job = job
        self.context, self.scopes, self.grad_bytes = job

    # -- model / plan caches ------------------------------------------------

    def _model(self, batch: int):
        model = self._models.get(batch)
        if model is None:
            model = self.builder(self.config.scaled(batch_size=batch))
            self._models[batch] = model
        return model

    def _plan(self, batch: int):
        """The native plan at ``batch``, built once, for read-only uses
        (the digest and the analytic prices).  A plan that gets executed
        is built fresh by its executor's caller."""
        plan = self._plans.get(batch)
        if plan is None:
            plan = native_plan(self._model(batch).graph, fuse_elementwise=True)
            self._plans[batch] = plan
        return plan

    def profile_key(self, local: tuple) -> tuple:
        return mangle(self.context, local)

    # -- the analytic price sheet (feeds the perf pre-ranker) ---------------

    def analytic_compute_lo(self, cls: str, batch: int) -> float:
        """max(summed kernel durations, serialized launch overheads):
        both are walls the measured mini-batch cannot beat at base clock."""
        entry = self._analytic_compute.get((cls, batch))
        if entry is None:
            spec = self.class_specs[cls]
            plan = self._plan(batch)
            gpu = units_cost_us(plan.units, spec)
            cpu = units_cost_us(plan.units, spec, include_dispatch=True) - gpu
            entry = (gpu, cpu)
            self._analytic_compute[(cls, batch)] = entry
        gpu, cpu = entry
        return max(gpu, cpu)

    def analytic_stage_lo(self, cls: str, micro: int) -> dict[str, float]:
        """Per-scope analytic stage costs at ``micro``, attributed exactly
        like the measured :func:`stage_unit_times` -- equal at base clock."""
        sheet = self._analytic_stage.get((cls, micro))
        if sheet is None:
            spec = self.class_specs[cls]
            plan = self._plan(micro)
            unit_us = {u.unit_id: unit_cost_us(u, spec) for u in plan.units}
            sheet = attribute_to_scopes(
                self._model(micro).graph, plan, unit_us,
                spec.launch_overhead_us,
            )
            self._analytic_stage[(cls, micro)] = sheet
        return sheet

    # -- fault sub-states ---------------------------------------------------

    def _injector(self, primitive: tuple):
        """A per-primitive injector sub-state, keyed by a stable hash of
        the primitive key.  Scheduled preemption is pre-discharged
        (``preempted=True``): fleet primitives model steady-state step
        measurement, and an aborted primitive would make the measured
        space depend on visit order."""
        if self.faults is None:
            return None
        from ..faults.injector import FaultInjector

        digest = hashlib.sha256(repr(primitive).encode()).digest()
        slot = int.from_bytes(digest[:4], "big") % 4096
        return FaultInjector.for_candidate(
            self.faults, base_minibatch=slot, preempted=True
        )

    # -- measured primitives ------------------------------------------------

    @property
    def _mode(self) -> str:
        return "astra" if self.use_astra else "native"

    def primitives(self, strategy: Strategy) -> list[tuple]:
        """The measured primitives ``strategy`` composes, in placement
        order: ``("compute", cls, shard)`` per data replica, ``("stage",
        cls, micro)`` per pipeline stage."""
        if strategy.kind == "data":
            return [
                ("compute", cls, shard)
                for cls, shard in zip(strategy.placement, strategy.shards)
            ]
        micro = self._microbatch(strategy)
        return [("stage", cls, micro) for cls in strategy.placement]

    def primitive_keys(self, primitive: tuple) -> tuple:
        """The index keys one primitive's measurement records: a compute
        time, or one stage time per layer scope."""
        kind, cls, size = primitive
        if kind == "compute":
            return (self.profile_key(("compute", cls, size, self._mode)),)
        return tuple(
            self.profile_key(("stage", cls, size, scope))
            for scope in self.scopes
        )

    def measured(self, primitive: tuple) -> bool:
        return all(key in self.index for key in self.primitive_keys(primitive))

    def measure_primitive(self, primitive: tuple) -> None:
        kind, cls, size = primitive
        if kind == "compute":
            self.compute_us(cls, size)
        else:
            self.stage_us(cls, size)

    def price(self, primitive: tuple):
        """The analytic price the strategy bound reads for ``primitive``:
        the memoized ``(gpu, cpu)`` walls of a compute, or a stage's
        per-scope sheet.  Built from the graph the measurement builds, so
        a worker prices what it measures without a second build."""
        kind, cls, size = primitive
        if kind == "compute":
            self.analytic_compute_lo(cls, size)
            return self._analytic_compute[(cls, size)]
        return self.analytic_stage_lo(cls, size)

    def adopt_price(self, primitive: tuple, price) -> None:
        """Memoize a price shipped by a worker; the first writer wins."""
        kind, cls, size = primitive
        memo = self._analytic_compute if kind == "compute" else self._analytic_stage
        memo.setdefault((cls, size), price)

    def compute_us(self, cls: str, batch: int) -> float:
        """Measured mini-batch compute of the whole model on ``cls`` at
        ``batch`` -- the per-replica primitive of every data strategy."""
        (key,) = self.primitive_keys(("compute", cls, batch))
        cached = self.index.get(key)
        if cached is not None:
            return cached
        spec = self.class_specs[cls]
        model = self._model(batch)
        if self.use_astra:
            value = self._inner_astra(model, cls, batch)
        else:
            value = self._run_native(
                model.graph, spec, ("compute", cls, batch)
            )
        self.index.record(key, value)
        self.observer.count("fleet.measure.compute")
        return value

    def _inner_astra(self, model, cls: str, batch: int) -> float:
        """Per-device inner Astra optimization: the full single-GPU
        exploration runs against the *shared* index under a device-mangled
        context, so every strategy placing this subgraph on this device
        class reuses the same fk measurements.

        The session takes the CLI's fast path: the cost model pre-ranks
        each FK variable and only the choices it cannot rule out are
        measured.  The pre-ranker keeps every variable's argmin and
        stands down where its estimate is not exact (autoboost classes),
        so the inner winner and ``best_time_us`` are those of the
        unpruned search; ``exhaustive`` measures every choice anyway."""
        from ..core.session import AstraSession

        session = AstraSession(
            model, device=self.class_specs[cls], features=self.features,
            seed=self.seed, index=self.index,
            context=self.profile_key(("inner", cls, batch)),
            observer=self.observer,
            fast=FastPath(cache=True, prune=not self.exhaustive),
        )
        report = session.optimize(
            max_minibatches=self.inner_budget, measure_native=False
        )
        return report.best_time_us

    def _run_native(self, graph, spec, primitive: tuple) -> float:
        from ..faults.events import DeviceOOMError, KernelLaunchError

        executor = Executor(
            graph, spec, seed=self.seed, injector=self._injector(primitive)
        )
        try:
            return executor.run(
                native_plan(graph, fuse_elementwise=True)
            ).total_time_us
        except (DeviceOOMError, KernelLaunchError):
            self.observer.count("fleet.measure.quarantined")
            return QUARANTINED_US

    def stage_us(self, cls: str, micro: int) -> dict[str, float]:
        """Measured per-scope stage times on ``cls`` at ``micro``, from a
        single executed mini-batch; shared across every cut that places
        any stage on this class."""
        keys = dict(zip(
            self.scopes, self.primitive_keys(("stage", cls, micro))
        ))
        if all(key in self.index for key in keys.values()):
            return {scope: self.index.get(key) for scope, key in keys.items()}
        from ..faults.events import DeviceOOMError, KernelLaunchError

        spec = self.class_specs[cls]
        graph = self._model(micro).graph
        executor = Executor(
            graph, spec, seed=self.seed,
            injector=self._injector(("stage", cls, micro)),
        )
        try:
            times = stage_unit_times(graph, executor)
        except (DeviceOOMError, KernelLaunchError):
            self.observer.count("fleet.measure.quarantined")
            times = dict.fromkeys(self.scopes, QUARANTINED_US)
        for scope, key in keys.items():
            self.index.record(key, times.get(scope, 0.0))
        self.observer.count("fleet.measure.stage")
        return {scope: times.get(scope, 0.0) for scope in self.scopes}

    def calibrate(self) -> dict[str, float]:
        """Full-batch compute per device class: the speed proxy weighted
        shards resolve against, and the d=1 strategies' own measurement
        (the calibration is never wasted work)."""
        return {
            cls: self.compute_us(cls, self.config.batch_size)
            for cls in sorted(self.class_specs)
        }

    # -- strategies ---------------------------------------------------------

    def measure_strategy(self, strategy: Strategy) -> StrategyOutcome:
        """Compose one strategy's step time from its primitives.

        The composition is closed-form; every measured quantity in it is
        a shared primitive.  The strategy's per-sample time is recorded
        under its adaptive-variable key so the wave planner sees it as
        measured.
        """
        key = strategy_profile_key(self.context, strategy)
        cached = key in self.index
        if strategy.kind == "data":
            outcome = self._measure_data(strategy)
        else:
            outcome = self._measure_pipeline(strategy)
        outcome.cached = cached
        if not cached:
            self.index.record(key, outcome.per_sample_us)
            self.observer.count("fleet.measure.strategies")
        return outcome

    def _measure_data(self, strategy: Strategy) -> StrategyOutcome:
        devices = self.fleet.assign_devices(strategy.placement)
        replicas = []
        for cls, name, shard in zip(strategy.placement, devices, strategy.shards):
            replicas.append({
                "device": name,
                "device_class": cls,
                "shard": shard,
                "compute_us": self.compute_us(cls, shard),
            })
        beat = max(r["compute_us"] for r in replicas)
        world = strategy.world
        comm = exposed = 0.0
        if world > 1:
            comm = self.fleet.interconnect.allreduce_us(self.grad_bytes, world)
            hideable = min(comm * OVERLAP_FRACTION, beat * 2 / 3)
            exposed = comm - hideable
        step = beat + exposed
        samples = sum(strategy.shards)
        return StrategyOutcome(
            strategy=strategy,
            step_us=step,
            per_sample_us=step / samples,
            samples=samples,
            detail={
                "kind": "data",
                "replicas": replicas,
                "allreduce_us": comm,
                "exposed_comm_us": exposed,
                "beat_us": beat,
            },
        )

    def _microbatch(self, strategy: Strategy) -> int:
        return max(1, self.config.batch_size // strategy.microbatches)

    def _measure_pipeline(self, strategy: Strategy) -> StrategyOutcome:
        if sum(strategy.cuts) != len(self.scopes) or min(strategy.cuts) < 1:
            raise ValueError(
                f"cuts {strategy.cuts!r} do not split the "
                f"{len(self.scopes)} layer scope(s) into non-empty stages"
            )
        micro = self._microbatch(strategy)
        samples = micro * strategy.microbatches
        devices = self.fleet.assign_devices(strategy.placement)
        num_stages = len(strategy.cuts)
        stages = []
        start = 0
        for cls, name, width in zip(strategy.placement, devices, strategy.cuts):
            scopes = self.scopes[start:start + width]
            per_scope = self.stage_us(cls, micro)
            stages.append({
                "device": name,
                "device_class": cls,
                "scopes": scopes,
                "compute_us": sum(per_scope[s] for s in scopes),
            })
            start += width
        boundary = micro * self.config.hidden_size * 4
        transfer = 0.0
        if num_stages > 1:
            # every adjacent stage pair hands off on the same beat of a
            # full pipeline: the fabric carries S-1 concurrent transfers
            transfer = self.fleet.interconnect.contended_us(
                boundary, num_stages - 1
            )
        beat = max(s["compute_us"] for s in stages) + transfer
        step = (strategy.microbatches + num_stages - 1) * beat
        return StrategyOutcome(
            strategy=strategy,
            step_us=step,
            per_sample_us=step / samples,
            samples=samples,
            detail={
                "kind": "pipeline",
                "stages": stages,
                "microbatch": micro,
                "boundary_bytes": boundary,
                "transfer_us": transfer,
                "beat_us": beat,
            },
        )
