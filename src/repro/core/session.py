"""AstraSession: the public entry point of the library.

Typical use::

    from repro import AstraSession
    from repro.models import build_scrnn, ModelConfig

    model = build_scrnn(ModelConfig(batch_size=32, seq_len=6))
    session = AstraSession(model, features="all")
    report = session.optimize()
    print(report.speedup_over_native, report.configs_explored)

A session owns the traced model, the device, the enumerator/wirer pair and
the baseline measurement, and reports speedups the way the paper's tables
do (relative to the native single-stream framework execution).

A session can also run hardened (see ``docs/robustness.md``): pass a
:class:`~repro.faults.plan.FaultPlan` to inject faults, a
:class:`~repro.core.measurement.MeasurementPolicy` for min-of-k robust
measurement, and ``checkpoint_path`` to make the exploration preemptible
and resumable.  Hardened sessions enforce the degradation invariant: the
plan a session returns is never slower than native -- if fault damage
made the explored winner worse, the session degrades to the native plan.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

from ..baselines.native import native_plan
from ..gpu.device import GPUSpec, P100
from ..ir.graph import Graph
from ..models.cells import TracedModel
from ..obs.observer import NULL_OBSERVER, Observer
from ..runtime.executor import Executor
from .enumerator import AstraFeatures
from .profile_index import ProfileIndex
from .wirer import AstraReport, CustomWirer


@dataclass
class SessionReport:
    """An :class:`AstraReport` plus baseline-relative numbers."""

    astra: AstraReport
    native_time_us: float
    speedup_over_native: float

    @property
    def configs_explored(self) -> int:
        return self.astra.configs_explored

    @property
    def best_time_us(self) -> float:
        return self.astra.best_time_us

    @property
    def degraded(self) -> bool:
        return self.astra.degraded

    @property
    def warm(self) -> dict:
        """Warm-start accounting (empty for cold runs)."""
        return self.astra.warm


class AstraSession:
    """Optimizes one traced training job on one (simulated) device."""

    def __init__(
        self,
        model: TracedModel | Graph,
        device: GPUSpec = P100,
        features: AstraFeatures | str = "all",
        seed: int = 0,
        context: tuple = (),
        index: ProfileIndex | None = None,
        observer: Observer = NULL_OBSERVER,
        validate: bool = False,
        policy=None,
        faults=None,
        checkpoint_path: str | None = None,
        fast=None,
        store=None,
        workers: int | None = None,
    ):
        # exploration measures one configuration per mini-batch, in the
        # caller: ``workers`` survives only for callers written against
        # the old worker pool, and accepts nothing but width 1
        if workers not in (None, 1):
            raise ValueError(
                f"workers={workers!r}: single-job exploration runs one "
                "configuration per mini-batch in the caller; only the fleet "
                "search measures in parallel (repro fleet --workers)"
            )
        self.graph = model.graph if isinstance(model, TracedModel) else model
        self.model = model if isinstance(model, TracedModel) else None
        self.device = device
        self.seed = seed
        if isinstance(features, str):
            features = AstraFeatures.preset(features)
        self.features = features
        self.checkpoint_path = checkpoint_path
        # cross-job warm start (docs/serving.md): a ProfileStore
        # path/instance whose index seeds this job's exploration and
        # receives its measurements back
        self._store = store
        self.wirer = CustomWirer(
            self.graph, device, features, seed=seed, context=context, index=index,
            observer=observer, validate=validate,
            policy=policy, faults=faults, checkpoint_path=checkpoint_path,
            fast=fast,
        )
        # resume-on-restart: an existing checkpoint for the same
        # (graph, device, features, seed) is adopted automatically, so
        # rerunning the same command after a preemption continues the
        # exploration instead of restarting it
        if checkpoint_path and os.path.exists(checkpoint_path):
            from ..faults.checkpoint import ExplorationCheckpoint

            self.wirer.restore(ExplorationCheckpoint.load(checkpoint_path))
        self._job_digest: str | None = None
        self._warm_done = False
        self._published_keys: set = set()

    def close(self) -> None:
        """A no-op: a session holds no pool or other resource to release.
        Kept, with the context-manager protocol, for callers that close
        their sessions."""

    # -- cross-job warm start (docs/serving.md) -----------------------------

    def job_digest(self) -> str | None:
        """This job's measurement-space identity, or None when no store
        is configured (no sharing requested)."""
        if self._store is None:
            return None
        if self._job_digest is None:
            from ..serve.keys import job_digest

            self._job_digest = job_digest(
                self.graph, self.device, self.features,
                context=self.wirer.base_context, policy=self.wirer.policy,
            )
        return self._job_digest

    def _store_binding(self):
        """Materialize a path argument into a live ProfileStore once."""
        if isinstance(self._store, str):
            from ..serve.store import ProfileStore

            self._store = ProfileStore(self._store)
        return self._store

    def _warm_start(self) -> None:
        """Seed the wirer's index from the store.

        Runs once, before the first exploration mini-batch.  Seeding is
        first-writer-wins: entries already present (a restored
        checkpoint) keep their values.  A store with nothing for this job
        is a recorded miss, not an error -- the run simply starts cold and
        publishes afterwards.
        """
        if self._warm_done:
            return
        self._warm_done = True
        digest = self.job_digest()
        if digest is None:
            return
        index = self._store_binding().load(digest)
        self.wirer.warm_start(
            index.snapshot() if index is not None else (),
            source="store", digest=digest,
        )
        # everything present after seeding (including checkpoint-restored
        # entries) is someone else's work: publish only this run's delta
        self._published_keys = set(self.wirer.index.snapshot())

    def _publish(self) -> None:
        """Push this run's fresh measurements back to the store."""
        digest = self.job_digest()
        if digest is None:
            return
        delta = [
            (key, value)
            for key, value in self.wirer.index.snapshot().items()
            if key not in self._published_keys
        ]
        if not delta:
            return
        self._store_binding().put(digest, delta)
        self.wirer.observer.count("warm.published_entries", len(delta))
        self._published_keys.update(key for key, _value in delta)

    def __enter__(self) -> "AstraSession":
        return self

    def __exit__(self, *exc_info) -> None:
        """A no-op, like :meth:`close`."""

    def measure_native(self) -> float:
        """Mini-batch time of the unadapted framework execution.

        Always taken on a clean (injector-free) executor: the baseline
        describes the framework, not the injected interference.
        """
        executor = Executor(
            self.graph, self.device, seed=self.seed, observer=self.wirer.observer
        )
        return executor.run(native_plan(self.graph)).total_time_us

    def measure_clean(self, plan) -> float:
        """Mini-batch time of ``plan`` on a clean executor (no injector)."""
        executor = Executor(
            self.graph, self.device, seed=self.seed, observer=self.wirer.observer
        )
        return executor.run(plan).total_time_us

    def optimize(
        self, max_minibatches: int = 5000, *, measure_native: bool = True
    ) -> SessionReport:
        """Run the exploration; with ``measure_native=False`` the native
        baseline is skipped and the report's baseline-relative fields are
        neutral (``speedup_over_native == 1.0``).  ``max_minibatches`` is
        not a hard cap: every phase spends at least one mini-batch per
        strategy (see :meth:`CustomWirer.optimize`).

        Inner sessions (one per device class of a fleet strategy search)
        use this: they only need ``best_time_us``, and the caller already
        owns its own baseline -- measuring native once per device class
        per shard size would double every calibration.  The degradation
        invariant still holds: a hardened session (armed injector)
        measures the baseline on demand before enforcing it.
        """
        self._warm_start()
        # the native baseline and the exploration lower one graph: they
        # share its kernels, costs and producer closure, built on first use
        with self.graph.memoized():
            native_time = self.measure_native() if measure_native else None
            report = self.wirer.optimize(max_minibatches=max_minibatches)
            if self.wirer.injector is not None and not report.degraded:
                if native_time is None:
                    native_time = self.measure_native()
                report = self._enforce_degradation(report, native_time)
        self._publish()
        if native_time is None:
            return SessionReport(
                astra=report,
                native_time_us=0.0,
                speedup_over_native=1.0,
            )
        return SessionReport(
            astra=report,
            native_time_us=native_time,
            speedup_over_native=native_time / report.best_time_us,
        )

    def _enforce_degradation(
        self, report: AstraReport, native_time: float
    ) -> AstraReport:
        """The degradation invariant: never ship a plan slower than native.

        Under fault injection the exploration can crown a wrong winner
        (e.g. the true best was quarantined away).  Re-measure the chosen
        plan on a clean executor; if it is slower than native, custom-wire
        to the native plan instead and mark the report degraded.
        """
        clean_time = self.measure_clean(report.best_plan)
        if clean_time <= native_time:
            # the explored winner survives a clean confirmation: report
            # its clean time so speedups describe the plan, not the noise
            report.best_time_us = clean_time
            return report
        plan = native_plan(self.graph)
        plan.label = "native/degraded"
        report.best_plan = plan
        report.best_time_us = native_time
        report.degraded = True
        self.wirer.observer.degraded(
            f"explored plan ({clean_time:.1f}us) slower than native "
            f"({native_time:.1f}us); custom-wired to native plan",
            native_time,
        )
        return report
