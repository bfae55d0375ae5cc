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
from ..faults.checkpoint import ExplorationCheckpoint
from ..gpu.device import GPUSpec, P100
from ..ir.graph import Graph
from ..models.cells import TracedModel
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
        metrics=None,
        reporter=None,
        tracer=None,
        validate: bool = False,
        policy=None,
        faults=None,
        checkpoint_path: str | None = None,
        fast=None,
        clock=None,
        workers: int = 1,
        provenance=None,
        store=None,
        server=None,
        learned=None,
    ):
        self.graph = model.graph if isinstance(model, TracedModel) else model
        self.model = model if isinstance(model, TracedModel) else None
        self.device = device
        self.seed = seed
        if isinstance(features, str):
            features = AstraFeatures.preset(features)
        self.features = features
        self.checkpoint_path = checkpoint_path
        # cross-job warm start (docs/serving.md): a local ProfileStore
        # path/instance and/or a serve-daemon URL/client whose indexes
        # seed this job's exploration and receive its measurements back.
        # Bound before the wirer so ``learned="store"`` can resolve the
        # store's published cost-model artifact (docs/learning.md)
        self._store = store
        self._server = server
        if learned == "store":
            binding = self._store_binding()
            learned = binding.load_model() if binding is not None else None
            if learned is None and metrics is not None:
                metrics.counter("learn.artifact_missing").inc()
        self.wirer = CustomWirer(
            self.graph, device, features, seed=seed, context=context, index=index,
            metrics=metrics, reporter=reporter, tracer=tracer, validate=validate,
            policy=policy, faults=faults, checkpoint_path=checkpoint_path,
            fast=fast, clock=clock, workers=workers,
            provenance=provenance, learned=learned,
        )
        # resume-on-restart: an existing checkpoint for the same
        # (graph, device, features, seed) is adopted automatically, so
        # rerunning the same command after a preemption continues the
        # exploration instead of restarting it
        if checkpoint_path and os.path.exists(checkpoint_path):
            self.wirer.restore(ExplorationCheckpoint.load(checkpoint_path))
        self._job_digest: str | None = None
        self._warm_done = False
        self._published_keys: set = set()

    def close(self) -> None:
        """Release held resources (the engine's worker pool)."""
        self.wirer.close()

    # -- cross-job warm start (docs/serving.md) -----------------------------

    def job_digest(self) -> str | None:
        """This job's measurement-space identity, or None when neither a
        store nor a server is configured (no sharing requested)."""
        if self._store is None and self._server is None:
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

    def _server_binding(self):
        """Materialize a URL argument into a live ServeClient once."""
        if isinstance(self._server, str):
            from ..serve.client import ServeClient

            self._server = ServeClient(self._server)
        return self._server

    def _warm_start(self) -> None:
        """Seed the wirer's index from every configured warm source.

        Runs once, before the first exploration mini-batch.  Sources
        merge first-writer-wins in a fixed order (store, then server),
        so two sessions with the same sources seed identically.  A
        source with nothing for this job is a recorded miss, not an
        error -- the run simply starts cold and publishes afterwards.
        """
        if self._warm_done:
            return
        self._warm_done = True
        digest = self.job_digest()
        if digest is None:
            return
        store = self._store_binding()
        if store is not None:
            index = store.load(digest)
            self.wirer.warm_start(
                index.snapshot() if index is not None else (),
                source="store", digest=digest,
            )
        client = self._server_binding()
        if client is not None:
            try:
                entries = client.get_index(digest)
            except OSError:
                entries = None  # daemon unreachable: degrade to cold
                self.wirer.metrics.counter("warm.server_unreachable").inc()
            self.wirer.warm_start(
                entries or (), source="server", digest=digest
            )
        # everything present after seeding (including checkpoint-restored
        # entries) is someone else's work: publish only this run's delta
        self._published_keys = set(self.wirer.index.snapshot())

    def _publish(self) -> None:
        """Push this run's fresh measurements back to the warm sources."""
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
        store = self._store_binding()
        if store is not None:
            store.put(digest, delta)
            self.wirer.metrics.counter("warm.published_entries").inc(len(delta))
        client = self._server_binding()
        if client is not None:
            try:
                client.put_index(digest, delta)
                self.wirer.metrics.counter("warm.published_entries").inc(
                    len(delta)
                )
            except OSError:
                self.wirer.metrics.counter("warm.server_unreachable").inc()
        self._published_keys.update(key for key, _value in delta)

    def __enter__(self) -> "AstraSession":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def measure_native(self) -> float:
        """Mini-batch time of the unadapted framework execution.

        Always taken on a clean (injector-free) executor: the baseline
        describes the framework, not the injected interference.
        """
        executor = Executor(
            self.graph, self.device, seed=self.seed, clock=self.wirer.clock
        )
        return executor.run(native_plan(self.graph)).total_time_us

    def measure_clean(self, plan) -> float:
        """Mini-batch time of ``plan`` on a clean executor (no injector)."""
        executor = Executor(
            self.graph, self.device, seed=self.seed, clock=self.wirer.clock
        )
        return executor.run(plan).total_time_us

    def optimize(
        self, max_minibatches: int = 5000, *, measure_native: bool = True
    ) -> SessionReport:
        """Run the exploration; with ``measure_native=False`` the native
        baseline is skipped and the report's baseline-relative fields are
        neutral (``speedup_over_native == 1.0``).

        Inner sessions (one per device class of a fleet strategy search)
        use this: they only need ``best_time_us``, and the caller already
        owns its own baseline -- measuring native once per device class
        per shard size would double every calibration.  The degradation
        invariant still holds: a hardened session (armed injector)
        measures the baseline on demand before enforcing it.
        """
        self._warm_start()
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
        self.wirer.metrics.counter("recovery.degraded").inc()
        self.wirer.reporter.fault(
            "degraded", "degradation",
            f"explored plan ({clean_time:.1f}us) slower than native "
            f"({native_time:.1f}us); custom-wired to native plan",
        )
        self.wirer.tracer.instant("degraded", best_time_us=native_time)
        return report
