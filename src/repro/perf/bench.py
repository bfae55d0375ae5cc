"""The ``repro bench`` harness: baseline-vs-fast exploration timing.

For each requested feature variant, a model is optimized twice with the
same graph, device, seed and budget:

* **baseline** -- ``FastPath(cache=False, prune=False)``: the exhaustive
  path, every plan lowered from scratch;
* **fast** -- ``FastPath(cache=True, prune=True)``: the compilation
  cache plus cost-model pruning.

Two more legs run for the primary variant: **parallel** (the fast
configuration on N measurement workers) and **warm** (the fast
configuration rerun against the profile store the fast leg populated --
the optimization-as-a-service path of ``docs/serving.md``).

Both runs are wrapped in a :class:`~repro.perf.timers.PhaseClock`, so
the output breaks wall time into the exploration phases (``enumerate`` /
``prerank`` / ``lower`` / ``validate`` / ``simulate`` / ``explore``),
and the process-wide memos (GEMM-plan cache, kernel-key cache) are
cleared before *every* run so neither leg inherits the other's warmth.

Throughput is reported as **configs/sec**: the number of configuration
choices the search space contained *before* pruning, divided by wall
time.  Both legs share that numerator, so the configs/sec ratio equals
the wall-clock speedup -- pruning is credited for retiring choices
without measuring them, which is exactly its job.

The harness is also the exactness watchdog: ``ok`` is false -- and
``repro bench`` exits non-zero -- if the fast run's winning
configuration or final epoch time differs from the baseline's in any
variant, or if the cache never hit.  ``BENCH_<model>.json`` is the
serialized document; see ``docs/performance.md`` for how to read it.
"""

from __future__ import annotations

import os
import tempfile
import time
from dataclasses import dataclass, field

from ..core.session import AstraSession, SessionReport
from ..gpu import DEVICES
from ..gpu.device import GPUSpec
from ..models import MODEL_BUILDERS
from ..obs.metrics import MetricsRegistry
from .ranker import FastPath
from .timers import PhaseClock

BENCH_VERSION = 4

#: the variant the acceptance gate applies to: the fusion+kernel phase is
#: where both the cache and the pre-ranker bite (the stream phase's epoch
#: metric is not prunable, so ``all`` runs are simulator-bound)
PRIMARY_VARIANT = "FK"

DEFAULT_VARIANTS = (PRIMARY_VARIANT, "all")

#: minimum configs/sec ratio (fast vs baseline) a full-scale run of the
#: primary variant must show; ``--quick`` runs skip this timing gate
SPEEDUP_TARGET = 2.0

#: minimum configs/sec ratio (parallel vs fast) a full-scale run must
#: show -- enforced only when the host actually has at least ``workers``
#: CPU cores: process workers time-slicing one core cannot speed anything
#: up, and a bench gate must not assert physics the machine forbids.  The
#: equivalence gates (identical winner, identical epoch time) apply on
#: every host, always.
PARALLEL_SPEEDUP_TARGET = 3.0

#: worker count for the bench's parallel leg
DEFAULT_WORKERS = 4

#: maximum fraction of the cold run's measured configurations a
#: warm-started rerun may measure (the ISSUE's acceptance gate);
#: deterministic on the simulator, so it applies on every host
WARM_CONFIGS_TARGET = 0.5

BASELINE_FAST_PATH = FastPath(cache=False, prune=False)
FAST_FAST_PATH = FastPath(cache=True, prune=True)


def _clear_process_memos() -> None:
    """Reset process-wide memos so every timed leg starts cold.

    Without this, whichever leg runs first warms the GEMM-plan and
    kernel-key memos for the second -- the comparison must not depend on
    run order.
    """
    from ..gpu import libraries
    from . import signature

    libraries._PLAN_MEMO.clear()
    signature._KERNEL_KEY_MEMO.clear()


@dataclass
class BenchRun:
    """One timed optimization: the report plus its timing instruments."""

    report: SessionReport
    clock: PhaseClock
    metrics: MetricsRegistry
    wall_s: float

    def record(self) -> dict:
        fast_path = self.report.astra.fast_path
        choices = fast_path.get("choices_total", 0)
        return {
            "wall_s": self.wall_s,
            "phase_total_s": self.clock.total_s,
            "phases_s": dict(sorted(self.clock.seconds.items())),
            "configs_per_sec": (choices / self.wall_s) if self.wall_s > 0 else 0.0,
            "choices_total": choices,
            "choices_pruned": fast_path.get("choices_pruned", 0),
            "configs_explored": self.report.configs_explored,
            "best_time_us": self.report.best_time_us,
            "native_time_us": self.report.native_time_us,
            "speedup_over_native": self.report.speedup_over_native,
            "cache": fast_path.get("cache"),
            "engine": fast_path.get("parallel"),
            "warm": dict(self.report.warm),
        }


def timed_session_run(
    model,
    *,
    features: str = PRIMARY_VARIANT,
    device: GPUSpec | None = None,
    seed: int = 1,
    budget: int = 3000,
    fast: FastPath | None = None,
    workers: int | None = None,
    store=None,
) -> BenchRun:
    """Optimize ``model`` once under a phase clock, from a cold start.

    The clock's outer ``other`` phase covers session construction and any
    un-instrumented residue, so the exclusive phase times always sum to
    the timed wall clock (pinned by the harness-timing regression test).
    The parallel leg's pool lifetime -- spawn through shutdown -- is
    inside the timed wall: using workers costs their startup.  A
    ``store`` makes the run a warm-start participant (docs/serving.md):
    seeding from the store and publishing back are both inside the timed
    wall, so the warm leg pays for its own I/O.
    """
    _clear_process_memos()
    device = device if device is not None else DEVICES["P100"]
    clock = PhaseClock()
    metrics = MetricsRegistry()
    start = time.perf_counter()
    with clock.phase("other"):
        session = AstraSession(
            model, device=device, features=features, seed=seed,
            metrics=metrics, fast=fast, clock=clock, workers=workers,
            store=store,
        )
        try:
            report = session.optimize(max_minibatches=budget)
        finally:
            session.close()
    wall_s = time.perf_counter() - start
    return BenchRun(report=report, clock=clock, metrics=metrics, wall_s=wall_s)


def _build_model(name: str, batch: int, seq_len: int):
    module = __import__(f"repro.models.{name}", fromlist=["DEFAULT_CONFIG"])
    config = module.DEFAULT_CONFIG.scaled(batch_size=batch, seq_len=seq_len)
    return MODEL_BUILDERS[name](config)


def _winner_match(base: BenchRun, fast: BenchRun) -> dict:
    """The exactness invariant, checked per variant.

    Choices repr-compare (they are plain values: ints, strings, library
    names); the final epoch time must be *exactly* equal -- the fast path
    claims bit-identical winners, not statistically similar ones.
    """
    base_assignment = {k: repr(v) for k, v in base.report.astra.assignment.items()}
    fast_assignment = {k: repr(v) for k, v in fast.report.astra.assignment.items()}
    return {
        "assignment_match": base_assignment == fast_assignment,
        "best_time_match": base.report.best_time_us == fast.report.best_time_us,
        "assignment": fast_assignment,
    }


@dataclass
class BenchDoc:
    """The assembled ``BENCH_<model>.json`` document."""

    doc: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return self.doc["ok"]


def bench_model(
    name: str,
    *,
    batch: int = 16,
    seq_len: int = 5,
    device_name: str = "P100",
    seed: int = 1,
    budget: int = 3000,
    variants: tuple[str, ...] = DEFAULT_VARIANTS,
    quick: bool = False,
    workers: int = DEFAULT_WORKERS,
) -> dict:
    """Run the baseline / fast / parallel comparison and assemble the doc.

    ``quick`` restricts the sweep to the primary variant and waives the
    configs/sec targets (CI smoke must not gate on machine speed); the
    exactness and cache-effectiveness guards always apply.

    The **parallel** leg (primary variant only -- the engine parallelizes
    the fusion+kernel trees) reruns the fast configuration with
    ``workers`` measurement workers.  Its gates:

    * equivalence, always, on every host: the parallel run's winning
      assignment, final epoch time and explored-config count must equal
      the serial fast run's *exactly* -- a parallel engine that changes
      the answer is broken, not fast;
    * throughput, full runs only: configs/sec at least
      :data:`PARALLEL_SPEEDUP_TARGET` times the serial fast leg's, when
      the host has at least ``workers`` cores.  On smaller hosts the
      measured ratio is still recorded but the gate reports itself
      skipped (``parallel_gate``); quick runs only require the ratio to
      be non-zero (both legs completed and were timed).

    The **warm** leg (primary variant only) reruns the fast
    configuration against a profile store populated by an untimed rerun
    of the same job (docs/serving.md).  Its gates -- identical winner,
    at most :data:`WARM_CONFIGS_TARGET` of the cold measurements,
    non-zero seeding -- are deterministic and apply always; see
    :func:`_warm_leg`.
    """
    if name not in MODEL_BUILDERS:
        raise ValueError(f"unknown model {name!r}; have {sorted(MODEL_BUILDERS)}")
    device = DEVICES[device_name]
    if quick:
        variants = (PRIMARY_VARIANT,)
    model = _build_model(name, batch, seq_len)
    host_cpus = os.cpu_count() or 1

    failures: list[str] = []
    variant_docs: dict[str, dict] = {}
    warm_dir = tempfile.TemporaryDirectory(prefix="astra-bench-store-")
    try:
        _bench_variants(
            model, variants, device, seed, budget, quick, workers,
            host_cpus, warm_dir.name, failures, variant_docs,
        )
    finally:
        warm_dir.cleanup()

    primary = variant_docs.get(PRIMARY_VARIANT)
    if primary is not None:
        if primary["cache_hit_rate"] <= 0.0:
            failures.append(f"{PRIMARY_VARIANT}: cache hit rate is 0")
        if not quick and primary["configs_per_sec_ratio"] < SPEEDUP_TARGET:
            failures.append(
                f"{PRIMARY_VARIANT}: configs/sec ratio "
                f"{primary['configs_per_sec_ratio']:.2f} below the "
                f"{SPEEDUP_TARGET:.1f}x target"
            )

    return {
        "version": BENCH_VERSION,
        "model": name,
        "batch": batch,
        "seq_len": seq_len,
        "device": device_name,
        "seed": seed,
        "budget": budget,
        "quick": quick,
        "workers": workers,
        "host_cpus": host_cpus,
        "primary_variant": PRIMARY_VARIANT,
        "speedup_target": SPEEDUP_TARGET,
        "parallel_speedup_target": PARALLEL_SPEEDUP_TARGET,
        "warm_configs_target": WARM_CONFIGS_TARGET,
        "variants": variant_docs,
        "failures": failures,
        "ok": not failures,
    }


def _bench_variants(
    model, variants, device, seed, budget, quick, workers,
    host_cpus, warm_root, failures, variant_docs,
) -> None:
    for variant in variants:
        base = timed_session_run(
            model, features=variant, device=device, seed=seed, budget=budget,
            fast=BASELINE_FAST_PATH,
        )
        fast = timed_session_run(
            model, features=variant, device=device, seed=seed, budget=budget,
            fast=FAST_FAST_PATH,
        )
        match = _winner_match(base, fast)
        base_rec, fast_rec = base.record(), fast.record()
        ratio = (
            fast_rec["configs_per_sec"] / base_rec["configs_per_sec"]
            if base_rec["configs_per_sec"] > 0 else 0.0
        )
        cache = fast_rec["cache"] or {}
        variant_docs[variant] = {
            "baseline": base_rec,
            "fast": fast_rec,
            "configs_per_sec_ratio": ratio,
            "wall_speedup": (
                base_rec["wall_s"] / fast_rec["wall_s"]
                if fast_rec["wall_s"] > 0 else 0.0
            ),
            "cache_hit_rate": cache.get("hit_rate", 0.0),
            "winner_match": match["assignment_match"] and match["best_time_match"],
            "assignment_match": match["assignment_match"],
            "best_time_match": match["best_time_match"],
            "winning_assignment": match["assignment"],
        }
        if not match["assignment_match"]:
            failures.append(
                f"{variant}: pruned winner diverged from exhaustive winner"
            )
        if not match["best_time_match"]:
            failures.append(
                f"{variant}: final epoch time diverged "
                f"(baseline {base_rec['best_time_us']} us, "
                f"fast {fast_rec['best_time_us']} us)"
            )
        if variant == PRIMARY_VARIANT and workers:
            par = timed_session_run(
                model, features=variant, device=device, seed=seed,
                budget=budget, fast=FAST_FAST_PATH, workers=workers,
            )
            variant_docs[variant].update(
                _parallel_leg(fast, par, workers, host_cpus, quick, failures)
            )
        if variant == PRIMARY_VARIANT:
            # populate run: identical job, untimed, against a fresh
            # store -- the fast leg stays store-free so its wall time
            # remains comparable to committed (pre-warm-leg) baselines,
            # which the serve import cost would otherwise contaminate
            store = os.path.join(warm_root, variant)
            timed_session_run(
                model, features=variant, device=device, seed=seed,
                budget=budget, fast=FAST_FAST_PATH, store=store,
            )
            warm = timed_session_run(
                model, features=variant, device=device, seed=seed,
                budget=budget, fast=FAST_FAST_PATH, store=store,
            )
            variant_docs[variant].update(
                _warm_leg(fast, warm, failures)
            )


def _warm_leg(fast: BenchRun, warm: BenchRun, failures: list[str]) -> dict:
    """Record and gate the warm-start leg against the serial fast leg.

    An untimed populate run filled the store; the warm leg reruns the
    identical job against it.  All three gates are deterministic (the
    simulator is noise-free), so they apply on every host, quick runs
    included:

    * the warm run's winning assignment and final epoch time must equal
      the fast run's exactly -- warm-starting claims bit-identical
      convergence, not approximate reuse;
    * the warm run must *measure* at most :data:`WARM_CONFIGS_TARGET`
      (50%) of the configurations the cold run measured -- the point of
      the store is retiring measurements, and a fully matching index
      retires essentially all of them;
    * the warm run must actually have seeded entries -- a warm leg that
      silently ran cold (store misconfigured, digest mismatch) would
      otherwise pass the identity gates vacuously.
    """
    match = _winner_match(fast, warm)
    fast_rec, warm_rec = fast.record(), warm.record()
    seeded = (warm_rec["warm"] or {}).get("seeded_entries", 0)
    fraction = (
        warm_rec["configs_explored"] / fast_rec["configs_explored"]
        if fast_rec["configs_explored"] > 0 else 0.0
    )
    if not match["assignment_match"]:
        failures.append("warm: winner diverged from cold fast winner")
    if not match["best_time_match"]:
        failures.append(
            f"warm: final epoch time diverged "
            f"(cold {fast_rec['best_time_us']} us, "
            f"warm {warm_rec['best_time_us']} us)"
        )
    if fraction > WARM_CONFIGS_TARGET:
        failures.append(
            f"warm: measured {warm_rec['configs_explored']} of "
            f"{fast_rec['configs_explored']} cold configurations "
            f"({fraction * 100:.0f}%; target <= "
            f"{WARM_CONFIGS_TARGET * 100:.0f}%)"
        )
    if seeded <= 0:
        failures.append("warm: store seeded 0 entries (warm leg ran cold)")
    return {
        "warm": warm_rec,
        "warm_speedup": (
            fast_rec["wall_s"] / warm_rec["wall_s"]
            if warm_rec["wall_s"] > 0 else 0.0
        ),
        "warm_configs_fraction": fraction,
        "warm_seeded_entries": seeded,
        "warm_winner_match": (
            match["assignment_match"] and match["best_time_match"]
        ),
        "warm_gate": (
            f"<= {WARM_CONFIGS_TARGET * 100:.0f}% of cold configs, "
            f"identical winner"
        ),
    }


def _parallel_leg(
    fast: BenchRun,
    par: BenchRun,
    workers: int,
    host_cpus: int,
    quick: bool,
    failures: list[str],
) -> dict:
    """Record and gate the parallel leg against the serial fast leg."""
    match = _winner_match(fast, par)
    fast_rec, par_rec = fast.record(), par.record()
    ratio = (
        par_rec["configs_per_sec"] / fast_rec["configs_per_sec"]
        if fast_rec["configs_per_sec"] > 0 else 0.0
    )
    configs_match = (
        par_rec["configs_explored"] == fast_rec["configs_explored"]
    )
    if not match["assignment_match"]:
        failures.append(
            f"parallel@{workers}: winner diverged from serial fast winner"
        )
    if not match["best_time_match"]:
        failures.append(
            f"parallel@{workers}: final epoch time diverged "
            f"(serial {fast_rec['best_time_us']} us, "
            f"parallel {par_rec['best_time_us']} us)"
        )
    if not configs_match:
        failures.append(
            f"parallel@{workers}: explored {par_rec['configs_explored']} "
            f"configs, serial explored {fast_rec['configs_explored']}"
        )
    if quick:
        gate = "non-zero"
        if ratio <= 0.0:
            failures.append(f"parallel@{workers}: configs/sec ratio is zero")
    elif host_cpus >= workers:
        gate = f">= {PARALLEL_SPEEDUP_TARGET:.1f}x"
        if ratio < PARALLEL_SPEEDUP_TARGET:
            failures.append(
                f"parallel@{workers}: configs/sec ratio {ratio:.2f} below "
                f"the {PARALLEL_SPEEDUP_TARGET:.1f}x target"
            )
    else:
        gate = (
            f"skipped: host has {host_cpus} core(s) < {workers} workers"
        )
    return {
        "parallel": par_rec,
        "parallel_ratio": ratio,
        "parallel_winner_match": (
            match["assignment_match"] and match["best_time_match"]
            and configs_match
        ),
        "parallel_gate": gate,
    }


#: maximum tolerated drop in the machine-relative configs/sec ratio
#: before ``repro bench --compare`` fails (see :func:`compare_bench`)
REGRESSION_THRESHOLD = 0.20

#: the document version that introduced each optional leg.  The compare
#: gate uses these to distinguish "this document *predates* the leg"
#: (gate skipped: committed old baselines stay loadable forever) from
#: "this document *should* carry the leg but does not" (gate reports the
#: missing leg explicitly) -- and to refuse documents that carry a leg
#: their declared version cannot: without the explicit check, a warm
#: leg diffed against a v2 baseline would silently pass vacuously.
LEG_VERSIONS = {"warm": 3}

#: human label per leg for failure messages
_LEG_LABELS = {"warm": "warm-start"}


def compare_bench(current: dict, baseline: dict) -> dict:
    """Diff a fresh bench document against a committed baseline.

    The regression gate compares what is stable across machines:

    * **winner identity** -- the winning assignment of every variant both
      documents ran must be identical; an optimizer that starts picking a
      different plan has changed behavior, not speed;
    * **relative throughput** -- the fast-vs-baseline ``configs_per_sec``
      *ratio*, which divides out the host's absolute speed.  A drop of
      more than :data:`REGRESSION_THRESHOLD` (20%) in any shared variant
      fails the comparison.

    * **optional legs** (warm-start) -- when *both*
      documents carry the leg, its ``<leg>_speedup`` ratio (which
      divides out the host's absolute speed) must not drop by more than
      the same threshold, and the leg's winner identity must hold.
      Each leg has an explicit schema version (:data:`LEG_VERSIONS`): a
      baseline whose declared version predates the leg skips the gate
      (committed v2 documents stay loadable forever), a document
      that carries a leg its declared version cannot **fails** the
      comparison, and a document new enough to carry the leg but
      missing it reports a distinct skip reason -- the warm gate can
      never silently pass against a pre-warm baseline.

    Absolute configs/sec and cache hit rates are reported as
    informational deltas only -- they track the machine as much as the
    code, so they never gate.
    """
    failures: list[str] = []
    variants: dict[str, dict] = {}
    cur_version = current.get("version", 0)
    base_version = baseline.get("version", 0)
    shared = [
        v for v in baseline.get("variants", {})
        if v in current.get("variants", {})
    ]
    if not shared:
        failures.append("no shared variants between current and baseline docs")
    for variant in shared:
        cur, base = current["variants"][variant], baseline["variants"][variant]
        cur_ratio = cur.get("configs_per_sec_ratio", 0.0)
        base_ratio = base.get("configs_per_sec_ratio", 0.0)
        ratio_drop = (
            1.0 - cur_ratio / base_ratio if base_ratio > 0 else 0.0
        )
        winner_match = (
            cur.get("winning_assignment") == base.get("winning_assignment")
        )
        variants[variant] = {
            "winner_match": winner_match,
            "ratio_current": cur_ratio,
            "ratio_baseline": base_ratio,
            "ratio_drop": ratio_drop,
            # informational: machine-dependent, never gated
            "configs_per_sec_current": cur["fast"]["configs_per_sec"],
            "configs_per_sec_baseline": base["fast"]["configs_per_sec"],
            "cache_hit_rate_current": cur.get("cache_hit_rate", 0.0),
            "cache_hit_rate_baseline": base.get("cache_hit_rate", 0.0),
        }
        if not winner_match:
            failures.append(
                f"{variant}: winning assignment changed vs committed baseline"
            )
        if ratio_drop > REGRESSION_THRESHOLD:
            failures.append(
                f"{variant}: configs/sec ratio regressed "
                f"{ratio_drop * 100:.1f}% "
                f"({base_ratio:.2f}x -> {cur_ratio:.2f}x; "
                f"threshold {REGRESSION_THRESHOLD * 100:.0f}%)"
            )
        for leg in LEG_VERSIONS:
            _compare_leg(
                variant, leg, cur, base, cur_version, base_version,
                variants[variant], failures,
            )
    return {
        "model": current.get("model"),
        "baseline_model": baseline.get("model"),
        "threshold": REGRESSION_THRESHOLD,
        "variants": variants,
        "failures": failures,
        "ok": not failures,
    }


def _compare_leg(
    variant: str, leg: str, cur: dict, base: dict,
    cur_version: int, base_version: int, vdoc: dict, failures: list[str],
) -> None:
    """Gate one optional leg of one variant (see :func:`compare_bench`)."""
    min_version = LEG_VERSIONS[leg]
    cur_speed = cur.get(f"{leg}_speedup")
    base_speed = base.get(f"{leg}_speedup")
    vdoc[f"{leg}_speedup_current"] = cur_speed
    vdoc[f"{leg}_speedup_baseline"] = base_speed
    # a document that carries the leg while declaring a version that
    # predates it is mislabelled -- refuse it instead of comparing
    mislabelled = False
    for side, version, speed in (("current", cur_version, cur_speed),
                                 ("baseline", base_version, base_speed)):
        if speed is not None and version < min_version:
            failures.append(
                f"{variant}: {side} document declares version {version} "
                f"but carries a {leg} leg (introduced in version "
                f"{min_version})"
            )
            mislabelled = True
    if mislabelled:
        vdoc[f"{leg}_gate"] = "failed: version/leg mismatch"
        return
    if cur_speed is None or base_speed is None:
        if base_version < min_version or cur_version < min_version:
            side, version = (
                ("baseline", base_version) if base_version < min_version
                else ("current", cur_version)
            )
            vdoc[f"{leg}_gate"] = (
                f"skipped: {side} document version {version} predates "
                f"the {leg} leg (introduced in version {min_version})"
            )
        else:
            side = "current" if cur_speed is None else "baseline"
            vdoc[f"{leg}_gate"] = (
                f"skipped: {side} document did not run the {leg} leg"
            )
        return
    drop = 1.0 - cur_speed / base_speed if base_speed > 0 else 0.0
    vdoc[f"{leg}_gate"] = "compared"
    vdoc[f"{leg}_speedup_drop"] = drop
    vdoc[f"{leg}_winner_match"] = cur.get(f"{leg}_winner_match", False)
    if not cur.get(f"{leg}_winner_match", False):
        failures.append(f"{variant}: {leg} leg's winner diverged")
    if drop > REGRESSION_THRESHOLD:
        failures.append(
            f"{variant}: {_LEG_LABELS[leg]} speedup regressed "
            f"{drop * 100:.1f}% "
            f"({base_speed:.2f}x -> {cur_speed:.2f}x; "
            f"threshold {REGRESSION_THRESHOLD * 100:.0f}%)"
        )


def render_compare(diff: dict) -> str:
    """Human-readable summary of a :func:`compare_bench` diff."""
    lines = [
        f"bench compare: {diff.get('model')} vs committed "
        f"{diff.get('baseline_model')} "
        f"(gate: winner identity + ratio within "
        f"{diff['threshold'] * 100:.0f}%)",
        f"{'variant':>8}  {'ratio old':>9}  {'ratio new':>9}  {'drop%':>6}  "
        f"{'cfg/s old':>10}  {'cfg/s new':>10}  {'hit% old':>8}  "
        f"{'hit% new':>8}  winner",
    ]
    for variant, vdoc in diff["variants"].items():
        lines.append(
            f"{variant:>8}  {vdoc['ratio_baseline']:8.2f}x  "
            f"{vdoc['ratio_current']:8.2f}x  "
            f"{vdoc['ratio_drop'] * 100:6.1f}  "
            f"{vdoc['configs_per_sec_baseline']:10.0f}  "
            f"{vdoc['configs_per_sec_current']:10.0f}  "
            f"{vdoc['cache_hit_rate_baseline'] * 100:8.1f}  "
            f"{vdoc['cache_hit_rate_current'] * 100:8.1f}  "
            f"{'match' if vdoc['winner_match'] else 'CHANGED'}"
        )
    for leg in LEG_VERSIONS:
        for variant, vdoc in diff["variants"].items():
            gate = vdoc.get(f"{leg}_gate")
            if gate is None:
                continue
            if gate != "compared":
                lines.append(f"{variant:>8}  {leg}: {gate}")
            else:
                lines.append(
                    f"{variant:>8}  {leg}: "
                    f"{vdoc[f'{leg}_speedup_baseline']:.2f}x -> "
                    f"{vdoc[f'{leg}_speedup_current']:.2f}x "
                    f"(drop {vdoc[f'{leg}_speedup_drop'] * 100:.1f}%)  "
                    f"{'match' if vdoc.get(f'{leg}_winner_match') else 'CHANGED'}"
                )
    if diff["failures"]:
        lines.append("FAILURES:")
        lines.extend(f"  - {msg}" for msg in diff["failures"])
    else:
        lines.append("ok: winners stable, relative throughput held")
    return "\n".join(lines)


def render_bench(doc: dict) -> str:
    """Human-readable summary of a bench document."""
    lines = [
        f"bench {doc['model']}  batch={doc['batch']} seq={doc['seq_len']} "
        f"device={doc['device']} seed={doc['seed']}"
        + ("  [quick]" if doc.get("quick") else ""),
        f"{'variant':>8}  {'base(s)':>8}  {'fast(s)':>8}  {'ratio':>6}  "
        f"{'cfg/s base':>10}  {'cfg/s fast':>10}  {'hit%':>5}  "
        f"{'pruned':>6}  winner",
    ]
    for variant, vdoc in doc["variants"].items():
        base, fast = vdoc["baseline"], vdoc["fast"]
        lines.append(
            f"{variant:>8}  {base['wall_s']:8.3f}  {fast['wall_s']:8.3f}  "
            f"{vdoc['configs_per_sec_ratio']:5.2f}x  "
            f"{base['configs_per_sec']:10.0f}  {fast['configs_per_sec']:10.0f}  "
            f"{vdoc['cache_hit_rate'] * 100:5.1f}  "
            f"{fast['choices_pruned']:6d}  "
            f"{'match' if vdoc['winner_match'] else 'DIVERGED'}"
        )
    for variant, vdoc in doc["variants"].items():
        par = vdoc.get("parallel")
        if par is None:
            continue
        engine = par.get("engine") or {}
        lines.append(
            f"{variant:>8}  parallel@{doc.get('workers', '?')} "
            f"({engine.get('pool', '?')} pool): {par['wall_s']:.3f}s  "
            f"{vdoc['parallel_ratio']:.2f}x vs fast  "
            f"{'match' if vdoc['parallel_winner_match'] else 'DIVERGED'}  "
            f"gate: {vdoc['parallel_gate']}"
        )
    for variant, vdoc in doc["variants"].items():
        warm = vdoc.get("warm")
        if warm is None:
            continue
        lines.append(
            f"{variant:>8}  warm (store): {warm['wall_s']:.3f}s  "
            f"{vdoc['warm_speedup']:.2f}x vs cold  "
            f"measured {warm['configs_explored']} of "
            f"{vdoc['fast']['configs_explored']} configs "
            f"({vdoc['warm_configs_fraction'] * 100:.0f}%)  "
            f"seeded {vdoc['warm_seeded_entries']}  "
            f"{'match' if vdoc['warm_winner_match'] else 'DIVERGED'}  "
            f"gate: {vdoc['warm_gate']}"
        )
    for variant, vdoc in doc["variants"].items():
        phases = vdoc["fast"]["phases_s"]
        detail = "  ".join(f"{k}={v:.3f}" for k, v in phases.items())
        lines.append(f"{variant:>8}  fast phases (s): {detail}")
    if doc["failures"]:
        lines.append("FAILURES:")
        lines.extend(f"  - {msg}" for msg in doc["failures"])
    else:
        lines.append("ok: winners identical, cache effective"
                     + ("" if doc.get("quick") else
                        f", primary ratio >= {doc['speedup_target']:.1f}x"))
    return "\n".join(lines)
