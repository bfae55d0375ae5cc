"""One benchmark sample in a fresh process, so it starts cold as a CLI run does.

    python benchmarks/perf/sample.py --workload NAME --seed N
        [--kind full|setup] [--trace 0|1] [--store DIR] [--quiet-ms MS]

Probes the host, sets up (``import repro``, model trace and autodiff,
session construction), probes, probes, optimizes, probes, and then --
outside the timed regions -- lowers and validates the winning plan.
Prints one JSON object as its last line.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import os
import resource
import statistics
import sys
import time
from contextlib import nullcontext
from pathlib import Path

from spans import SpanRecorder, instrument
from workloads import BUDGET, DEVICE, WORKLOADS

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT / "src"))


def _config(workload):
    # the CLI's model configuration: DEFAULT_CONFIG scaled to batch/seq
    module = importlib.import_module(f"repro.models.{workload.model}")
    return module.DEFAULT_CONFIG.scaled(
        batch_size=workload.batch, seq_len=workload.seq_len, use_embedding=True,
    )


class SessionJob:
    """``AstraSession.optimize`` as ``repro optimize`` runs it."""

    def __init__(self, workload, seed: int, store: str | None):
        from repro import AstraSession
        from repro.gpu import DEVICES
        from repro.models import MODEL_BUILDERS
        from repro.perf import FastPath

        self.model = MODEL_BUILDERS[workload.model](_config(workload))
        self.session = AstraSession(
            self.model, device=DEVICES[DEVICE], features=workload.features,
            seed=seed, fast=FastPath(cache=True, prune=True),
            workers=workload.workers, store=store,
        )

    def optimize(self):
        try:
            return self.session.optimize(max_minibatches=BUDGET)
        finally:
            self.session.close()

    def describe(self, report) -> dict:
        astra = report.astra
        fast = astra.fast_path
        cache = fast.get("cache") or {}
        lookups = sum(p.index_hits + p.minibatches for p in astra.phases)
        assignment = json.dumps(
            sorted((name, repr(choice)) for name, choice in astra.assignment.items())
        )
        return {
            "choices_total": fast["choices_total"],
            "output": {
                "assignment_sha256": hashlib.sha256(assignment.encode()).hexdigest(),
                "plan_us": report.best_time_us,
                "native_us": report.native_time_us,
                "measured_configs": report.configs_explored,
            },
            "counters": {
                "index_hit_rate": (
                    sum(p.index_hits for p in astra.phases) / lookups if lookups else 0.0
                ),
                "pruned_fraction": (
                    fast["choices_pruned"] / fast["choices_total"]
                    if fast["choices_total"] else 0.0
                ),
                "structure_hit_rate": _rate(cache, "structure"),
                "schedule_hit_rate": _rate(cache, "schedule"),
                "seeded_entries": astra.warm.get("seeded_entries", 0),
            },
        }

    def violations(self, report) -> int:
        from repro.check import validate_schedule
        from repro.runtime.dispatcher import Dispatcher

        lowered = Dispatcher(self.model.graph).lower(report.astra.best_plan)
        return len(validate_schedule(lowered).violations)


def _rate(cache: dict, tier: str) -> float:
    hits = cache.get(f"{tier}_hits", 0)
    total = hits + cache.get(f"{tier}_misses", 0)
    return hits / total if total else 0.0


class FleetJob:
    """``run_fleet_search`` as ``repro fleet MODEL --astra --no-verify``
    runs it.  Set-up is the import and one model build (trace and
    autodiff), as on the session workloads.  The search takes no
    measurer, so it constructs its own, with its own model build, inside
    the timed optimize call, as the CLI's does."""

    def __init__(self, workload, seed: int, store: str | None):
        import repro.fleet
        from repro.models import MODEL_BUILDERS

        self.workload = workload
        self.seed = seed
        self.builder = MODEL_BUILDERS[workload.model]
        self.config = _config(workload)
        self.fleet = repro.fleet.get_fleet(workload.fleet)
        self.builder(self.config)

    def optimize(self):
        import repro.fleet

        # resolved at call time, so a traced sample sees the wrapper
        return repro.fleet.run_fleet_search(
            self.builder, self.config, self.fleet,
            model_name=self.workload.model, workers=self.workload.workers,
            use_astra=True, seed=self.seed,
        )

    def describe(self, report) -> dict:
        return {
            "choices_total": report.strategies_total,
            "output": {
                "winner": report.winner.label,
                "plan_us": report.winner_step_us,
                "measured_configs": report.strategies_measured,
            },
            "counters": {},
        }

    def violations(self, report) -> int:
        return 0  # a strategy is not a lowered schedule


def _probe_kernel() -> float:
    start = time.perf_counter()
    table: dict = {}
    keys = []
    for i in range(5_000):
        key = (i % 97, i % 13)
        table[key] = table.get(key, 0) + i
        keys.append((i * 7919) % 10007)
    keys.sort()
    holder = type("Holder", (), {})
    for i in range(500):
        obj = holder()
        obj.value = keys[i]
    x = 0
    for i in range(20_000):
        x = (x * 31 + i) & 0xFFFF
    return (time.perf_counter() - start) * 1e3


def host_probe_ms(cpus: list[int]) -> list[float]:
    """Per CPU, the median of 5 timings of a fixed pure-Python kernel,
    run pinned to that CPU.  Its first half (tuple keys, dict updates, a
    list sort, attribute stores) slows with the host's caches and memory,
    its second half (integer arithmetic) with the interpreter's dispatch;
    the optimizer does both kinds of work, and neither half alone tracks
    it as well (README.md, "Noise control").  The collector is off, so
    the size of the live heap does not leak in."""
    enabled = gc.isenabled()
    gc.disable()
    affinity = os.sched_getaffinity(0)
    try:
        out = []
        for cpu in cpus:
            os.sched_setaffinity(0, {cpu})
            out.append(statistics.median(_probe_kernel() for _ in range(5)))
        return out
    finally:
        os.sched_setaffinity(0, affinity)
        if enabled:
            gc.enable()


#: the longest a one-process sample waits for a CPU at normal speed
QUIET_WAIT_S = 2.0


def quiet_cpu(cpus: list[int], quiet_ms: float | None) -> tuple[int, float]:
    """The CPU that probes fastest and its probe, once one reads at most
    ``quiet_ms`` or ``QUIET_WAIT_S`` has passed."""
    deadline = time.monotonic() + QUIET_WAIT_S
    while True:
        probes = host_probe_ms(cpus)
        fastest = min(range(len(cpus)), key=probes.__getitem__)
        if quiet_ms is None or probes[fastest] <= quiet_ms or time.monotonic() > deadline:
            return cpus[fastest], probes[fastest]
        time.sleep(0.05)


def run_sample(workload, seed: int, kind: str, trace: bool, store: str | None,
               quiet_ms: float | None = None) -> dict:
    # Each CPU of this host switches on its own between its normal speed
    # and a far slower one, and the runner calibrates every timing by the
    # probes taken before and after it.  Set-up runs in one process,
    # pinned to a CPU at normal speed, and only that CPU is probed around
    # it.  So does a session's optimize call; the fleet's worker
    # processes use every CPU, so its search runs unpinned and every CPU
    # is probed around it.
    cpus = sorted(os.sched_getaffinity(0))
    cpu, probe = quiet_cpu(cpus, quiet_ms)
    os.sched_setaffinity(0, {cpu})
    probes = [[probe]]
    recorder = SpanRecorder()
    job_type = FleetJob if workload.fleet else SessionJob
    with instrument(recorder) if trace else nullcontext():
        # set-up is timed from before ``import repro``
        start = time.perf_counter()
        with recorder.span("setup"):
            job = job_type(workload, seed, store)
        result = {"setup_s": time.perf_counter() - start, "probe_ms": probes}
        probes.append(host_probe_ms([cpu]))
        if kind == "setup":
            return result
        if workload.workers:
            os.sched_setaffinity(0, cpus)
        else:
            cpus = [cpu]
        probes.append(host_probe_ms(cpus))
        with recorder.span("optimize"):
            start = time.perf_counter()
            report = job.optimize()
            result["optimize_s"] = time.perf_counter() - start
        probes.append(host_probe_ms(cpus))
    usage = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    result["peak_rss_mb"] = usage / 1024.0  # ru_maxrss is in KiB on Linux
    result.update(job.describe(report))
    result["violations"] = job.violations(report)
    if trace:
        result["spans"] = recorder.spans
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--kind", choices=("full", "setup"), default="full")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--store", default=None)
    parser.add_argument("--quiet-ms", type=float, default=None,
                        help="wait for a CPU whose probe reads at most this")
    args = parser.parse_args()
    result = run_sample(
        WORKLOADS[args.workload], args.seed, args.kind, bool(args.trace), args.store,
        args.quiet_ms,
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
