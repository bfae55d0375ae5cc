"""Per-layer microbenchmark of the lowering/simulation engine.

    python benchmarks/micro/engine.py [--model milstm] [--batch 16]
        [--seq-len 1] [--features all] [--budget 3000] [--reps 10] [--check]

Runs one untimed exploration with the CLI's defaults (P100, fast path with
cache and pruning) and records every plan ``Executor.run`` receives and
what it returned.  It then replays those plans ``--reps`` times through
the three layers a measurement passes, each timed on its own and
interleaved rep by rep so drift in the host's speed hits all three alike:

* lower: ``LoweringCache.lower`` through a fresh cache (compile once per
  structure, bind per candidate);
* simulate: ``StreamSimulator.run`` of each bound program;
* readback: the executor's per-unit times and per-epoch stream metrics.

It prints each layer's median and quartiles over the reps (seconds per
pass over all plans), the simulator's items/s and the share of kernels in
multi-stream programs that overlapped no other kernel (the share the
engine's dispatch-bound fast path can finish in one step), then one JSON
object as its last line.  ``--check`` exits 1 unless the replay repeats
everything the profiler observes: each run's total, CPU and profiling
overhead times, every kernel record's (stream, issue, start, end), the
event times in recording order, the unit times and the epoch metrics.
"""

from __future__ import annotations

import argparse
import importlib
import json
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "src"))

from repro import AstraSession  # noqa: E402
from repro.gpu import P100, StreamSimulator  # noqa: E402
from repro.models import MODEL_BUILDERS  # noqa: E402
from repro.perf import FastPath, LoweringCache  # noqa: E402
from repro.runtime import Dispatcher, Executor  # noqa: E402


def observed(result) -> tuple:
    """Everything the profiler can observe about one engine run."""
    return (
        result.total_time_us,
        result.cpu_time_us,
        result.profiling_overhead_us,
        [(r.stream, r.issue_time, r.start_time, r.end_time) for r in result.records],
        list(result.event_times.items()),
    )


def lone_kernels(records: list[tuple]) -> int:
    """How many of an observation's kernel records overlapped no other."""
    spans = sorted((start, end) for _stream, _issue, start, end in records)
    alone = 0
    reach = float("-inf")  # latest end among kernels started so far
    for i, (start, end) in enumerate(spans):
        if start >= reach and (i + 1 == len(spans) or end <= spans[i + 1][0]):
            alone += 1
        reach = max(reach, end)
    return alone


def record_exploration(model, features: str, budget: int) -> list[tuple]:
    """(plan, engine observation, unit times, epoch metrics) of every
    ``Executor.run`` call one exploration makes."""
    recorded: list[tuple] = []
    run = Executor.run

    def recording(self, plan, validate=None):
        result = run(self, plan, validate=validate)
        recorded.append(
            (plan, observed(result.raw), result.unit_times, result.epoch_metrics)
        )
        return result

    Executor.run = recording
    try:
        AstraSession(
            model, device=P100, features=features, seed=0,
            fast=FastPath(cache=True, prune=True),
        ).optimize(max_minibatches=budget)
    finally:
        Executor.run = run
    return recorded


def replay(graph, plans: list) -> tuple[dict[str, float], list[tuple]]:
    """One timed pass of each layer over ``plans``."""
    dispatcher = Dispatcher(graph)
    cache = LoweringCache()
    simulator = StreamSimulator(P100)
    executor = Executor(graph, P100)
    seconds = {}

    # as in ``optimize``, the plans share the graph's lowering memos,
    # built cold on each pass
    with graph.memoized():
        start = time.perf_counter()
        lowered = [cache.lower(dispatcher, plan) for plan in plans]
        seconds["lower"] = time.perf_counter() - start

        start = time.perf_counter()
        results = [simulator.run(schedule.program) for schedule in lowered]
        seconds["simulate"] = time.perf_counter() - start

    start = time.perf_counter()
    readback = []
    for schedule, result in zip(lowered, results):
        layout = schedule.readback
        unit_times, _faults, tainted = executor._unit_times(layout, result)
        readback.append((unit_times, executor._epoch_metrics(layout, result, tainted)))
    seconds["readback"] = time.perf_counter() - start

    replayed = [
        (observed(result), unit_times, epoch_metrics)
        for result, (unit_times, epoch_metrics) in zip(results, readback)
    ]
    seconds["items"] = sum(len(schedule.program) for schedule in lowered)
    return seconds, replayed


def summarize(values: list[float]) -> dict[str, float]:
    if len(values) == 1:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def positive(text: str) -> int:
    """An integer of at least 1, for ``--reps``."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, not {value}")
    return value


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--model", default="milstm", choices=sorted(MODEL_BUILDERS))
    parser.add_argument("--batch", type=int, default=16)
    parser.add_argument("--seq-len", type=int, default=1)
    parser.add_argument("--features", default="all")
    parser.add_argument("--budget", type=int, default=3000)
    parser.add_argument("--reps", type=positive, default=10)
    parser.add_argument("--check", action="store_true",
                        help="fail unless the replay reproduces every recorded number")
    args = parser.parse_args(argv)

    module = importlib.import_module(f"repro.models.{args.model}")
    config = module.DEFAULT_CONFIG.scaled(
        batch_size=args.batch, seq_len=args.seq_len, use_embedding=True,
    )
    model = MODEL_BUILDERS[args.model](config)
    recorded = record_exploration(model, args.features, args.budget)
    plans = [entry[0] for entry in recorded]

    per_layer: dict[str, list[float]] = {"lower": [], "simulate": [], "readback": []}
    mismatched = 0
    items = 0
    for _ in range(args.reps):
        seconds, replayed = replay(model.graph, plans)
        items = seconds.pop("items")
        for layer, value in seconds.items():
            per_layer[layer].append(value)
        if args.check:
            mismatched = sum(
                1 for entry, again in zip(recorded, replayed) if tuple(entry[1:]) != again
            )
            if mismatched:
                break

    doc = {
        "workload": f"{args.model} b{args.batch} seq{args.seq_len} {args.features}",
        "plans": len(plans),
        "items": items,
        "reps": len(per_layer["lower"]),
        **{f"{layer}_s": summarize(values) for layer, values in per_layer.items()},
    }
    # kernel records of the runs that used more than one stream
    concurrent = [records for (_t, _c, _p, records, _e), *_ in replayed
                  if len({stream for stream, *_ in records}) > 1]
    kernels = sum(len(records) for records in concurrent)
    doc["concurrent_kernels"] = kernels
    doc["lone_kernel_share"] = (
        sum(lone_kernels(records) for records in concurrent) / kernels if kernels else 0.0
    )
    simulate = doc["simulate_s"]["median"]
    doc["simulator_items_per_s"] = items / simulate if simulate else 0.0
    print(f"{doc['workload']}: {len(plans)} plans, {items} dispatch items, "
          f"{doc['reps']} reps")
    for layer in per_layer:
        stats = doc[f"{layer}_s"]
        print(f"  {layer:<9} median {stats['median'] * 1e3:8.2f} ms  "
              f"quartiles {stats['q1'] * 1e3:.2f}-{stats['q3'] * 1e3:.2f} ms")
    print(f"  simulator {doc['simulator_items_per_s']:,.0f} items/s")
    print(f"  {doc['lone_kernel_share']:.1%} of {kernels} kernels in "
          f"{len(concurrent)} multi-stream programs overlapped no other kernel")
    if args.check:
        doc["check"] = "ok" if not mismatched else f"{mismatched} plans differ"
        print(f"  check: {doc['check']}")
    print(json.dumps(doc))
    return 1 if mismatched else 0


if __name__ == "__main__":
    sys.exit(main())
