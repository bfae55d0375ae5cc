"""Per-layer microbenchmark of the front end: set-up's static analysis,
plan building, compile, kernel costs and the pre-ranker's estimates.

    python benchmarks/micro/frontend.py [--model gnmt] [--batch 16]
        [--seq-len 6] [--features FK] [--budget 3000] [--reps 10] [--check]

Runs one untimed exploration with the CLI's defaults (P100, fast path with
cache and pruning) and records the strategy and assignment of every plan
the enumerator builds.  It then replays those builds ``--reps`` times,
each rep on a fresh enumerator and dispatcher inside one
``Graph.memoized`` block, as ``optimize`` runs them, so every rep starts
cold.  Per candidate it times three layers:

* build: ``Enumerator.build_plan``;
* compile: ``Dispatcher.compile`` (dependencies, issue order, tables);
* costs: ``KernelTable.costs`` of the compiled kernel table;

and once per rep, before the candidates as in ``optimize``:

* setup: building the model, then section 4.5.2's static analysis as
  ``Enumerator`` runs it (``analyse_fusion``,
  ``resolve_static_conflicts`` and ``enumerate_strategies``);
* estimates: ``estimate_choices_us`` for every variable of the unpruned
  FK tree of each strategy.

It prints each layer's median and quartiles over the reps (seconds per
pass), then one JSON object as its last line, which also holds the
per-candidate medians and the size of each candidate's delta:
``fresh_units`` (units its build emitted that no earlier emission had),
``rechained_nodes`` (remainder nodes its elementwise sweep re-chained)
and ``fresh_unit_sources`` (units whose producer sources and issue key
its compile derived; the others are looked up).  ``--check`` exits 1
unless every unit, unit dependency (in iteration order), compiled index,
kernel cost and estimate equals the pre-memo code kept in
``tests/runtime/_reference_lowering.py``, and the resolved analysis and
the allocation strategies equal the pairwise code kept in
``tests/core/_reference_fusion.py``.
"""

from __future__ import annotations

import argparse
import importlib
import json
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT))

from repro import AstraSession  # noqa: E402
from repro.core.allocation import enumerate_strategies, group_flops  # noqa: E402
from repro.core.enumerator import AstraFeatures, Enumerator  # noqa: E402
from repro.core.fusion import analyse_fusion, resolve_static_conflicts  # noqa: E402
from repro.gpu import P100  # noqa: E402
from repro.gpu.cost_model import units_cost_us  # noqa: E402
from repro.models import MODEL_BUILDERS  # noqa: E402
from repro.perf import FastPath  # noqa: E402
from repro.perf.ranker import estimate_choices_us  # noqa: E402
from repro.runtime import Dispatcher  # noqa: E402
from repro.runtime.lowering import graph_lowering  # noqa: E402
from tests.core._reference_fusion import (  # noqa: E402
    reference_enumerate_strategies,
    reference_resolve_static_conflicts,
)
from tests.runtime._reference_lowering import (  # noqa: E402
    reference_build_units,
    reference_compile,
    reference_kernel_costs,
    reference_units_for_choice,
)

LAYERS = ("setup", "build", "compile", "costs", "estimates")
#: the layers timed per candidate; the others are timed once per rep
CANDIDATE_LAYERS = ("build", "compile", "costs")
#: per-candidate delta sizes: units emitted fresh, remainder nodes
#: re-chained, units whose sources and issue key were derived fresh
COUNTS = ("fresh_units", "rechained_nodes", "fresh_unit_sources")


def record_builds(model, features: str, budget: int) -> list[tuple]:
    """(strategy id, assignment, keyword arguments) of every plan one
    exploration builds."""
    recorded: list[tuple] = []
    build_plan = Enumerator.build_plan

    def recording(self, strategy, assignment, **kwargs):
        recorded.append((strategy.strategy_id, dict(assignment), kwargs))
        return build_plan(self, strategy, assignment, **kwargs)

    Enumerator.build_plan = recording
    try:
        AstraSession(
            model, device=P100, features=features, seed=0,
            fast=FastPath(cache=True, prune=True),
        ).optimize(max_minibatches=budget)
    finally:
        Enumerator.build_plan = build_plan
    return recorded


def set_up(build_model) -> tuple[float, tuple]:
    """One timed model build and static analysis, with what it found."""
    start = time.perf_counter()
    graph = build_model().graph
    found = analyse_fusion(graph)
    analysis = resolve_static_conflicts(found)
    strategies = enumerate_strategies(analysis, group_flops(analysis))
    return time.perf_counter() - start, (found, analysis, strategies)


def setup_mismatches(found, analysis, strategies) -> list[str]:
    """Where the static analysis differs from the pairwise reference code
    (dataclass reprs carry labels, member order and each satisfied set's
    iteration order)."""
    expected = reference_resolve_static_conflicts(found)
    mismatched = [
        f"setup: {field}"
        for field in ("groups", "singletons", "ladder_requirements")
        if repr(getattr(analysis, field)) != repr(getattr(expected, field))
    ]
    reference = reference_enumerate_strategies(expected, group_flops(expected))
    if repr(strategies) != repr(reference):
        mismatched.append("setup: strategies")
    return mismatched


def replay(graph, features, builds: list) -> tuple[dict, list, list, tuple]:
    """One timed pass: the estimates, then each candidate's layers."""
    per_candidate = []
    counts = []
    outputs = []
    with graph.memoized():
        enum = Enumerator(graph, P100, features)
        dispatcher = Dispatcher(graph)
        lowering = graph_lowering(graph)
        strategies = {s.strategy_id: s for s in enum.strategies}

        start = time.perf_counter()
        estimates = []
        for strategy in enum.strategies:
            gemm_us: dict = {}  # shared per strategy, as the pre-ranker shares it
            for var in enum.build_fk_tree(strategy).variables():
                estimates.append((strategy, var, estimate_choices_us(
                    enum, strategy, var, P100, gemm_us=gemm_us,
                )))
        estimate_s = time.perf_counter() - start

        for strategy_id, assignment, kwargs in builds:
            seconds = {}
            before = (enum.fresh_units, lowering.rechained, lowering.fresh_sources)
            start = time.perf_counter()
            built = enum.build_plan(strategies[strategy_id], assignment, **kwargs)
            seconds["build"] = time.perf_counter() - start

            start = time.perf_counter()
            compiled = dispatcher.compile(built.plan)
            seconds["compile"] = time.perf_counter() - start

            start = time.perf_counter()
            costs = compiled.table.costs(P100)
            seconds["costs"] = time.perf_counter() - start
            after = (enum.fresh_units, lowering.rechained, lowering.fresh_sources)
            per_candidate.append(seconds)
            counts.append(dict(zip(COUNTS, (b - a for a, b in zip(before, after)))))
            outputs.append((strategies[strategy_id], assignment, built, compiled, costs))
    totals = {layer: sum(c[layer] for c in per_candidate) for layer in CANDIDATE_LAYERS}
    totals["estimates"] = estimate_s
    return totals, per_candidate, counts, (enum, estimates, outputs)


def mismatches(graph, replayed) -> list[str]:
    """Where the replay differs from the pre-memo reference code."""
    enum, estimates, outputs = replayed
    found = []
    for strategy, var, var_estimates in estimates:
        for choice, estimate in zip(var.choices, var_estimates):
            reference = units_cost_us(
                reference_units_for_choice(enum, strategy, var, choice), P100
            )
            if estimate != reference:
                found.append(f"estimate {var.name}={choice!r}")
    for index, (strategy, assignment, built, compiled, costs) in enumerate(outputs):
        reference = reference_build_units(enum, strategy, assignment)
        if built.plan.units != reference.units:
            found.append(f"candidate {index}: units")
        if built.var_units != reference.var_units:
            found.append(f"candidate {index}: var_units")
        reference_deps, expected = reference_compile(graph, built.plan)
        deps = Dispatcher(graph).unit_dependencies(built.plan)
        if [(u, list(d)) for u, d in deps.items()] != [
            (u, list(d)) for u, d in reference_deps.items()
        ]:
            found.append(f"candidate {index}: dependencies")
        for field in ("order_ids", "step_deps", "edge_uids", "edge_deps",
                      "copies", "record_units"):
            if getattr(compiled, field) != getattr(expected, field):
                found.append(f"candidate {index}: {field}")
        if costs != reference_kernel_costs(compiled.table.kernels, P100):
            found.append(f"candidate {index}: costs")
    return found


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
    parser.add_argument("--model", default="gnmt", choices=sorted(MODEL_BUILDERS))
    parser.add_argument("--batch", type=int, default=16)
    parser.add_argument("--seq-len", type=int, default=6)
    parser.add_argument("--features", default="FK")
    parser.add_argument("--budget", type=int, default=3000)
    parser.add_argument("--reps", type=positive, default=10)
    parser.add_argument("--check", action="store_true",
                        help="fail unless every layer's output equals the reference code's")
    args = parser.parse_args(argv)

    module = importlib.import_module(f"repro.models.{args.model}")
    config = module.DEFAULT_CONFIG.scaled(
        batch_size=args.batch, seq_len=args.seq_len, use_embedding=True,
    )
    def build_model():
        return MODEL_BUILDERS[args.model](config)

    model = build_model()
    features = AstraFeatures.preset(args.features)
    builds = record_builds(model, args.features, args.budget)

    per_layer: dict[str, list[float]] = {layer: [] for layer in LAYERS}
    per_candidate: list[dict[str, list[float]]] = [
        {layer: [] for layer in CANDIDATE_LAYERS} for _ in builds
    ]
    failures: list[str] = []
    for _ in range(args.reps):
        setup_s, static = set_up(build_model)
        totals, candidates, counts, replayed = replay(model.graph, features, builds)
        totals["setup"] = setup_s
        for layer, value in totals.items():
            per_layer[layer].append(value)
        for sink, seconds in zip(per_candidate, candidates):
            for layer, value in seconds.items():
                sink[layer].append(value)
        if args.check:
            failures = setup_mismatches(*static) + mismatches(model.graph, replayed)
            if failures:
                break

    doc = {
        "workload": f"{args.model} b{args.batch} seq{args.seq_len} {args.features}",
        "candidates": len(builds),
        "reps": len(per_layer["build"]),
        **{f"{layer}_s": summarize(values) for layer, values in per_layer.items()},
        "per_candidate_median_s": [
            {layer: statistics.median(values) for layer, values in sink.items()}
            for sink in per_candidate
        ],
        # every rep starts cold, so each counts the same
        "per_candidate_counts": counts,
    }
    print(f"{doc['workload']}: {len(builds)} candidates, {doc['reps']} reps")
    for layer in LAYERS:
        stats = doc[f"{layer}_s"]
        print(f"  {layer:<9} median {stats['median'] * 1e3:8.2f} ms  "
              f"quartiles {stats['q1'] * 1e3:.2f}-{stats['q3'] * 1e3:.2f} ms")
    for name in COUNTS:
        print(f"  {name:<18} first candidate {counts[0][name]:>6}, "
              f"the {len(counts) - 1} others {sum(c[name] for c in counts[1:]):>6}")
    if args.check:
        doc["check"] = "ok" if not failures else "; ".join(failures[:10])
        print(f"  check: {doc['check']}")
    print(json.dumps(doc))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
