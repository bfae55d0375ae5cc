"""Command-line front-end: ``python -m repro <command>``.

Commands:

* ``optimize``  — trace a model, run the Astra exploration, print the report
  (``--json`` for a machine-readable document with the convergence curve
  and profile-index hit rates; ``--metrics-out`` / ``--report-out`` to
  persist the metrics registry and the per-mini-batch JSONL report)
* ``sweep``     — speedups across mini-batch sizes for one model
* ``baselines`` — native / XLA-style / cuDNN-style / Astra side by side
* ``inspect``   — dump what the enumerator found (fusion groups, strategies,
  epochs) for a model, without running any exploration
* ``profile``   — one observed ``optimize`` run, reported three ways: where
  host time went (the phase table), where simulated time went (the
  winner's critical path) and why the winner won (provenance); ``-o``
  writes the Chrome trace-event ``.trace.json`` of both timelines,
  openable in Perfetto (https://ui.perfetto.dev) or ``chrome://tracing``
  (see ``docs/observability.md``)
* ``check``     — schedule-correctness validation: deep-check the native
  lowering, then run the full exploration in validated mode so every
  configuration Astra tries is race/liveness-checked; exits non-zero on
  any violation (see ``docs/validation.md``)
* ``chaos``     — fault-injection sweep: run the exploration under each
  cell of a fault matrix (stragglers, throttling, launch failures,
  dropped/corrupted timestamps, device OOM, preemption), assert the
  degradation invariant and the fault accounting, and print a resilience
  report; exits non-zero if any cell fails (see ``docs/robustness.md``)
* ``analyze``   — critical-path analysis of a ``.trace.json`` written by
  ``repro profile -o``: per-kernel critical-path contribution, per-stream
  busy/stall attribution, dependency slack; ``--scale`` / ``--swap``
  project what-if timelines without re-running (see
  ``docs/observability.md``)
* ``fleet``     — heterogeneous fleet strategy search: data-parallel
  degree, pipeline stage cuts and per-stage device placement explored as
  adaptive variables over a mixed P100/V100 fleet, with admissible-bound
  pruning verified against the exhaustive sweep (see
  ``docs/distributed.md``)
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from .gpu import DEVICES
from .models import MODEL_BUILDERS
from .obs.observer import NULL_OBSERVER, Observer

_CONFIG_MODULES = {
    "scrnn": "repro.models.scrnn",
    "milstm": "repro.models.milstm",
    "sublstm": "repro.models.sublstm",
    "stacked_lstm": "repro.models.stacked_lstm",
    "gnmt": "repro.models.gnmt",
}


def _build(args):
    module = __import__(_CONFIG_MODULES[args.model], fromlist=["DEFAULT_CONFIG"])
    config = module.DEFAULT_CONFIG.scaled(
        batch_size=args.batch, seq_len=args.seq_len,
        use_embedding=not args.no_embedding,
    )
    return MODEL_BUILDERS[args.model](config)


def _observer(args) -> Observer:
    """An enabled observer only when some output wants one."""
    wants = args.json or args.metrics_out or getattr(args, "report_out", None)
    return Observer() if wants else NULL_OBSERVER


def _write_obs_outputs(args, observer: Observer) -> None:
    if args.metrics_out:
        with open(args.metrics_out, "w") as fh:
            fh.write(observer.metrics().to_json(indent=2))
    if getattr(args, "report_out", None):
        observer.report().write_jsonl(args.report_out)


def _session(args, model, observer: Observer):
    """The CLI's search: the full fast path (cache and pruning) unless
    ``--no-cache`` / ``--no-prune`` ask for from-scratch lowering or an
    exhaustive search, plus whichever of ``--faults``, ``--robust``,
    ``--checkpoint`` and ``--store`` the command takes.  ``optimize``,
    ``profile``, ``sweep`` and ``baselines`` all build their session here,
    so they run one search."""
    from . import AstraSession
    from .core.measurement import ROBUST
    from .faults import FaultPlan
    from .perf import FastPath

    faults = None
    if getattr(args, "faults", None):
        with open(args.faults) as fh:
            faults = FaultPlan.loads(fh.read())
    return AstraSession(
        model, device=DEVICES[args.device], features=args.features,
        seed=args.seed, observer=observer,
        policy=ROBUST if getattr(args, "robust", False) else None,
        faults=faults,
        checkpoint_path=getattr(args, "checkpoint", None),
        fast=FastPath(cache=not getattr(args, "no_cache", False),
                      prune=not getattr(args, "no_prune", False)),
        store=getattr(args, "store", None),
    )


def cmd_optimize(args) -> int:
    from .faults import PreemptionError

    observer = _observer(args)
    session = _session(args, _build(args), observer)
    try:
        report = session.optimize(max_minibatches=args.budget)
    except PreemptionError as exc:
        print(f"preempted at mini-batch {exc.minibatch}"
              + (f"; exploration state saved to {exc.checkpoint_path} -- "
                 "rerun the same command to resume"
                 if exc.checkpoint_path else " (no --checkpoint path set)"),
              file=sys.stderr)
        return 3
    astra = report.astra
    _write_obs_outputs(args, observer)
    if args.json:
        doc = observer.report().summary(
            astra, native_time_us=report.native_time_us,
            metrics=observer.metrics(),
        )
        doc["model"] = args.model
        doc["batch"] = args.batch
        doc["device"] = args.device
        doc["fast_path"] = astra.fast_path
        print(json.dumps(doc, indent=2))
        return 0
    print(f"model: {args.model}  batch={args.batch}  device={args.device}  "
          f"features=Astra_{args.features}")
    print(f"native:   {report.native_time_us / 1000:9.3f} ms/mini-batch")
    print(f"astra:    {astra.best_time_us / 1000:9.3f} ms/mini-batch")
    print(f"speedup:  {report.speedup_over_native:9.2f} x")
    print(f"explored: {astra.configs_explored} mini-batches  "
          f"(profiling overhead {astra.profiling_overhead * 100:.2f}%)")
    fast_path = astra.fast_path
    if fast_path:
        cache_stats = fast_path.get("cache") or {}
        parts = [
            f"cache {'on' if fast_path.get('cache_enabled') else 'off'}",
            f"prune {'on' if fast_path.get('prune_enabled') else 'off'}",
        ]
        if cache_stats:
            parts.append(f"cache hit rate {cache_stats.get('hit_rate', 0.0) * 100:.1f}%")
        if fast_path.get("prune_enabled"):
            parts.append(f"{fast_path.get('choices_pruned', 0)} of "
                         f"{fast_path.get('choices_total', 0)} choices pruned")
        print(f"fast path: {'  '.join(parts)}")
    warm = astra.warm
    if warm:
        sources = ", ".join(
            f"{s['source']}: {s['seeded_entries']}" for s in warm.get("sources", ())
        )
        digest = warm.get("digest") or ""
        print(f"warm start: {warm.get('seeded_entries', 0)} entries seeded "
              f"({sources})  job {digest[:12]}")
    print(f"allocation strategy: {astra.best_strategy.label}")
    if astra.memory:
        print(f"memory:   arena {astra.memory['arena_bytes'] / 1024**2:.1f} MiB "
              f"of {astra.memory['capacity_bytes'] / 1024**3:.0f} GiB "
              f"({astra.memory['utilization'] * 100:.2f}%)")
    if astra.degraded:
        print("DEGRADED: exploration could not beat native; "
              "custom-wired to the native plan")
    if astra.fault_summary.get("injected"):
        injected = ", ".join(f"{k}={v}" for k, v in
                             sorted(astra.fault_summary["injected"].items()))
        print(f"faults injected: {injected}")
    if args.verbose:
        print("\nchosen configuration:")
        for name, choice in sorted(astra.assignment.items()):
            print(f"  {name} -> {choice}")
    return 0


def cmd_sweep(args) -> int:
    batches = [int(b) for b in args.batches.split(",")]
    rows: list[dict] = []
    metrics_by_batch: dict[str, dict] = {}
    if not args.json:
        print(f"{'batch':>6}  {'native(ms)':>11}  {'astra(ms)':>10}  {'speedup':>8}")
    for batch in batches:
        args.batch = batch
        model = _build(args)
        observer = _observer(args)
        report = _session(args, model, observer).optimize(
            max_minibatches=args.budget
        )
        rows.append({
            "batch": batch,
            "native_time_us": report.native_time_us,
            "astra_time_us": report.best_time_us,
            "speedup_over_native": report.speedup_over_native,
            "configs_explored": report.configs_explored,
            "convergence_curve": [
                [s, v] for s, v in observer.report().convergence_curve()
            ],
        })
        if observer.enabled:
            metrics_by_batch[str(batch)] = observer.metrics().snapshot()
        if not args.json:
            print(f"{batch:6d}  {report.native_time_us / 1000:11.3f}  "
                  f"{report.best_time_us / 1000:10.3f}  "
                  f"{report.speedup_over_native:8.2f}")
    if args.metrics_out:
        with open(args.metrics_out, "w") as fh:
            json.dump({"version": 1, "metrics_by_batch": metrics_by_batch}, fh,
                      indent=2)
    if args.json:
        print(json.dumps({
            "version": 1, "model": args.model, "device": args.device,
            "sweep": rows,
        }, indent=2))
    return 0


def cmd_baselines(args) -> int:
    from .baselines import cudnn_applicable, run_cudnn, run_native, run_xla

    model = _build(args)
    device = DEVICES[args.device]
    native = run_native(model.graph, device).total_time_us
    xla = run_xla(model.graph, device).total_time_us
    print(f"native:   {native / 1000:9.3f} ms   1.00x")
    print(f"xla:      {xla / 1000:9.3f} ms   {native / xla:.2f}x")
    if cudnn_applicable(model.graph):
        cudnn = run_cudnn(model.graph, device).total_time_us
        print(f"cudnn:    {cudnn / 1000:9.3f} ms   {native / cudnn:.2f}x")
    else:
        print("cudnn:    not applicable (long-tail structure)")
    report = _session(args, model, NULL_OBSERVER).optimize(
        max_minibatches=args.budget
    )
    print(f"astra:    {report.best_time_us / 1000:9.3f} ms   "
          f"{report.speedup_over_native:.2f}x")
    return 0


def cmd_inspect(args) -> int:
    from .core import AstraFeatures, Enumerator, count_configurations

    model = _build(args)
    device = DEVICES[args.device]
    features = AstraFeatures.preset(args.features)
    enum = Enumerator(model.graph, device, features)
    graph = model.graph
    print(f"graph: {len(graph)} nodes, {len(graph.gemm_nodes())} GEMMs, "
          f"{graph.total_flops() / 1e9:.2f} Gflops/mini-batch")
    print(f"allocation strategies: "
          f"{[s.label for s in enum.strategies]}")
    print(f"fusion groups ({len(enum.analysis.groups)}):")
    for group in enum.analysis.groups:
        dims = group.launch_dims(group.members)
        print(f"  {group.group_id:56s} axis={group.axis} size={group.size} "
              f"max-fused={dims[0]}x{dims[1]}x{dims[2]}")
    print(f"lone ladders: "
          f"{sum(1 for m in enum.analysis.singletons if m.is_ladder)}, "
          f"plain GEMMs: "
          f"{sum(1 for m in enum.analysis.singletons if not m.is_ladder)}")
    tree = enum.build_fk_tree(enum.strategies[0])
    print(f"fk update tree: {sum(1 for _ in tree.variables())} variables, "
          f"<= {count_configurations(tree)} trials (parallel mode)")
    if features.streams:
        partition, stree = enum.prepare_stream_phase(
            enum.strategies[0], tree.assignment()
        )
        print(f"stream phase: {partition.num_super_epochs} super-epochs, "
              f"{len(partition.epochs)} epochs, "
              f"<= {count_configurations(stree)} trials")
    return 0


def _parse_indexed(value: str, flag: str, cast):
    try:
        index_text, detail = value.split(":", 1)
        return int(index_text), cast(detail)
    except (ValueError, TypeError):
        raise SystemExit(
            f"bad {flag} {value!r}: expected INDEX:"
            f"{'FACTOR' if cast is float else 'LIBRARY'}"
        )


def cmd_analyze(args) -> int:
    from .obs.analysis import analyze_trace

    with open(args.trace) as fh:
        doc = json.load(fh)
    report = analyze_trace(doc)
    device = DEVICES[args.device]
    projections = []
    try:
        for value in args.scale or ():
            from .obs.whatif import scale_kernel

            index, factor = _parse_indexed(value, "--scale", float)
            projections.append(scale_kernel(report.graph, index, factor))
        if args.swap:
            from .obs.whatif import swap_libraries

            swaps = dict(
                _parse_indexed(value, "--swap", str) for value in args.swap
            )
            projections.append(swap_libraries(report.graph, swaps, device))
    except (KeyError, IndexError, ValueError) as exc:
        raise SystemExit(f"cannot project: {exc}")
    if args.json:
        out = report.to_dict()
        out["projections"] = [p.to_dict() for p in projections]
        print(json.dumps(out, indent=2))
        return 0
    print(report.render(top=args.top))
    for projection in projections:
        print()
        print(projection.render())
    return 0


def cmd_profile(args) -> int:
    from .obs.analysis import analyze_trace
    from .obs.trace import chrome_trace, merge_host_trace
    from .runtime.executor import Executor

    model = _build(args)
    device = DEVICES[args.device]
    observer = Observer()
    start = time.perf_counter()
    # construction (the static analysis, and the first run's lazy imports)
    # is host time too, so it gets a phase of its own
    with observer.span("setup"):
        session = _session(args, model, observer)
    report = session.optimize(max_minibatches=args.budget)
    wall_s = time.perf_counter() - start
    astra = report.astra
    # the winner's mini-batch, re-run on a clean executor, next to the
    # optimizer's own host timeline
    executor = Executor(model.graph, device, seed=args.seed)
    lowered = executor.dispatcher.lower(astra.best_plan)
    trace = merge_host_trace(
        chrome_trace(executor.run_lowered(lowered).raw, lowered=lowered,
                     device=device, label=f"{args.model}/astra"),
        observer.chrome(),
    )
    if args.output is not None:
        out = args.output or f"{args.model}.trace.json"
        with open(out, "w") as fh:
            json.dump(trace, fh)
    phases = observer.phases()
    unattributed_s = wall_s - sum(phases.values())
    # the same analysis `repro analyze` runs on the written trace
    simulated = analyze_trace(trace)
    provenance = observer.provenance()
    if args.json:
        print(json.dumps({
            "version": 1,
            "model": args.model,
            "batch": args.batch,
            "device": args.device,
            "features": args.features,
            "host": {"wall_s": wall_s, "phases": phases,
                     "unattributed_s": unattributed_s},
            "simulated": simulated.to_dict(),
            "why": {
                "best_time_us": astra.best_time_us,
                "speedup_over_native": report.speedup_over_native,
                "assignment": {k: repr(v) for k, v in astra.assignment.items()},
                "provenance": provenance.to_dict(),
            },
        }, indent=2))
        return 0
    print(f"model: {args.model}  batch={args.batch}  device={args.device}  "
          f"features=Astra_{args.features}")
    if args.output is not None:
        print(f"wrote {out}: {len(trace['traceEvents'])} events "
              "(open it in https://ui.perfetto.dev or chrome://tracing)")
    print(f"\nhost time: {wall_s:.3f} s wall")
    for name, seconds in sorted(phases.items(), key=lambda kv: -kv[1]):
        print(f"  {name:<24} {seconds:9.4f} s  {seconds / wall_s:6.1%}")
    print(f"  {'unattributed':<24} {unattributed_s:9.4f} s  "
          f"{unattributed_s / wall_s:6.1%}")
    print("\nsimulated time (the winner's mini-batch):")
    print(simulated.render())
    print(f"\nwhy: astra {astra.best_time_us / 1000:.3f} ms/mini-batch  "
          f"({report.speedup_over_native:.2f}x over native, "
          f"{astra.configs_explored} mini-batches explored)")
    print(provenance.render(assignment=astra.assignment))
    return 0


def cmd_check(args) -> int:
    """Deep-check the native lowering, then run an exploration in
    validated mode.  Unlike ``optimize`` it keeps the library default
    search, :class:`~repro.perf.ranker.FastPath`'s defaults: pruning
    off, since it would leave the configurations it skips unchecked, and
    the compilation cache on.  The cache only reuses a compiled
    structure: each configuration is still lowered for its own plan, and
    the executor validates every lowered schedule it runs, so every
    configuration the search reaches is checked."""
    from . import AstraSession
    from .baselines.native import native_plan
    from .check import ScheduleValidationError, validate_schedule
    from .runtime.executor import Executor

    model = _build(args)
    device = DEVICES[args.device]
    graph = model.graph
    reports = []

    # 1. the native lowering, deep-checked (lifetime reuse + frees)
    executor = Executor(graph, device, seed=args.seed)
    lowered = executor.dispatcher.lower(native_plan(graph))
    reports.append(validate_schedule(lowered, deep=True,
                                     label=f"{args.model}/native"))

    # 2. every configuration the exploration tries, in validated mode
    observer = Observer()
    session = AstraSession(
        model, device=device, features=args.features, seed=args.seed,
        observer=observer, validate=True,
    )
    error = None
    try:
        session.optimize(max_minibatches=args.budget)
    except ScheduleValidationError as exc:
        error = exc
        reports.append(exc.report)

    snapshot = observer.metrics().snapshot()
    validated = snapshot.get("check.schedules_validated", {}).get("value", 0)
    failures = [r for r in reports if not r.ok]

    if args.json:
        print(json.dumps({
            "version": 1,
            "model": args.model,
            "batch": args.batch,
            "device": args.device,
            "ok": not failures,
            "schedules_validated": validated,
            "reports": [r.to_dict() for r in reports],
            "violation_records": [
                r.to_dict() for r in observer.report().violations()
            ],
        }, indent=2))
    else:
        for report in reports:
            print(f"{report.label}: {report.summary()}")
        print(f"exploration: {validated} schedule(s) validated"
              + ("" if error is None else " (aborted on violation)"))
        verdict = "FAILED" if failures else "OK"
        print(f"check {args.model}: {verdict}")
    return 1 if failures else 0


def cmd_chaos(args) -> int:
    from .faults.chaos import run_chaos

    model = _build(args)
    device = DEVICES[args.device]
    report = run_chaos(
        model,
        model_name=args.model,
        budget=args.budget,
        seed=args.seed,
        device=device,
        features=args.features,
        checkpoint_dir=args.checkpoint_dir,
    )
    if args.json:
        print(json.dumps(report.to_dict(), indent=2))
    else:
        print(report.render())
    return 0 if report.ok else 1


def _render_fleet_report(report, fleet, verify: dict | None) -> str:
    lines = [
        f"fleet search: {report.model}  batch={report.batch_size}  "
        f"fleet={report.fleet} ({fleet.describe()})",
        "calibration: " + "  ".join(
            f"{cls} {us:.1f} us" for cls, us in report.calibration.items()
        ),
    ]
    for row in report.table:
        if row["per_sample_us"] is not None:
            status = f"{row['per_sample_us']:10.3f}"
        else:
            status = "    pruned"
        lines.append(
            f"  {row['label']:<48} bound {row['bound_us']:10.3f}  {status}"
        )
    lines.append(
        f"winner: {report.winner.label}  "
        f"{report.winner_per_sample_us:.3f} us/sample  "
        f"(step {report.winner_step_us:.1f} us"
        + (", heterogeneous placement" if report.hetero_winner else "")
        + ")"
    )
    lines.append(
        f"search: measured {report.strategies_measured} of "
        f"{report.strategies_total} strategies "
        f"({report.measured_fraction * 100:.0f}%), "
        f"{report.strategies_pruned} pruned by bound"
        + (f"  [pruning stood down: {report.standdown}]"
           if report.standdown else "")
    )
    if report.best_homogeneous_us is not None:
        kind = "measured" if report.best_homogeneous_measured else "bound"
        lines.append(
            f"best homogeneous: {report.best_homogeneous_label}  "
            f"{report.best_homogeneous_us:.3f} us/sample ({kind})"
            + ("  -- beaten by the heterogeneous winner"
               if report.hetero_winner
               and report.winner_per_sample_us < report.best_homogeneous_us
               else "")
        )
    if report.engine:
        lines.append(
            f"engine: {report.engine['workers']} workers, "
            f"{report.engine['candidates']} primitives dispatched in "
            f"{report.engine['shards']} shards"
            + (f", {report.engine['inline_fallbacks']} measured in place"
               if report.engine["inline_fallbacks"] else "")
        )
    if verify is not None:
        lines.append(
            f"verify: pruned vs exhaustive winner "
            f"{'IDENTICAL' if verify['winner_match'] else 'DIVERGED'} "
            f"(exhaustive measured {verify['exhaustive_measured']} "
            f"strategies; pruned measured {report.strategies_measured})"
        )
    return "\n".join(lines)


def cmd_fleet(args) -> int:
    from .faults import FaultPlan
    from .fleet import get_fleet, run_fleet_search
    from .obs.trace import fleet_trace, validate_chrome_trace

    module = __import__(_CONFIG_MODULES[args.model],
                        fromlist=["DEFAULT_CONFIG"])
    config = module.DEFAULT_CONFIG.scaled(
        batch_size=args.batch, seq_len=args.seq_len,
        use_embedding=not args.no_embedding,
    )
    builder = MODEL_BUILDERS[args.model]
    fleet = get_fleet(args.fleet)
    faults = None
    if args.faults:
        with open(args.faults) as fh:
            faults = FaultPlan.loads(fh.read())
    observer = Observer() if (args.json or args.metrics_out) else NULL_OBSERVER

    report = run_fleet_search(
        builder, config, fleet, model_name=args.model,
        workers=args.workers, exhaustive=args.exhaustive,
        use_astra=args.astra, faults=faults,
        seed=args.seed, microbatches=args.microbatches, observer=observer,
    )

    failures: list[str] = []
    verify = None
    if not args.exhaustive and not args.no_verify:
        exhaustive = run_fleet_search(
            builder, config, fleet, model_name=args.model,
            workers=args.workers, exhaustive=True,
            use_astra=args.astra, faults=faults,
            seed=args.seed, microbatches=args.microbatches,
        )
        winner_match = (
            report.winner.key() == exhaustive.winner.key()
            and report.winner_per_sample_us == exhaustive.winner_per_sample_us
        )
        verify = {
            "winner_match": winner_match,
            "exhaustive_winner": exhaustive.winner.label,
            "exhaustive_per_sample_us": exhaustive.winner_per_sample_us,
            "exhaustive_measured": exhaustive.strategies_measured,
        }
        if not winner_match:
            failures.append(
                f"pruned winner {report.winner.label} diverged from "
                f"exhaustive winner {exhaustive.winner.label}"
            )
        if report.standdown is None and report.strategies_pruned <= 0:
            failures.append("bound pruning retired 0 strategies on a clean run")

    if args.metrics_out:
        with open(args.metrics_out, "w") as fh:
            fh.write(observer.metrics().to_json(indent=2))
    if args.trace_out:
        doc = fleet_trace(report)
        validate_chrome_trace(doc)
        with open(args.trace_out, "w") as fh:
            json.dump(doc, fh)

    if args.json:
        doc = report.to_dict()
        doc["verify"] = verify
        doc["failures"] = failures
        doc["ok"] = not failures
        print(json.dumps(doc, indent=2))
    else:
        print(_render_fleet_report(report, fleet, verify))
        for failure in failures:
            print(f"FAILURE: {failure}")
    return 0 if not failures else 1


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Astra (ASPLOS 2019) reproduction: adaptive optimization "
                    "of deep-learning training on a simulated GPU",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, positional_model: bool = False):
        if positional_model:
            p.add_argument("model", choices=sorted(MODEL_BUILDERS))
        else:
            p.add_argument("--model", choices=sorted(MODEL_BUILDERS),
                           default="sublstm")
        p.add_argument("--batch", type=int, default=16)
        p.add_argument("--seq-len", type=int, default=5, dest="seq_len")
        p.add_argument("--device", choices=sorted(DEVICES), default="P100")
        p.add_argument("--features", choices=["F", "FK", "FKS", "all"], default="all")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--budget", type=int, default=3000,
                       help="exploration mini-batches, not a hard cap: each "
                            "strategy's fk and stream phases spend at least "
                            "one and its compare phase is not budgeted")
        p.add_argument("--no-embedding", action="store_true")

    def obs_flags(p):
        p.add_argument("--json", action="store_true",
                       help="print a machine-readable JSON report")
        p.add_argument("--metrics-out", default=None, metavar="PATH",
                       help="write the metrics-registry snapshot as JSON")

    p = sub.add_parser("optimize", help="optimize one training job")
    common(p)
    obs_flags(p)
    p.add_argument("--report-out", default=None, metavar="PATH",
                   help="write the per-mini-batch run report as JSON lines")
    p.add_argument("--checkpoint", default=None, metavar="PATH",
                   help="checkpoint the exploration state here; if the file "
                        "already exists, resume from it instead of restarting")
    p.add_argument("--faults", default=None, metavar="PATH",
                   help="JSON FaultPlan to inject during the exploration "
                        "(see docs/robustness.md)")
    p.add_argument("--robust", action="store_true",
                   help="measure min-of-k with MAD outlier rejection instead "
                        "of trusting single samples")
    p.add_argument("--no-cache", action="store_true",
                   help="disable the compilation cache (lower every plan "
                        "from scratch)")
    p.add_argument("--no-prune", action="store_true",
                   help="disable cost-model pruning (exhaustive search; "
                        "converges to the same winner, just slower)")
    p.add_argument("--store", default=None, metavar="PATH",
                   help="persistent profile-index store: warm-start this "
                        "job from matching prior runs and publish its "
                        "measurements back (see docs/serving.md)")
    p.add_argument("--verbose", action="store_true")
    p.set_defaults(fn=cmd_optimize)

    p = sub.add_parser("sweep", help="speedups across batch sizes")
    common(p)
    obs_flags(p)
    p.add_argument("--batches", default="8,16,32,64,128,256")
    p.set_defaults(fn=cmd_sweep)

    p = sub.add_parser("baselines", help="compare against native/XLA/cuDNN")
    common(p)
    p.set_defaults(fn=cmd_baselines)

    p = sub.add_parser("inspect", help="dump the enumerator's static analysis")
    common(p)
    p.set_defaults(fn=cmd_inspect)

    p = sub.add_parser(
        "profile",
        help="optimize once and report where host time and simulated time "
             "went and why the winner won",
    )
    common(p, positional_model=True)
    p.add_argument("-o", "--output", nargs="?", const="", default=None,
                   metavar="PATH",
                   help="write the Chrome/Perfetto trace of the winner's "
                        "mini-batch and the optimizer's host timeline "
                        "(bare -o: <model>.trace.json)")
    p.add_argument("--json", action="store_true",
                   help="print the profile document as JSON")
    p.set_defaults(fn=cmd_profile)

    p = sub.add_parser(
        "analyze",
        help="critical-path and what-if analysis of a .trace.json",
    )
    p.add_argument("trace", metavar="TRACE_JSON",
                   help="a trace file written by `repro profile -o`")
    p.add_argument("--top", type=int, default=10,
                   help="rows in the critical-kernel table (default 10)")
    p.add_argument("--scale", action="append", metavar="INDEX:FACTOR",
                   help="project the timeline with kernel INDEX scaled by "
                        "FACTOR (repeatable)")
    p.add_argument("--swap", action="append", metavar="INDEX:LIBRARY",
                   help="project the timeline with kernel INDEX's GEMM "
                        "moved to LIBRARY (repeatable; combined into one "
                        "projection)")
    p.add_argument("--device", choices=sorted(DEVICES), default="P100",
                   help="device model used to re-cost swapped kernels")
    p.add_argument("--json", action="store_true",
                   help="print the machine-readable analysis document")
    p.set_defaults(fn=cmd_analyze)

    p = sub.add_parser(
        "check",
        help="validate schedule correctness (races, liveness, layout)",
    )
    common(p, positional_model=True)
    p.add_argument("--json", action="store_true",
                   help="print a machine-readable validation report")
    p.set_defaults(fn=cmd_check)

    p = sub.add_parser(
        "chaos",
        help="fault-injection sweep: prove the exploration survives a "
             "hostile device (see docs/robustness.md)",
    )
    common(p, positional_model=True)
    p.add_argument("--json", action="store_true",
                   help="print a machine-readable resilience report")
    p.add_argument("--checkpoint-dir", default=None, metavar="DIR",
                   help="directory for per-cell checkpoints (default: a "
                        "temporary directory, removed afterwards)")
    p.set_defaults(fn=cmd_chaos)

    from .fleet.spec import FLEETS

    p = sub.add_parser(
        "fleet",
        help="heterogeneous fleet strategy search: data/pipeline "
             "partitioning and device placement as adaptive variables "
             "(see docs/distributed.md)",
    )
    p.add_argument("model", choices=sorted(MODEL_BUILDERS))
    p.add_argument("--fleet", choices=sorted(FLEETS), default="hetero",
                   help="fleet description to search over (default: hetero, "
                        "2xP100+2xV100 over NVLink)")
    p.add_argument("--batch", type=int, default=256,
                   help="global batch size (default 256, where parallelism "
                        "pays)")
    p.add_argument("--seq-len", type=int, default=5, dest="seq_len")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--workers", type=int, default=1, metavar="N",
                   help="measure surviving strategies on N parallel worker "
                        "processes (same winner, any N)")
    p.add_argument("--microbatches", type=int, default=4, metavar="M",
                   help="micro-batches streamed through pipeline "
                        "strategies (default 4)")
    p.add_argument("--exhaustive", action="store_true",
                   help="no pruning at any level: measure every "
                        "enumerated strategy and, with --astra, every inner "
                        "FK choice")
    p.add_argument("--no-verify", action="store_true",
                   help="skip the pruned-vs-exhaustive winner-identity "
                        "verification sweep (verification is the default)")
    p.add_argument("--astra", action="store_true",
                   help="price compute primitives with a per-device inner "
                        "Astra optimization instead of the native plan; "
                        "each inner search pre-ranks its FK choices with "
                        "the cost model like `repro optimize` (strategy "
                        "bound pruning stands down: stream overlap breaks "
                        "its admissibility)")
    p.add_argument("--faults", default=None, metavar="PATH",
                   help="JSON FaultPlan to inject into every primitive "
                        "measurement (bound pruning stands down; see "
                        "docs/robustness.md)")
    p.add_argument("--no-embedding", action="store_true")
    obs_flags(p)
    p.add_argument("--trace-out", default=None, metavar="PATH",
                   help="write the winner's per-device fleet timeline as a "
                        "Chrome trace-event document")
    p.set_defaults(fn=cmd_fleet)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = make_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
