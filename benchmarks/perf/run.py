"""The repo's benchmark: time to a plan and the plan's quality, end to end
and per layer, on the workloads in ``workloads.py``.

    python benchmarks/perf/run.py [--seed N] [--workload NAME ...]
        [--seconds S] [--trace [0|1]] [--out DIR] [--expected PATH]
    python benchmarks/perf/run.py --compare A B

Each sample is a fresh Python process (``sample.py``) driving the public
API with the CLI's defaults, one at a time (a closed loop with one
client).  Without ``--seconds`` every named workload runs its sample
counts once, interleaved; with it the same mix repeats until the time is
up.  Every plan is checked against ``expected.json`` and validated.
``--trace`` adds traced samples that time each layer from outside.

Prints every metric by name and unit, writes the result document,
Chrome traces and per-layer table under ``--out``, and ends with one
JSON line: ``{"correct", "attempted", "failed", "metrics"}``.  Exits
non-zero on any failed sample, failed self-check, or ``--compare``
regression.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from contextlib import suppress
from itertools import cycle
from pathlib import Path

from spans import (
    ENTRY_POINTS,
    chrome_trace,
    fired,
    layer_metrics,
    layer_totals,
    span_name,
    span_sum_error,
)
from stats import interleave, spread, summary
from workloads import DEFAULT_WORKLOADS, WORKLOADS

PERF = Path(__file__).resolve().parent
ROOT = PERF.parents[1]
SAMPLE = PERF / "sample.py"

#: a sample running longer than this counts as failed
SAMPLE_TIMEOUT_S = 60
#: tolerance of the span-sum self-check
SPAN_SUM_TOLERANCE_S = 1e-6
#: the probe kernel's time (``sample.host_probe_ms``) on the reference
#: host, a 2-core Xeon VM, in a quiet minute
REFERENCE_PROBE_MS = 3.3
#: a CPU runs at its normal speed while its probe reads within this
#: factor of the run's fastest probe; its slow state reads 1.5x to 2x
QUIET_FACTOR = 1.3

#: end-to-end metrics compared exactly; BENCHMARK.json lists the timed ones
EXACT_METRICS = {
    "plan_us": "us",
    "measured_configs": "count",
    "fail_rate": "fraction",
}


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


# -- running samples --------------------------------------------------------


def run_sample(workload: str, seed: int, kind: str, store: str | None,
               quiet_ms: float | None = None, trace: bool = False) -> dict:
    """Run one sample process; returns its result or ``{"error": ...}``."""
    cmd = [
        sys.executable, str(SAMPLE), "--workload", workload, "--seed", str(seed),
        "--kind", "setup" if kind == "setup" else "full",
        "--trace", "1" if trace else "0",
    ]
    if store:
        cmd += ["--store", store]
    if quiet_ms:
        cmd += ["--quiet-ms", repr(quiet_ms)]
    # own process group, so killing it also ends the fleet's worker
    # processes, whether the sample timed out or left one behind
    with subprocess.Popen(
        cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, start_new_session=True,
    ) as proc:
        try:
            out, err = proc.communicate(timeout=SAMPLE_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return {"error": f"timed out after {SAMPLE_TIMEOUT_S}s"}
        finally:
            with suppress(ProcessLookupError):
                os.killpg(proc.pid, signal.SIGKILL)
    if proc.returncode != 0:
        tail = err.strip().splitlines()[-1:] or ["no output"]
        return {"error": f"exit {proc.returncode}: {tail[0]}"}
    try:
        return json.loads(out.strip().splitlines()[-1])
    except (IndexError, ValueError):
        return {"error": "no JSON result line"}


def quiet_limit(samples: list[dict]) -> float:
    """The probe time up to which a CPU counts as running at normal
    speed, judged by the fastest probe of ``samples``; 0 without one."""
    return QUIET_FACTOR * min(
        (p for s in samples for probes in s.get("probe_ms", ()) for p in probes),
        default=0.0,
    )


def check_sample(result: dict, kind: str, expected: dict | None) -> str | None:
    """Why a finished sample failed, or None."""
    if "error" in result:
        return result["error"]
    if kind == "setup":
        return None
    if expected is None:
        return "no expected output for this workload"
    diff = sorted(
        key for key in expected.keys() | result["output"].keys()
        if expected.get(key) != result["output"].get(key)
    )
    if diff:
        return "output mismatch: " + ", ".join(
            f"{key} {result['output'].get(key)!r} != {expected.get(key)!r}"
            for key in diff
        )
    if result["violations"]:
        return f"{result['violations']} schedule validation violation(s)"
    return None


class Runner:
    def __init__(self, names, seed, seconds, trace, out: Path, expected: dict):
        self.workloads = [WORKLOADS[n] for n in names]
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.out = out
        self.expected = expected
        self.samples: dict[str, list[dict]] = {w.name: [] for w in self.workloads}
        self.stores: dict[str, Path] = {}
        #: every sample run, fixtures included: their probes set the quiet limit
        self.probed: list[dict] = []

    def _record(self, workload: str, kind: str, store: str | None = None,
                job: str | None = None) -> float:
        """Run one sample of ``job`` (default: the workload itself) and
        file it under ``workload``; returns its wall time."""
        job = job or workload
        started = time.perf_counter()
        result = self._sample(job, kind, store)
        wall = time.perf_counter() - started
        failure = check_sample(result, kind, self.expected.get(job))
        result.update(kind=kind, failure=failure, wall_s=wall)
        self.samples[workload].append(result)
        return wall

    def _sample(self, job: str, kind: str, store: str | None) -> dict:
        """One sample, started once the host is quiet by the fastest
        probe seen so far in this run.  A traced run traces the fixture
        too: it is the only sample that publishes to a store."""
        trace = kind == "traced" or (kind == "fixture" and self.trace)
        result = run_sample(job, self.seed, kind, store, quiet_limit(self.probed), trace)
        self.probed.append(result)
        return result

    def _warm_store(self, workload) -> str:
        """A fresh copy of the fixture store, so every warm sample seeds
        the same entries whatever earlier samples published."""
        copy = self.out / "store" / f"{workload.name}-sample"
        shutil.rmtree(copy, ignore_errors=True)
        shutil.copytree(self.stores[workload.name], copy)
        return str(copy)

    def fixtures(self) -> None:
        """Untimed samples before timing starts: a set-up whose result is
        dropped, which brings the host and its file cache to the state
        repeated CLI runs see, and the cold runs that fill the stores
        warm workloads read."""
        for w in self.workloads:
            self._sample(w.name, "setup", None)
            if w.warm_from:
                store = self.out / "store" / f"{w.name}-fixture"
                shutil.rmtree(store, ignore_errors=True)
                store.mkdir(parents=True)
                self.stores[w.name] = store
                self._record(w.name, "fixture", str(store), job=w.warm_from)

    def plan(self) -> list[tuple[str, str]]:
        counts = {}
        for w in self.workloads:
            counts[(w.name, "full")] = w.samples
            counts[(w.name, "setup")] = w.setup_samples
            if self.trace:
                counts[(w.name, "traced")] = w.traced_samples
        return interleave({key: n for key, n in counts.items() if n})

    def _step(self, name: str, kind: str) -> float:
        store = self._warm_store(WORKLOADS[name]) if name in self.stores else None
        return self._record(name, kind, store)

    def run(self) -> None:
        self.fixtures()
        plan = self.plan()
        if self.seconds is None:
            for step in plan:
                self._step(*step)
            return
        # repeat the mix until every kind has run and no further sample
        # fits in the time left, judged by that kind's last wall time
        start = time.perf_counter()
        last_wall: dict[tuple, float] = {}
        skipped = 0
        for step in cycle(plan):
            if step in last_wall and (
                time.perf_counter() - start + last_wall[step] > self.seconds
            ):
                skipped += 1
                if skipped >= len(plan):
                    return
                continue
            skipped = 0
            last_wall[step] = self._step(*step)

    def cleanup(self) -> None:
        shutil.rmtree(self.out / "store", ignore_errors=True)


# -- aggregation --------------------------------------------------------------


#: the probes (``sample["probe_ms"]`` indices) taken before and after
#: each timed region, on the CPUs that region runs on
SETUP_PROBES = (0, 1)
OPTIMIZE_PROBES = (2, 3)


def calibrated(sample: dict, timing: str, probes: tuple[int, int]) -> float:
    """``sample[timing]`` scaled to a host on which the probe kernel takes
    ``REFERENCE_PROBE_MS``, by the median of the probes around the timed
    region: the host's speed drifts by up to 2x within minutes, and the
    probes drift with it.  Over ten runs this cuts the run-to-run spread
    of every timing on every workload 2x to 5x against raw wall time
    (``results/two_sets.txt``)."""
    around = [p for i in probes for p in sample["probe_ms"][i]]
    return sample[timing] * REFERENCE_PROBE_MS / statistics.median(around)


def end_to_end(samples: list[dict], units: dict) -> tuple[dict, dict]:
    """The end-to-end metrics and, as diagnostics, the raw wall times
    and the probe times they were calibrated with."""
    good = [s for s in samples if not s["failure"] and s["kind"] in ("full", "setup")]
    full = [s for s in good if s["kind"] == "full"]
    failed = sum(1 for s in samples if s["failure"])
    metrics: dict[str, dict] = {}
    diagnostics: dict[str, dict] = {}
    if full:
        optimize = [calibrated(s, "optimize_s", OPTIMIZE_PROBES) for s in full]
        metrics["optimize_s"] = summary(optimize)
        metrics["choices_per_s"] = summary(
            s["choices_total"] / t for s, t in zip(full, optimize)
        )
        metrics["peak_rss_mb"] = summary(s["peak_rss_mb"] for s in full)
        metrics["plan_us"] = {"value": full[0]["output"]["plan_us"]}
        metrics["measured_configs"] = {"value": full[0]["output"]["measured_configs"]}
        diagnostics["optimize_wall_s"] = summary(s["optimize_s"] for s in full)
    if good:
        metrics["setup_s"] = summary(calibrated(s, "setup_s", SETUP_PROBES) for s in good)
        diagnostics["setup_wall_s"] = summary(s["setup_s"] for s in good)
        diagnostics["host_probe_ms"] = summary(
            p for s in good for probes in s["probe_ms"] for p in probes
        )
    metrics["fail_rate"] = {"value": failed / len(samples) if samples else 1.0}
    for name, entry in metrics.items():
        entry["unit"] = units[name]
    for name, entry in diagnostics.items():
        entry["unit"] = "ms" if name.endswith("_ms") else "s"
    return metrics, diagnostics


def per_layer(workload: str, samples: list[dict], untraced: dict,
              units: dict) -> tuple[dict, dict]:
    traced = [s for s in samples if s["kind"] == "traced" and not s["failure"]]
    if not traced or "optimize_s" not in untraced:
        return {}, {"ok": False, "problems": ["no traced and untraced sample to compare"]}
    values = layer_metrics(traced)
    fixtures = [s for s in samples if s["kind"] == "fixture" and "spans" in s]
    if fixtures:
        # warm samples measure nothing new, so publish nothing: the put
        # that feeds them is the fixture's
        values["store.put_s"] = statistics.median(
            layer_totals(s["spans"]).get("store.put", {"total_s": 0.0})["total_s"]
            for s in fixtures
        )
    values["trace_overhead"] = statistics.median(
        calibrated(s, "optimize_s", OPTIMIZE_PROBES) for s in traced
    ) / untraced["optimize_s"]["value"] - 1.0
    metrics = {name: {"value": values[name], "unit": units[name]} for name in units}
    counts: dict[str, int] = {}
    for s in traced + fixtures:
        for name, n in fired(s["spans"]).items():
            counts[name] = counts.get(name, 0) + n
    silent = [
        span_name(e) for e in ENTRY_POINTS
        if e.workload == workload and not counts.get(span_name(e))
    ]
    error = max(span_sum_error(s["spans"]) for s in traced)
    problems = [f"entry point never fired: {name}" for name in silent]
    if error > SPAN_SUM_TOLERANCE_S:
        problems.append(f"layer self times miss the optimize span by {error:.3g}s")
    checks = {
        "ok": not problems, "problems": problems,
        "entry_point_calls": counts, "span_sum_error_s": error,
    }
    return metrics, checks


def fingerprint() -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(
                (line.split(":", 1)[1].strip() for line in fh
                 if line.startswith("model name")), cpu,
            )
    except OSError:
        pass
    try:
        # the ceiling keeps git from adopting a repository above the root
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        sha = None
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "git_sha": sha,
    }


def _fmt(value) -> str:
    if value is None:
        return "n/a"
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def render(doc: dict) -> str:
    lines = [f"host: {doc['host']}"]
    for name, wl in doc["workloads"].items():
        lines.append(
            f"\n== {name}  ({wl['attempted']} samples, {wl['failed']} failed)"
        )
        timed = [*wl["metrics"].items()]
        timed += [(f"({metric})", entry) for metric, entry in wl["diagnostics"].items()]
        for metric, entry in timed:
            row = f"  {metric:<22} {_fmt(entry['value']):>12} {entry['unit']}"
            if "n" in entry:
                hi = (f"p{entry['hi_pct']:.0f} {_fmt(entry['hi'])}"
                      if entry["hi"] is not None else "n/a")
                row += (f"  [q1 {_fmt(entry['q1'])}, q3 {_fmt(entry['q3'])}]"
                        f"  n={entry['n']}  hi={hi}")
            lines.append(row)
        for metric, entry in wl.get("per_layer", {}).items():
            lines.append(f"  {metric:<26} {_fmt(entry['value']):>12} {entry['unit']}")
        checks = wl.get("checks")
        if checks:
            lines.append(f"  trace self-checks: {'ok' if checks['ok'] else checks['problems']}")
        for failure in wl["failures"]:
            lines.append(f"  FAILED: {failure}")
    return "\n".join(lines)


def build_doc(runner: Runner, spec: dict) -> dict:
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    units.update(EXACT_METRICS)
    layer_units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    doc = {
        "version": 1, "seed": runner.seed, "seconds": runner.seconds,
        "trace": runner.trace, "host": fingerprint(), "workloads": {},
    }
    for w in runner.workloads:
        samples = runner.samples[w.name]
        metrics, diagnostics = end_to_end(samples, units)
        entry = {
            "config": {"model": w.model, "batch": w.batch, "seq_len": w.seq_len,
                       "features": w.features, "fleet": w.fleet, "workers": w.workers,
                       "warm_from": w.warm_from},
            "attempted": len(samples),
            "failed": sum(1 for s in samples if s["failure"]),
            "failures": [f"{s['kind']}: {s['failure']}" for s in samples if s["failure"]],
            "metrics": metrics,
            "diagnostics": diagnostics,
            "output": next((s["output"] for s in samples
                            if s["kind"] == "full" and "output" in s), None),
        }
        if runner.trace:
            entry["per_layer"], entry["checks"] = per_layer(
                w.name, samples, metrics, layer_units
            )
        entry["samples"] = [
            {k: v for k, v in s.items() if k not in ("spans", "output")}
            for s in samples
        ]
        doc["workloads"][w.name] = entry
    return doc


def result_line(doc: dict, spec: dict) -> dict:
    """The last output line; per-layer metrics in a traced run."""
    section, names = (
        ("per_layer", [m["name"] for m in spec["per_layer"]]) if doc["trace"]
        else ("metrics", [m["name"] for m in spec["end_to_end"]])
    )
    single = len(doc["workloads"]) == 1
    metrics = {}
    for wname, wl in doc["workloads"].items():
        for name in names:
            entry = wl.get(section, {}).get(name)
            if entry is not None and entry["value"] is not None:
                key = name if single else f"{wname}/{name}"
                metrics[key] = {"value": entry["value"], "unit": entry["unit"]}
    attempted = sum(wl["attempted"] for wl in doc["workloads"].values())
    failed = sum(wl["failed"] for wl in doc["workloads"].values())
    checks_ok = all(wl.get("checks", {"ok": True})["ok"] for wl in doc["workloads"].values())
    return {
        "correct": failed == 0 and checks_ok,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }


# -- compare --------------------------------------------------------------


def load_results(path: Path) -> list[dict]:
    """One result document, or every one in a directory."""
    paths = sorted(path.glob("results_*.json")) if path.is_dir() else [path]
    docs = []
    for p in paths:
        with open(p) as fh:
            docs.append(json.load(fh))
    return docs


def pool(docs: list[dict]) -> dict[str, dict[str, dict]]:
    """Per workload and metric, one entry over a set of runs.  A single
    run's entry carries its samples' quartiles; over several runs the
    value is the median of their medians and the quartiles are those of
    the medians, the run-to-run spread.  An exact metric the runs
    disagree on becomes the list of its values.  Diagnostics (raw wall
    times, probe times) are pooled alongside the metrics."""
    values: dict[tuple[str, str], list] = {}
    for doc in docs:
        for wname, wl in doc["workloads"].items():
            for section in ("metrics", "diagnostics"):
                for name, entry in wl.get(section, {}).items():
                    values.setdefault((wname, name), []).append(entry)
    pooled: dict[str, dict[str, dict]] = {}
    for (wname, name), entries in values.items():
        vals = [e["value"] for e in entries]
        if len(entries) == 1:
            entry = entries[0]
        elif name in EXACT_METRICS:
            entry = {"value": vals[0] if all(v == vals[0] for v in vals) else vals}
        else:
            q1, _median, q3 = statistics.quantiles(vals, n=4)
            entry = {"value": statistics.median(vals), "q1": q1, "q3": q3, "n": len(vals)}
        pooled.setdefault(wname, {})[name] = entry
    return pooled


#: diagnostics ``--compare`` prints beside the metrics, judged by no bound
DIAGNOSTICS = ("optimize_wall_s", "setup_wall_s", "host_probe_ms")


def compare(a: list[dict], b: list[dict], spec: dict) -> tuple[list[dict], bool]:
    """Every (workload, metric) of run set B against run set A; ok is
    False on a regression or on any change of an exact metric."""
    specs = {m["name"]: m for m in spec["end_to_end"]}
    pa, pb = pool(a), pool(b)
    rows = []
    for wname in sorted(pa.keys() & pb.keys()):
        ma, mb = pa[wname], pb[wname]
        for name in [*specs, *EXACT_METRICS, *DIAGNOSTICS]:
            ea, eb = ma.get(name), mb.get(name)
            missing = ea is None or eb is None
            if ea is None and eb is None or missing and name in DIAGNOSTICS:
                continue
            row = {"workload": wname, "metric": name,
                   "a": ea and ea["value"], "b": eb and eb["value"]}
            if missing:
                row["verdict"] = "missing"
            elif name in EXACT_METRICS:
                row["verdict"] = "same" if ea["value"] == eb["value"] else "changed"
            elif name in DIAGNOSTICS:
                row["spread_a"], row["spread_b"] = spread(ea), spread(eb)
                row["verdict"] = "diagnostic"
            else:
                row["spread_a"], row["spread_b"] = spread(ea), spread(eb)
                m = specs[name]
                sign = 1.0 if m["better"] == "lower" else -1.0
                worse = sign * (eb["value"] - ea["value"]) / ea["value"]
                row["worse_by"] = worse
                row["bound"] = m["bound"]
                if max(row["spread_a"], row["spread_b"]) > m["bound"]:
                    row["verdict"] = "unresolved"
                elif worse > m["bound"]:
                    row["verdict"] = "regressed"
                elif worse < -m["bound"]:
                    row["verdict"] = "improved"
                else:
                    row["verdict"] = "unchanged"
            rows.append(row)
    ok = not any(r["verdict"] in ("regressed", "changed", "missing") for r in rows)
    return rows, ok


def render_compare(rows: list[dict]) -> str:
    def pct(row, key, fmt):
        return fmt.format(100 * row[key]) if key in row else ""

    lines = [f"{'workload':<18} {'metric':<16} {'A':>12} {'spread':>7} "
             f"{'B':>12} {'spread':>7} {'worse by':>9}  verdict"]
    for r in rows:
        lines.append(
            f"{r['workload']:<18} {r['metric']:<16} {_fmt(r['a']):>12} "
            f"{pct(r, 'spread_a', '{:.1f}%'):>7} {_fmt(r['b']):>12} "
            f"{pct(r, 'spread_b', '{:.1f}%'):>7} {pct(r, 'worse_by', '{:+.1f}%'):>9}"
            f"  {r['verdict']}"
        )
    return "\n".join(lines)


# -- entry point --------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="time-to-plan and plan-quality benchmark",
    )
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--workload", action="append", choices=sorted(WORKLOADS),
                        help="workload to run (repeatable; default: all but quick)")
    parser.add_argument("--seconds", type=float, default=None,
                        help="repeat the sample mix for this long instead of "
                             "running each workload's counts once")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1), help="add traced samples and per-layer metrics")
    parser.add_argument("--out", type=Path, default=PERF / "out")
    parser.add_argument("--expected", type=Path, default=PERF / "expected.json")
    parser.add_argument("--compare", nargs=2, type=Path, metavar=("A", "B"),
                        help="compare two result documents, or two directories "
                             "of them, against the bounds in BENCHMARK.json")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"no repro package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = load_spec()

    if args.compare:
        rows, ok = compare(*(load_results(path) for path in args.compare), spec)
        print(render_compare(rows))
        print("compare: " + ("ok" if ok else "REGRESSION"))
        return 0 if ok else 1

    with open(args.expected) as fh:
        expected = json.load(fh)
    names = args.workload or list(DEFAULT_WORKLOADS)
    args.out.mkdir(parents=True, exist_ok=True)
    # compile once up front, so no sample pays for writing bytecode
    subprocess.run([sys.executable, "-m", "compileall", "-q", str(ROOT / "src")],
                   check=True, stdout=subprocess.DEVNULL)

    runner = Runner(names, args.seed, args.seconds, bool(args.trace), args.out, expected)
    # a terminated run still ends its sample's process group (run_sample)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        runner.run()
    finally:
        runner.cleanup()
    doc = build_doc(runner, spec)

    tag = names[0] if len(names) == 1 else "all"
    suffix = "_trace" if args.trace else ""
    with open(args.out / f"results_{tag}_seed{args.seed}{suffix}.json", "w") as fh:
        json.dump(doc, fh, indent=1)
    if args.trace:
        for w in runner.workloads:
            traced = [s["spans"] for s in runner.samples[w.name] if "spans" in s]
            with open(args.out / f"trace_{w.name}_seed{args.seed}.json", "w") as fh:
                json.dump(chrome_trace(traced), fh)
    print(render(doc))
    line = result_line(doc, spec)
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
