"""Shared infrastructure for the table/figure reproduction benchmarks.

Every benchmark regenerates one table or figure from the paper's
evaluation (section 6) on the simulated P100:

* rows/series are printed in the paper's layout (speedups relative to the
  same baseline the paper normalizes to);
* raw numbers are also dumped to ``benchmarks/results/<name>.json`` so
  EXPERIMENTS.md can cite them;
* absolute times are simulator microseconds -- the claim under test is
  the *shape* (who wins, by what factor, where crossovers fall), not the
  authors' testbed numbers.

Set ``REPRO_BENCH_BATCHES`` (comma-separated) to override the batch-size
sweep, e.g. ``REPRO_BENCH_BATCHES=8,32`` for a quick pass.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

from repro import AstraSession
from repro.baselines import run_cudnn, run_native, run_xla
from repro.gpu import P100
from repro.models import MODEL_BUILDERS
from repro.obs.observer import Observer

RESULTS_DIR = Path(__file__).parent / "results"

#: the paper's mini-batch sweep (section 6.1)
PAPER_BATCHES = (8, 16, 32, 64, 128, 256)

#: sequence length used for the sweeps; the paper does not report one, and
#: speedups are insensitive to it beyond a few steps (costs scale per step)
BENCH_SEQ_LEN = 5

#: Astra variants in table-column order
VARIANTS = ("F", "FK", "FKS", "all")

#: per-variant fields measured in wall-clock time: they differ on every
#: run, so the committed result documents leave them out
WALL_CLOCK_FIELDS = ("wall_s", "phases_s")

DEFAULT_CONFIGS = {
    "scrnn": __import__("repro.models.scrnn", fromlist=["DEFAULT_CONFIG"]).DEFAULT_CONFIG,
    "milstm": __import__("repro.models.milstm", fromlist=["DEFAULT_CONFIG"]).DEFAULT_CONFIG,
    "sublstm": __import__("repro.models.sublstm", fromlist=["DEFAULT_CONFIG"]).DEFAULT_CONFIG,
    "stacked_lstm": __import__(
        "repro.models.stacked_lstm", fromlist=["DEFAULT_CONFIG"]
    ).DEFAULT_CONFIG,
    "gnmt": __import__("repro.models.gnmt", fromlist=["DEFAULT_CONFIG"]).DEFAULT_CONFIG,
}


def bench_batches() -> tuple[int, ...]:
    override = os.environ.get("REPRO_BENCH_BATCHES")
    if override:
        return tuple(int(x) for x in override.split(","))
    return PAPER_BATCHES


def build_model(name: str, batch_size: int, seq_len: int = BENCH_SEQ_LEN, **overrides):
    config = DEFAULT_CONFIGS[name].scaled(
        batch_size=batch_size, seq_len=seq_len, **overrides
    )
    return MODEL_BUILDERS[name](config)


def astra_times(model, variants=VARIANTS, seed=1, max_minibatches=3000):
    """Best mini-batch time and exploration size per Astra variant.

    Each variant run gets its *own* :class:`~repro.obs.observer.Observer`,
    so one variant's time can never bleed into another's, and within a
    run every phase (enumerate / prerank / lower / validate / simulate /
    explore) is an exclusive span of the observer's phase view -- the
    per-phase seconds sum to the measured wall clock (pinned by the
    harness-timing regression test).
    """
    out = {}
    for preset in variants:
        observer = Observer()
        start = time.perf_counter()
        with observer.span("other"):
            report = AstraSession(model, features=preset, seed=seed,
                                  observer=observer).optimize(
                max_minibatches=max_minibatches
            )
        wall_s = time.perf_counter() - start
        out[preset] = {
            "best_us": report.best_time_us,
            "native_us": report.native_time_us,
            "speedup": report.speedup_over_native,
            "configs": report.configs_explored,
            "overhead": report.astra.profiling_overhead,
            "wall_s": wall_s,
            "phases_s": dict(sorted(observer.phases().items())),
        }
    return out


def speedup_table(name: str, variants=VARIANTS, batches=None, seq_len=BENCH_SEQ_LEN):
    """Rows of a Table 2/3/4-style sweep: speedup vs native per variant
    (simulated fields only)."""
    rows = {}
    for batch in batches or bench_batches():
        model = build_model(name, batch, seq_len)
        rows[batch] = {
            preset: {
                key: value for key, value in data.items()
                if key not in WALL_CLOCK_FIELDS
            }
            for preset, data in astra_times(model, variants).items()
        }
    return rows


def cudnn_table(name: str, variants=("F", "FK", "all"), batches=None,
                seq_len=BENCH_SEQ_LEN):
    """Rows of a Table 5/6-style sweep: everything relative to cuDNN."""
    rows = {}
    for batch in batches or bench_batches():
        model = build_model(name, batch, seq_len)
        native = run_native(model.graph, P100).total_time_us
        cudnn = run_cudnn(model.graph, P100).total_time_us
        entry = {"native_us": native, "cudnn_us": cudnn, "pyt_rel": cudnn / native}
        for preset, data in astra_times(model, variants).items():
            entry[preset] = {
                "best_us": data["best_us"],
                "rel_cudnn": cudnn / data["best_us"],
            }
        rows[batch] = entry
    return rows


def format_table(title: str, header: list[str], rows: list[list]) -> str:
    widths = [
        max(len(str(header[i])), max((len(str(r[i])) for r in rows), default=0))
        for i in range(len(header))
    ]
    lines = [title]
    lines.append("  ".join(str(h).rjust(w) for h, w in zip(header, widths)))
    lines.append("  ".join("-" * w for w in widths))
    for row in rows:
        lines.append("  ".join(str(c).rjust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


def save_results(name: str, payload) -> None:
    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / f"{name}.json"
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, default=str)


def emit(title: str, header: list[str], rows: list[list], name: str, payload) -> str:
    text = format_table(title, header, rows)
    print("\n" + text)
    save_results(name, payload)
    return text
