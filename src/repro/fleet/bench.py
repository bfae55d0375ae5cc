"""The ``repro fleet --bench`` harness: exhaustive-vs-pruned search timing.

The same model is searched twice over the same fleet with the same seed:

* **exhaustive** -- every enumerated strategy measured, no bound
  pruning: the ground-truth sweep;
* **pruned** -- the production path: admissible-bound pruning against
  the measured seed strategy (``docs/distributed.md``).

Throughput is **strategies/sec**: the enumerated strategy count divided
by wall time.  Both legs share the numerator, so the strategies/sec
multiple equals the wall-clock speedup and credits pruning for retiring
strategies without measuring them.

The harness is also the exactness watchdog: ``ok`` is false -- and
``repro fleet --bench`` exits non-zero -- if the pruned leg's winning
strategy or per-sample time differs from the exhaustive leg's, if the
pruned leg measured more than :data:`MEASURED_FRACTION_TARGET` of the
space, if nothing was pruned, or if pruning stood down on a clean run.
On a heterogeneous fleet the exhaustive leg additionally gates the
paper's claim itself: the winner must be a mixed placement that beats
the best homogeneous one.  ``BENCH_fleet_<model>.json`` is the
serialized document; ``--compare`` diffs a fresh document against the
committed one, gating winner identity and the (machine-relative)
strategies/sec multiple.
"""

from __future__ import annotations

import time

from ..models import MODEL_BUILDERS
from .search import run_fleet_search
from .spec import get_fleet

FLEET_BENCH_VERSION = 1

#: maximum fraction of the enumerated strategies the pruned leg may
#: measure (the ISSUE's acceptance gate); deterministic on the
#: simulator, so it applies on every host, quick runs included
MEASURED_FRACTION_TARGET = 0.5

#: maximum tolerated drop in the strategies/sec multiple before
#: ``--compare`` fails; the multiple divides out the host's absolute
#: speed, so it is the machine-stable throughput signal
REGRESSION_THRESHOLD = 0.20


def _model_config(name: str, batch: int, seq_len: int):
    if name not in MODEL_BUILDERS:
        raise ValueError(f"unknown model {name!r}; have {sorted(MODEL_BUILDERS)}")
    module = __import__(f"repro.models.{name}", fromlist=["DEFAULT_CONFIG"])
    config = module.DEFAULT_CONFIG.scaled(batch_size=batch, seq_len=seq_len)
    return MODEL_BUILDERS[name], config


def _timed_leg(builder, config, fleet, *, name, exhaustive, seed, workers,
               microbatches) -> tuple[dict, object]:
    start = time.perf_counter()
    report = run_fleet_search(
        builder, config, fleet, model_name=name, exhaustive=exhaustive,
        seed=seed, workers=workers, microbatches=microbatches,
    )
    wall_s = time.perf_counter() - start
    total = report.strategies_total
    record = {
        "wall_s": wall_s,
        "strategies_total": total,
        "strategies_measured": report.strategies_measured,
        "strategies_pruned": report.strategies_pruned,
        "measured_fraction": report.measured_fraction,
        "strategies_per_sec": (total / wall_s) if wall_s > 0 else 0.0,
        "winner": report.winner.label,
        "winner_per_sample_us": report.winner_per_sample_us,
        "winner_hetero": report.hetero_winner,
        "standdown": report.standdown,
        "best_homogeneous_us": report.best_homogeneous_us,
        "best_homogeneous_label": report.best_homogeneous_label,
        "best_homogeneous_measured": report.best_homogeneous_measured,
    }
    return record, report


def bench_fleet(
    name: str,
    *,
    batch: int = 256,
    seq_len: int = 5,
    fleet_name: str = "hetero",
    seed: int = 0,
    workers: int = 1,
    microbatches: int = 4,
    quick: bool = False,
) -> dict:
    """Run the exhaustive / pruned comparison and assemble the document.

    All gates are deterministic (the simulator is noise-free) and apply
    on every host, quick runs included; ``quick`` only shrinks the
    recommended batch at the CLI layer, never the gates.
    """
    builder, config = _model_config(name, batch, seq_len)
    fleet = get_fleet(fleet_name)

    failures: list[str] = []
    exhaustive_rec, exhaustive_rep = _timed_leg(
        builder, config, fleet, name=name, exhaustive=True, seed=seed,
        workers=workers, microbatches=microbatches,
    )
    pruned_rec, pruned_rep = _timed_leg(
        builder, config, fleet, name=name, exhaustive=False, seed=seed,
        workers=workers, microbatches=microbatches,
    )

    winner_match = (
        pruned_rep.winner.key() == exhaustive_rep.winner.key()
        and pruned_rep.winner_per_sample_us == exhaustive_rep.winner_per_sample_us
    )
    multiple = (
        pruned_rec["strategies_per_sec"] / exhaustive_rec["strategies_per_sec"]
        if exhaustive_rec["strategies_per_sec"] > 0 else 0.0
    )

    if not winner_match:
        failures.append(
            f"pruned winner {pruned_rec['winner']} "
            f"({pruned_rec['winner_per_sample_us']:.3f} us) diverged from "
            f"exhaustive winner {exhaustive_rec['winner']} "
            f"({exhaustive_rec['winner_per_sample_us']:.3f} us)"
        )
    if pruned_rec["standdown"] is not None:
        failures.append(
            f"pruning stood down on a clean run ({pruned_rec['standdown']})"
        )
    if pruned_rec["strategies_pruned"] <= 0:
        failures.append("bound pruning retired 0 strategies")
    if pruned_rec["measured_fraction"] > MEASURED_FRACTION_TARGET:
        failures.append(
            f"pruned leg measured {pruned_rec['strategies_measured']} of "
            f"{pruned_rec['strategies_total']} strategies "
            f"({pruned_rec['measured_fraction'] * 100:.0f}%; target <= "
            f"{MEASURED_FRACTION_TARGET * 100:.0f}%)"
        )
    if multiple <= 0.0:
        failures.append("strategies/sec multiple is zero (a leg was untimed)")

    hetero_gate = "skipped: homogeneous fleet"
    if fleet.heterogeneous and quick:
        # At the quick batch the optimal strategy is legitimately a
        # homogeneous V100 pair (communication dwarfs the P100 compute
        # contribution), so the hetero-beats-homo claim only holds -- and
        # is only gated -- at the full-size batch.
        hetero_gate = "skipped: quick config (hetero advantage needs full batch)"
    elif fleet.heterogeneous:
        hetero_gate = "exhaustive winner is heterogeneous and beats best homogeneous"
        if not exhaustive_rec["winner_hetero"]:
            failures.append(
                f"exhaustive winner {exhaustive_rec['winner']} is homogeneous "
                f"on the {fleet_name} fleet"
            )
        elif (
            exhaustive_rec["best_homogeneous_us"] is not None
            and exhaustive_rec["winner_per_sample_us"]
            >= exhaustive_rec["best_homogeneous_us"]
        ):
            failures.append(
                f"heterogeneous winner {exhaustive_rec['winner']} "
                f"({exhaustive_rec['winner_per_sample_us']:.3f} us) does not "
                f"beat best homogeneous "
                f"{exhaustive_rec['best_homogeneous_label']} "
                f"({exhaustive_rec['best_homogeneous_us']:.3f} us)"
            )

    return {
        "version": FLEET_BENCH_VERSION,
        "model": name,
        "batch": batch,
        "seq_len": seq_len,
        "fleet": fleet_name,
        "seed": seed,
        "workers": workers,
        "microbatches": microbatches,
        "quick": quick,
        "measured_fraction_target": MEASURED_FRACTION_TARGET,
        "legs": {"exhaustive": exhaustive_rec, "pruned": pruned_rec},
        "winner_match": winner_match,
        "strategies_per_sec_multiple": multiple,
        "hetero_gate": hetero_gate,
        "failures": failures,
        "ok": not failures,
    }


def compare_fleet_bench(current: dict, baseline: dict) -> dict:
    """Diff a fresh fleet bench document against a committed baseline.

    Gates what is stable across machines: the documents must describe
    the same search (model, batch, fleet, seed -- a mislabelled
    comparison is refused, not fuzzily accepted), the winning strategy
    must be identical, and the strategies/sec *multiple* (which divides
    out host speed) must not drop by more than
    :data:`REGRESSION_THRESHOLD`.  Absolute strategies/sec is reported
    as an informational delta only.
    """
    failures: list[str] = []
    for key in ("version", "model", "batch", "fleet", "seed"):
        if current.get(key) != baseline.get(key):
            failures.append(
                f"document mismatch: {key} is {current.get(key)!r} here, "
                f"{baseline.get(key)!r} in the committed baseline"
            )
    cur_multiple = current.get("strategies_per_sec_multiple", 0.0)
    base_multiple = baseline.get("strategies_per_sec_multiple", 0.0)
    drop = 1.0 - cur_multiple / base_multiple if base_multiple > 0 else 0.0
    cur_winner = (current.get("legs", {}).get("exhaustive", {}) or {}).get("winner")
    base_winner = (baseline.get("legs", {}).get("exhaustive", {}) or {}).get("winner")
    winner_match = cur_winner == base_winner and cur_winner is not None
    if not failures:
        if not winner_match:
            failures.append(
                f"winning strategy changed: {cur_winner!r} here, "
                f"{base_winner!r} in the committed baseline"
            )
        if drop > REGRESSION_THRESHOLD:
            failures.append(
                f"strategies/sec multiple regressed {drop * 100:.1f}% "
                f"({base_multiple:.2f}x -> {cur_multiple:.2f}x; threshold "
                f"{REGRESSION_THRESHOLD * 100:.0f}%)"
            )
        if not current.get("ok", False):
            failures.append("current document carries its own failures")
    return {
        "model": current.get("model"),
        "fleet": current.get("fleet"),
        "threshold": REGRESSION_THRESHOLD,
        "winner_match": winner_match,
        "winner_current": cur_winner,
        "winner_baseline": base_winner,
        "multiple_current": cur_multiple,
        "multiple_baseline": base_multiple,
        "multiple_drop": drop,
        "failures": failures,
        "ok": not failures,
    }


def render_fleet_bench(doc: dict) -> str:
    """Human-readable summary of a fleet bench document."""
    lines = [
        f"fleet bench {doc['model']}  batch={doc['batch']} "
        f"seq={doc['seq_len']} fleet={doc['fleet']} seed={doc['seed']} "
        f"workers={doc['workers']}"
        + ("  [quick]" if doc.get("quick") else ""),
        f"{'leg':>10}  {'wall(s)':>8}  {'measured':>8}  {'pruned':>6}  "
        f"{'frac%':>5}  {'strat/s':>8}  winner",
    ]
    for leg_name, leg in doc["legs"].items():
        lines.append(
            f"{leg_name:>10}  {leg['wall_s']:8.3f}  "
            f"{leg['strategies_measured']:4d}/{leg['strategies_total']:<3d}  "
            f"{leg['strategies_pruned']:6d}  "
            f"{leg['measured_fraction'] * 100:5.1f}  "
            f"{leg['strategies_per_sec']:8.2f}  "
            f"{leg['winner']} ({leg['winner_per_sample_us']:.3f} us/sample)"
        )
    lines.append(
        f"strategies/sec multiple: "
        f"{doc['strategies_per_sec_multiple']:.2f}x  "
        f"winner {'match' if doc['winner_match'] else 'DIVERGED'}  "
        f"hetero gate: {doc['hetero_gate']}"
    )
    if doc["failures"]:
        lines.append("FAILURES:")
        lines.extend(f"  - {msg}" for msg in doc["failures"])
    else:
        lines.append(
            f"ok: identical winner, measured <= "
            f"{doc['measured_fraction_target'] * 100:.0f}% of the space"
        )
    return "\n".join(lines)


def render_fleet_compare(diff: dict) -> str:
    """Human-readable summary of a :func:`compare_fleet_bench` diff."""
    lines = [
        f"fleet bench compare: {diff.get('model')} on {diff.get('fleet')} "
        f"(gate: winner identity + multiple within "
        f"{diff['threshold'] * 100:.0f}%)",
        f"winner: {diff.get('winner_baseline')!r} -> "
        f"{diff.get('winner_current')!r} "
        f"({'match' if diff.get('winner_match') else 'CHANGED'})",
        f"multiple: {diff.get('multiple_baseline', 0.0):.2f}x -> "
        f"{diff.get('multiple_current', 0.0):.2f}x "
        f"(drop {diff.get('multiple_drop', 0.0) * 100:.1f}%)",
    ]
    if diff["failures"]:
        lines.append("FAILURES:")
        lines.extend(f"  - {msg}" for msg in diff["failures"])
    else:
        lines.append("ok: winner stable, relative throughput held")
    return "\n".join(lines)
