"""The fleet strategy search: partitioning as a wave-explored variable.

The partitioning strategy -- data-parallel degree, contiguous pipeline
cuts, per-stage device placement, batch-split mode -- becomes one
``parallel``-mode :class:`~repro.core.adaptive.AdaptiveVariable` whose
choices are :meth:`Strategy.key` values, explored by the same
:func:`~repro.parallel.engine.plan_wave` machinery that drives fk
exploration, against the same shared profile index.

Tractability comes from the **admissible analytic bound**
(``perf/ranker.py``), applied before any strategy mini-batch is spent:
strategies whose closed-form lower bound exceeds the seed strategy's
*measured* per-sample time are pruned -- provably winner-preserving, and
stood down entirely whenever the bound's exactness preconditions fail
(fault injector, autoboost clocks, inner-Astra compute).

The seed strategy (best analytic bound) is measured first and is always
a survivor, so the search measures ``1 + |survivors|`` strategies out of
the full space; ``repro fleet --exhaustive`` disables the pruning and
the equivalence tests pin bit-identical winners between the two paths.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..core.adaptive import MODE_PARALLEL, AdaptiveVariable, UpdateNode
from ..obs.metrics import NULL_REGISTRY
from ..parallel.engine import HIT, STATUS_EXHAUSTED, ParallelEngine, plan_wave
from ..parallel.pool import make_pool
from ..perf.ranker import fleet_strategy_lo, prune_fleet_strategies
from .measure import (
    OVERLAP_FRACTION, STRATEGY_VAR, FleetMeasurer, strategy_profile_key,
)
from .pool import FleetWorkerSpec, FleetWorkerState, run_shard
from .spec import DEFAULT_FLEET, FleetSpec
from .strategy import Strategy, enumerate_strategies, resolve_weighted_shards


@dataclass
class FleetSearchReport:
    """Everything one fleet search decided, measured, and skipped."""

    model: str
    fleet: str
    batch_size: int
    winner: Strategy
    winner_per_sample_us: float
    winner_step_us: float
    winner_detail: dict
    strategies_total: int
    strategies_measured: int
    strategies_pruned: int
    measured_fraction: float
    #: why bound pruning stood down (None = it ran)
    standdown: str | None
    hetero_winner: bool
    best_homogeneous_us: float | None
    best_homogeneous_label: str | None
    #: True when the best-homogeneous figure is a measured time rather
    #: than an (admissible) analytic bound
    best_homogeneous_measured: bool = False
    calibration: dict = field(default_factory=dict)
    table: list = field(default_factory=list)
    engine: dict = field(default_factory=dict)
    workers: int = 1
    use_astra: bool = False
    exhaustive: bool = False

    def to_dict(self) -> dict:
        """JSON-safe form (strategy keys become nested lists)."""
        return {
            "model": self.model,
            "fleet": self.fleet,
            "batch_size": self.batch_size,
            "winner": {
                "label": self.winner.label,
                "key": _json_key(self.winner.key()),
                "per_sample_us": self.winner_per_sample_us,
                "step_us": self.winner_step_us,
                "heterogeneous": self.hetero_winner,
            },
            "strategies": {
                "total": self.strategies_total,
                "measured": self.strategies_measured,
                "pruned": self.strategies_pruned,
                "measured_fraction": self.measured_fraction,
            },
            "standdown": self.standdown,
            "best_homogeneous": {
                "label": self.best_homogeneous_label,
                "per_sample_us": self.best_homogeneous_us,
                "measured": self.best_homogeneous_measured,
            },
            "calibration": dict(self.calibration),
            "table": [dict(row) for row in self.table],
            "engine": dict(self.engine),
            "workers": self.workers,
            "use_astra": self.use_astra,
            "exhaustive": self.exhaustive,
        }


def _json_key(key) -> list:
    return [list(_json_key(k)) if isinstance(k, tuple) else k for k in key]


def run_fleet_search(
    builder,
    config,
    fleet: FleetSpec = DEFAULT_FLEET,
    *,
    model_name: str = "",
    workers: int = 1,
    exhaustive: bool = False,
    use_astra: bool = False,
    faults=None,
    seed: int = 0,
    microbatches: int = 4,
    max_degree: int | None = None,
    metrics=None,
    tracer=None,
) -> FleetSearchReport:
    """Search the full strategy space for one (model, fleet) pair.

    Deterministic in every argument; ``workers`` changes wall-clock
    only, never the winner (the equivalence tests pin this).
    """
    metrics = metrics if metrics is not None else NULL_REGISTRY
    measurer = FleetMeasurer(
        builder, config, fleet,
        use_astra=use_astra, seed=seed, faults=faults, metrics=metrics,
    )
    batch = config.batch_size
    strategies = enumerate_strategies(
        fleet, batch_size=batch, num_layer_scopes=len(measurer.scopes),
        microbatches=microbatches, max_degree=max_degree,
    )

    # calibration: full-batch compute per class -- resolves the weighted
    # shards and doubles as the d=1 strategies' compute primitive
    calibration = measurer.calibrate()
    strategies = resolve_weighted_shards(strategies, batch, calibration)

    bounds = [
        fleet_strategy_lo(
            s,
            batch_size=batch,
            grad_bytes=measurer.grad_bytes,
            hidden_size=config.hidden_size,
            interconnect=fleet.interconnect,
            scopes=measurer.scopes,
            compute_lo=measurer.analytic_compute_lo,
            stage_lo=measurer.analytic_stage_lo,
            overlap_fraction=OVERLAP_FRACTION,
        )
        for s in strategies
    ]

    # seed: the best-bound strategy, measured up front -- its measured
    # per-sample time is the cut line every other bound must beat
    seed_idx = min(range(len(strategies)), key=lambda i: (bounds[i], i))
    seed_outcome = measurer.measure_strategy(strategies[seed_idx])
    best0 = seed_outcome.per_sample_us

    standdown = None
    pruned = 0
    if exhaustive:
        survivors = list(range(len(strategies)))
    else:
        survivors, standdown = prune_fleet_strategies(
            strategies, bounds, best0,
            metrics=metrics, injector=faults,
            clock_modes=fleet.clock_modes(), use_astra=use_astra,
        )
        pruned = len(strategies) - len(survivors)

    # -- the wave: one adaptive variable over the surviving keys ------------
    engine_summary: dict = {}
    if len(survivors) > 1:
        var = AdaptiveVariable(
            STRATEGY_VAR,
            choices=[strategies[i].key() for i in survivors],
            metric_kind="end_to_end",
        )
        tree = UpdateNode(name="fleet", mode=MODE_PARALLEL, children=[var])
        tree.initialize()
        spec = FleetWorkerSpec(
            builder=builder, config=config, fleet=fleet,
            use_astra=use_astra, seed=seed, faults=faults,
            seed_entries=tuple(measurer.index.snapshot().items()),
        )
        engine = ParallelEngine(
            make_pool(spec, workers, FleetWorkerState, run_shard),
            metrics=metrics, tracer=tracer,
        )
        engine.prewarm()
        try:
            advance_first = False
            while True:
                entries, status = plan_wave(
                    tree, measurer.index, measurer.context,
                    samples=1, spent=0, budget=1 << 30, limit=1 << 30,
                    advance_first=advance_first,
                )
                tasks = [
                    e.assignment[STRATEGY_VAR] for e in entries if e is not HIT
                ]
                if tasks:
                    for outcome in engine.measure_wave(tasks):
                        measurer.index.merge(outcome.records)
                if status == STATUS_EXHAUSTED:
                    break
                advance_first = True
        finally:
            engine.close()
        var.finalize(measurer.index, measurer.context)
        winner = Strategy.from_key(var.value)
        engine_summary = engine.summary()
    else:
        winner = strategies[seed_idx]

    # all primitives are cached now: recomposing the winner is free and
    # yields the canonical detail dict whichever worker measured it
    winner_outcome = measurer.measure_strategy(winner)

    measured = metrics_safe_count(measurer, strategies)
    table = []
    for i, strategy in enumerate(strategies):
        value = measurer.index.get(
            strategy_profile_key(measurer.context, strategy)
        )
        table.append({
            "label": strategy.label,
            "kind": strategy.kind,
            "heterogeneous": strategy.heterogeneous,
            "bound_us": bounds[i],
            "per_sample_us": value,
            "pruned": i not in survivors and value is None,
        })

    homo_label = homo_us = None
    homo_measured = False
    homo_rows = [r for r in table if not r["heterogeneous"]]
    measured_homo = [r for r in homo_rows if r["per_sample_us"] is not None]
    if measured_homo:
        best = min(measured_homo, key=lambda r: r["per_sample_us"])
        homo_label, homo_us, homo_measured = (
            best["label"], best["per_sample_us"], True,
        )
    elif homo_rows:
        best = min(homo_rows, key=lambda r: r["bound_us"])
        homo_label, homo_us = best["label"], best["bound_us"]

    metrics.gauge("fleet.strategies.total").set(len(strategies))
    metrics.gauge("fleet.strategies.measured").set(measured)
    metrics.gauge("fleet.strategies.pruned").set(pruned)
    metrics.gauge("fleet.search.winner_hetero").set(
        1 if winner.heterogeneous else 0
    )
    metrics.gauge("fleet.search.best_per_sample_us").set(
        winner_outcome.per_sample_us
    )
    if tracer is not None:
        tracer.instant(
            "fleet/winner",
            strategy=winner.label,
            per_sample_us=winner_outcome.per_sample_us,
            measured=measured, total=len(strategies),
        )

    return FleetSearchReport(
        model=model_name,
        fleet=fleet.name,
        batch_size=batch,
        winner=winner,
        winner_per_sample_us=winner_outcome.per_sample_us,
        winner_step_us=winner_outcome.step_us,
        winner_detail=winner_outcome.detail,
        strategies_total=len(strategies),
        strategies_measured=measured,
        strategies_pruned=pruned,
        measured_fraction=measured / len(strategies) if strategies else 0.0,
        standdown=standdown,
        hetero_winner=winner.heterogeneous,
        best_homogeneous_us=homo_us,
        best_homogeneous_label=homo_label,
        best_homogeneous_measured=homo_measured,
        calibration=calibration,
        table=table,
        engine=engine_summary,
        workers=workers,
        use_astra=use_astra,
        exhaustive=exhaustive,
    )


def metrics_safe_count(measurer: FleetMeasurer, strategies: list[Strategy]) -> int:
    """How many strategies ended up with a measured per-sample entry."""
    return sum(
        1 for s in strategies
        if strategy_profile_key(measurer.context, s) in measurer.index
    )
