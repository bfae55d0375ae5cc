"""The fleet strategy search: partitioning as a measured adaptive choice.

The partitioning strategy -- data-parallel degree, contiguous pipeline
cuts, per-stage device placement, batch-split mode -- is one
:class:`~repro.core.adaptive.AdaptiveVariable` whose choices are
:meth:`Strategy.key` values.  A strategy's step time is a closed-form
composition of shared *primitives* (:meth:`FleetMeasurer.primitives`),
so the search measures primitives, not strategies:

1. calibration measures the full-batch compute of every device class
   (it resolves the weighted shards);
2. when bound pruning may run, the analytic bounds are priced, the
   best-bound seed strategy is measured, and every strategy whose
   admissible bound exceeds the seed's measured per-sample time is
   pruned -- provably winner-preserving;
3. one wave ships the survivors' missing primitives, each once and in
   first-appearance order, through :class:`~repro.parallel.engine.ParallelEngine`;
   each outcome carries the primitive's index delta and analytic price;
4. the parent composes every survivor from the merged index and picks
   the first minimum with :meth:`AdaptiveVariable.finalize`.

Pruning stands down whenever the bound's exactness preconditions fail
(fault injector, autoboost clocks, inner-Astra compute), and ``repro
fleet --exhaustive`` disables it.  Then nothing is measured before the
wave, and the table's bounds are priced after it from the shipped
prices, so the parent builds no graph just to price a bound.  Inner-Astra
compute pre-ranks each device class's FK choices inside its own session
(:func:`~repro.perf.ranker.prune_fk_tree`), and ``exhaustive`` turns
that off too: it means no pruning at any level.  The equivalence tests
pin bit-identical winners between the pruned and exhaustive paths and
across worker counts.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..core.adaptive import AdaptiveVariable
from ..obs.observer import NULL_OBSERVER
from ..parallel.engine import ParallelEngine
from ..parallel.pool import InlinePool, make_pool
from ..perf.ranker import (
    fleet_prune_standdown, fleet_strategy_lo, prune_fleet_strategies,
)
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
    observer=NULL_OBSERVER,
) -> FleetSearchReport:
    """Search the full strategy space for one (model, fleet) pair.

    Deterministic in every argument; ``workers`` changes wall-clock
    only, never the winner (the equivalence tests pin this).
    """
    measurer = FleetMeasurer(
        builder, config, fleet,
        use_astra=use_astra, seed=seed, faults=faults, observer=observer,
        exhaustive=exhaustive,
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

    def price_bounds() -> list[float]:
        return [
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

    standdown = None
    bounds = None
    survivors = list(range(len(strategies)))
    if not exhaustive:
        standdown = fleet_prune_standdown(
            injector=faults, clock_modes=fleet.clock_modes(),
            use_astra=use_astra,
        )
        if standdown is not None:
            observer.count(f"fleet.prune.skipped_{standdown}")
        else:
            # seed: the best-bound strategy, measured up front -- its
            # measured per-sample time is the cut line every other bound
            # must beat
            bounds = price_bounds()
            seed_idx = min(survivors, key=lambda i: (bounds[i], i))
            best0 = measurer.measure_strategy(strategies[seed_idx]).per_sample_us
            survivors = prune_fleet_strategies(
                bounds, best0, observer=observer,
            ) or [seed_idx]
    pruned = len(strategies) - len(survivors)

    # -- the wave: every survivor primitive not measured yet, once --------
    tasks = list(dict.fromkeys(
        p for i in survivors for p in measurer.primitives(strategies[i])
        if not measurer.measured(p)
    ))
    engine_summary: dict = {}
    if len(tasks) > 1:
        if workers > 1:
            spec = FleetWorkerSpec(
                builder=builder, config=config, fleet=fleet, job=measurer.job,
                use_astra=use_astra, seed=seed, faults=faults,
                exhaustive=exhaustive,
            )
            pool = make_pool(spec, workers, FleetWorkerState, run_shard)
        else:
            # width 1 lends the search's own measurer, graphs and all
            pool = InlinePool(
                FleetWorkerState, run_shard,
                state=FleetWorkerState(measurer=measurer),
            )
        engine = ParallelEngine(pool, observer=observer)
        engine.prewarm()
        try:
            for outcome in engine.measure_wave(tasks):
                # new records mean a worker measured it; a lent measurer
                # has already counted its own
                if measurer.index.merge(outcome.records)["merged"]:
                    observer.count(f"fleet.measure.{outcome.primitive[0]}")
                measurer.adopt_price(outcome.primitive, outcome.price)
        finally:
            engine.close()
        engine_summary = engine.summary()

    # every lookup is an index hit now (a lone missing primitive is
    # measured in place): compose the survivors and pick the first
    # minimum, the adaptive variable's own rule
    outcomes = [measurer.measure_strategy(strategies[i]) for i in survivors]
    var = AdaptiveVariable(
        STRATEGY_VAR,
        choices=[strategies[i].key() for i in survivors],
        metric_kind="end_to_end",
    )
    var.finalize(measurer.index, measurer.context)
    winner_outcome = outcomes[var.choices.index(var.value)]
    winner = winner_outcome.strategy
    if bounds is None:
        bounds = price_bounds()

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

    observer.gauge("fleet.strategies.total", len(strategies))
    observer.gauge("fleet.strategies.measured", measured)
    observer.gauge("fleet.strategies.pruned", pruned)
    observer.gauge("fleet.search.winner_hetero", 1 if winner.heterogeneous else 0)
    observer.gauge(
        "fleet.search.best_per_sample_us", winner_outcome.per_sample_us
    )
    observer.instant(
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
