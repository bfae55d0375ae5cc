"""Cost-model-guided pre-ranking of the fusion/kernel search space.

The fk phase explores ``"units"``-metric variables in parallel: every
mini-batch measures one choice per live variable, and a variable's
measurement is the summed execution time of exactly the units its choice
emitted (kernel duration + gather pre-copies; never launch overhead).
At base clock, without a fault injector, the simulator computes those
durations from the same analytic kernel models the cost model exposes --
so :func:`estimate_choices_us` reproduces the number the wirer *would*
measure, to float precision.

That exactness is what makes pruning safe: a choice whose estimate
exceeds the variable's best estimate by more than the guard margin can
never win ``finalize`` (which picks the measured minimum), so dropping
it cannot change any winner.  The convergence-equivalence tests pin
this: pruned and exhaustive exploration pick the same configuration and
the same final epoch time on every bundled model.

When the exactness preconditions do not hold (autoboost clock jitter, an
armed fault injector perturbing durations), :func:`prune_fk_tree`
declines to prune rather than risk a divergent winner.  Stream-phase
variables are never pruned: their epoch metric depends on cross-stream
overlap, for which the serial cost model is not admissible.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from ..gpu.device import CLOCK_BASE
from ..gpu.libraries import GEMM_LIBRARIES
from ..obs.observer import NULL_OBSERVER

#: at most this fraction of a variable's choices may be pruned
PRUNE_FRACTION = 0.75
#: keep any choice whose estimate is within (1 + margin) of the best --
#: absorbs float-roundoff ties without ever risking the argmin
PRUNE_MARGIN = 0.05


@dataclass(frozen=True)
class FastPath:
    """Fast-path configuration carried by the wirer.

    The library default keeps the compilation cache on (bit-identical by
    construction) and pruning off; the CLI turns pruning on and exposes
    a ``--no-prune`` escape hatch.
    """

    #: memoize lowering through :class:`repro.perf.cache.LoweringCache`
    #: and the enumerator's unit-template cache
    cache: bool = True
    #: pre-rank fk choices with the cost model and prune losers
    prune: bool = False


def estimate_choices_us(
    enumerator, strategy, var, device, choices=None, gemm_us=None
) -> list[float]:
    """The ``"units"`` metric each of ``var``'s choices (or of
    ``choices``) would measure, analytically.

    Choices that differ only in their library share one emission: its
    units are emitted once, for the first such choice, and priced under
    each library, the choice's library running every GEMM its units
    launch.  The sum runs in the units' order with each unit's pre-copies
    first, so every estimate equals ``units_cost_us`` of the choice's own
    units bit for bit.  ``gemm_us`` memoizes GEMM durations on
    ``device`` by ``(m, k, n, library)`` and may be shared across
    variables.
    """
    gemm_us = {} if gemm_us is None else gemm_us
    emissions: dict = {}
    out = []
    for choice in var.choices if choices is None else choices:
        shape, lib = choice if isinstance(choice, tuple) else (None, choice)
        parts = emissions.get(shape)
        if parts is None:
            parts = emissions[shape] = [
                (sum(k.duration_us(device) for k in unit.pre_copies), unit.kernel)
                for unit in enumerator.units_for_choice(strategy, var, choice)
            ]
        total = 0
        for pre, kernel in parts:
            if kernel.kind == "gemm":
                key = (kernel.m, kernel.k, kernel.n, lib)
                cost = gemm_us.get(key)
                if cost is None:
                    cost = gemm_us[key] = GEMM_LIBRARIES[lib].duration_us(
                        kernel.m, kernel.k, kernel.n, device
                    )
                total += pre + cost
            else:
                total += pre + kernel.duration_us(device)
        out.append(total)
    return out


def prune_fk_tree(
    enumerator, strategy, tree, device,
    observer=NULL_OBSERVER, injector=None, context: tuple = (),
) -> int:
    """Prune provably-losing choices from an fk update tree, in place.

    Returns the number of choices removed, and records one ``prune``
    decision per cut choice -- under ``context``, with the estimate it
    was cut on -- in variable order and original choice order.  Mutates ``var.choices`` and
    re-initializes the tree so exploration starts from the pruned space;
    pruning is deterministic in (graph, device, strategy), so a resumed
    run reproduces the same pruned space.  Never prunes when the serial
    cost model is not provably exact (injector armed, non-base clock),
    and always keeps at least ``1 - PRUNE_FRACTION`` of each variable's
    choices, including every choice tied with the best estimate.
    """
    if injector is not None or device.clock_mode != CLOCK_BASE:
        observer.count("perf.prune.skipped_inexact")
        return 0

    gemm_us: dict = {}
    pruned_total = 0
    tree_var_names = {v.name for v in tree.variables()}
    for var in tree.variables():
        if var.metric_kind != "units" or len(var.choices) <= 1:
            continue
        if var.name.startswith("ladder:") and (
            enumerator.member_unfused_kernel_vars(var.payload) & tree_var_names
        ):
            # the unfused choice's library is decided by a concurrent
            # kernel variable, so the analytic estimate (default library)
            # is not the value the wirer would measure -- don't prune
            observer.count("perf.prune.skipped_coupled")
            continue
        var_estimates = estimate_choices_us(
            enumerator, strategy, var, device, gemm_us=gemm_us
        )
        cut = min(var_estimates) * (1.0 + PRUNE_MARGIN)
        survivors = [i for i, est in enumerate(var_estimates) if est <= cut]
        keep_floor = max(1, len(var.choices) - int(PRUNE_FRACTION * len(var.choices)))
        if len(survivors) < keep_floor:
            # top back up with the next-cheapest choices so no more than
            # PRUNE_FRACTION of the space is ever discarded
            ranked = sorted(
                range(len(var_estimates)), key=lambda i: (var_estimates[i], i)
            )
            survivors = sorted(ranked[:keep_floor])
        if len(survivors) == len(var.choices):
            continue
        pruned_total += len(var.choices) - len(survivors)
        kept = set(survivors)
        for i, choice in enumerate(var.choices):
            if i not in kept:
                observer.decision(
                    "prune", context=context, name=var.name, choice=choice,
                    estimate_us=var_estimates[i],
                )
        # preserve relative order: choice order decides round pairing and
        # finalize tie-breaks, so survivors keep their original sequence
        var.choices[:] = [var.choices[i] for i in survivors]
        var.initialize()

    if pruned_total:
        observer.count("perf.prune.choices_pruned", pruned_total)
    tree.initialize()
    return pruned_total


# -- fleet strategy pre-ranking (docs/distributed.md) -------------------------
#
# The same exactness argument, lifted from kernel choices to partitioning
# strategies.  At base clock without an injector the simulator's measured
# per-unit durations *are* the analytic kernel costs, so for every
# strategy a lower bound on its measured step time can be computed from
# pure arithmetic before a single strategy mini-batch is spent:
#
# * a replica's mini-batch time is at least the summed kernel durations
#   (the GPU must run them all) AND at least the serialized launch
#   overheads (the host must dispatch them all) -- ``max`` of the two;
# * the exposed all-reduce is at least ``comm * (1 - overlap_fraction)``,
#   because the hideable part is capped at ``overlap_fraction * comm``;
# * a pipeline's beat is at least its slowest stage's attributed compute
#   plus one *uncontended* boundary transfer (contention only adds).
#
# A strategy whose bound exceeds the seed strategy's *measured* step time
# can never win ``finalize`` (which picks the measured minimum), so
# pruning it cannot change the winner -- ties survive because the cut is
# ``bound > best``, never ``>=``.  When the preconditions fail (injector
# armed, autoboost clocks, inner-Astra compute whose stream overlap
# breaks the summed-durations bound) the pruner stands down and the
# search measures everything, exactly like :func:`prune_fk_tree`.


def fleet_replica_lo(
    compute_lo: Callable[[str, int], float],
    placement: tuple[str, ...],
    shards: tuple[int, ...],
) -> float:
    """Slowest-replica analytic beat of a data strategy."""
    return max(
        compute_lo(cls, shard) for cls, shard in zip(placement, shards)
    )


def fleet_strategy_lo(
    strategy,
    *,
    batch_size: int,
    grad_bytes: int,
    hidden_size: int,
    interconnect,
    scopes: tuple[str, ...],
    compute_lo: Callable[[str, int], float],
    stage_lo: Callable[[str, int], dict],
    overlap_fraction: float,
) -> float:
    """Admissible per-sample lower bound for one fleet strategy.

    ``compute_lo(cls, batch)`` and ``stage_lo(cls, micro)`` supply the
    per-device-class analytic price sheet (the fleet measurer computes it
    from the same native plans the measurement executes); everything else
    is closed-form.  Admissible: never exceeds the measured per-sample
    time at base clock, so ``bound > measured_best`` is a proof of loss.
    """
    if strategy.kind == "data":
        beat = fleet_replica_lo(compute_lo, strategy.placement, strategy.shards)
        world = len(strategy.placement)
        exposed = 0.0
        if world > 1:
            comm = interconnect.allreduce_us(grad_bytes, world)
            exposed = comm * (1.0 - overlap_fraction)
        return (beat + exposed) / float(batch_size)

    micro = max(1, batch_size // strategy.microbatches)
    samples = micro * strategy.microbatches
    stages = len(strategy.cuts)
    beat = 0.0
    start = 0
    for cls, width in zip(strategy.placement, strategy.cuts):
        per_scope = stage_lo(cls, micro)
        stage = sum(per_scope.get(s, 0.0) for s in scopes[start:start + width])
        beat = max(beat, stage)
        start += width
    if stages > 1:
        beat += interconnect.contended_us(micro * hidden_size * 4, 1)
    return (strategy.microbatches + stages - 1) * beat / float(samples)


def fleet_prune_standdown(
    *, injector=None, clock_modes=(), use_astra: bool = False,
) -> str | None:
    """Why strategy-bound pruning must decline, or None when it may run.

    Mirrors :func:`prune_fk_tree`'s guard, plus the fleet-specific case:
    inner-Astra compute uses stream overlap, for which the serialized
    summed-durations bound is not admissible.
    """
    if injector is not None:
        return "faults"
    if any(mode != CLOCK_BASE for mode in clock_modes):
        return "clock"
    if use_astra:
        return "inner_astra"
    return None


def prune_fleet_strategies(
    bounds: list[float],
    best_measured_us: float,
    *,
    observer=NULL_OBSERVER,
) -> list[int]:
    """Indices of strategies that may still win, given the seed's
    measured per-sample time; preserves enumeration order.  Sound only
    when :func:`fleet_prune_standdown` returns None: on stand-down the
    search measures the full space, so under injection the (faulted)
    winner is the exhaustive one by construction."""
    survivors = [
        i for i, bound in enumerate(bounds) if bound <= best_measured_us
    ]
    pruned = len(bounds) - len(survivors)
    if pruned:
        observer.count("fleet.prune.strategies_pruned", pruned)
    return survivors
