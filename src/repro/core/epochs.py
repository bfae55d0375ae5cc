"""Epoch and super-epoch partitioning for stream exploration.

Section 4.5.3/4.5.4: stream scheduling is history-sensitive, so Astra

* cuts the unit list into **epochs** -- antichains of mutually independent
  units at the same dependency depth, schedulable across streams with only
  intra-epoch synchronization;
* groups consecutive epochs into **super-epochs** calibrated to a few
  milliseconds of estimated GPU time (static flops calculation), with a
  forced cross-stream barrier at each boundary: the barrier resets stream
  history so different super-epochs explore *in parallel*;
* collapses interchangeable kernels inside an epoch into **equivalence
  classes** (same shape, same dependency pattern, section 4.5.5), so the
  choice space is "how many per stream", not "which ones".
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product

from ..gpu.device import GPUSpec
from ..runtime.plan import Unit

#: target execution time per super-epoch, microseconds (section 4.5.3:
#: "a few milliseconds worth of computation time")
SUPER_EPOCH_TARGET_US = 2000.0

#: static knowledge (section 4.8): prune stream assignments whose flop
#: balance across streams is worse than this ratio
MAX_FLOP_IMBALANCE = 4.0

#: cap on enumerated assignments per epoch (largest epochs fall back to
#: equivalence-class count splits)
MAX_EPOCH_OPTIONS = 24

#: epochs whose estimated execution time is below this are not worth
#: spreading across streams (static knowledge, section 4.8): the sync
#: events would cost more than the overlap gains
MIN_EPOCH_ADAPT_US = 25.0


@dataclass
class Epoch:
    """One antichain of units, plus its enumerated stream assignments."""

    super_epoch: int
    index: int
    unit_ids: list[int]
    #: each option maps unit id -> stream
    options: list[dict[int, int]]


@dataclass
class EpochPartition:
    epochs: list[Epoch]
    #: unit id -> (super_epoch, epoch index)
    coordinates: dict[int, tuple[int, int]]
    num_super_epochs: int
    _barriers: frozenset[int] | None = field(
        default=None, init=False, repr=False, compare=False
    )

    def barrier_units(self) -> frozenset[int]:
        """Last unit of each super-epoch except the final one, computed on
        first call: every stream candidate of a partition shares them."""
        if self._barriers is None:
            last: dict[int, int] = {}
            for epoch in self.epochs:
                for uid in epoch.unit_ids:
                    last[epoch.super_epoch] = max(last.get(epoch.super_epoch, -1), uid)
            super_ids = sorted(last)
            self._barriers = frozenset(last[se] for se in super_ids[:-1])
        return self._barriers


def _unit_levels(units: list[Unit], deps: dict[int, set[int]]) -> dict[int, int]:
    """Dependency depth of each unit (longest path from a source)."""
    from ..runtime.dispatcher import topological_units

    levels: dict[int, int] = {}
    for unit in topological_units(units, deps):
        parents = deps.get(unit.unit_id, set())
        levels[unit.unit_id] = 1 + max((levels[p] for p in parents), default=-1)
    return levels


def _equivalence_key(unit: Unit) -> tuple:
    """Units with the same kernel signature are interchangeable within an
    epoch (same shape, same level => same in/outbound structure class)."""
    kernel = unit.kernel
    if kernel is None:
        return ("host", unit.label)
    return (kernel.kind, kernel.name)


def _enumerate_options(
    unit_ids: list[int], units_by_id: dict[int, Unit], num_streams: int
) -> list[dict[int, int]]:
    """Stream assignments for one epoch.

    Small heterogeneous epochs are enumerated exhaustively (section 4.5.2's
    "within a super-epoch we still need to perform exhaustive exploration");
    equivalence classes reduce same-shape kernels to count splits
    (section 4.5.5); flop balance prunes hopeless assignments (section 4.8).
    """
    if len(unit_ids) == 1:
        return [{unit_ids[0]: 0}]

    flops = {uid: max(1, units_by_id[uid].kernel.flops() if units_by_id[uid].kernel else 1)
             for uid in unit_ids}
    classes: dict[tuple, list[int]] = {}
    for uid in unit_ids:
        classes.setdefault(_equivalence_key(units_by_id[uid]), []).append(uid)

    # per-class choices: how many of the class's kernels go to each stream;
    # members are interchangeable so only counts matter
    class_splits: list[list[tuple[int, ...]]] = []
    class_members: list[list[int]] = []
    for members in classes.values():
        count = len(members)
        splits = _count_splits(count, num_streams)
        class_splits.append(splits)
        class_members.append(members)

    options: list[dict[int, int]] = []
    for combo in product(*class_splits):
        assignment: dict[int, int] = {}
        stream_flops = [0.0] * num_streams
        for members, split in zip(class_members, combo):
            cursor = 0
            for stream, take in enumerate(split):
                for uid in members[cursor: cursor + take]:
                    assignment[uid] = stream
                    stream_flops[stream] += flops[uid]
                cursor += take
        busy = [f for f in stream_flops if f > 0]
        if len(busy) > 1 and max(busy) / min(busy) > MAX_FLOP_IMBALANCE:
            continue
        options.append(assignment)
        if len(options) >= MAX_EPOCH_OPTIONS:
            break
    if not options:
        options.append({uid: 0 for uid in unit_ids})
    return options


def _count_splits(count: int, num_streams: int) -> list[tuple[int, ...]]:
    """All ways to split ``count`` interchangeable kernels over streams
    (ordered tuples summing to count), most-serial first so option 0 is the
    single-stream default."""
    if num_streams == 1:
        return [(count,)]
    splits: list[tuple[int, ...]] = []

    def rec(remaining: int, streams_left: int, acc: tuple[int, ...]) -> None:
        if streams_left == 1:
            splits.append(acc + (remaining,))
            return
        for take in range(remaining, -1, -1):
            rec(remaining - take, streams_left - 1, acc + (take,))

    rec(count, num_streams, ())
    # deterministic order: all-in-stream-0 first (the no-streams baseline)
    splits.sort(key=lambda s: tuple(-x for x in s))
    return splits


def partition_epochs(
    units: list[Unit],
    deps: dict[int, set[int]],
    device: GPUSpec,
    num_streams: int = 2,
    target_us: float = SUPER_EPOCH_TARGET_US,
) -> EpochPartition:
    """Assign every unit to (super_epoch, epoch) and enumerate per-epoch
    stream options.  The units are left untouched: a plan carries the
    coordinates in its ``epoch_of`` table."""
    units_by_id = {u.unit_id: u for u in units}
    levels = _unit_levels(units, deps)

    by_level: dict[int, list[int]] = {}
    for uid, level in levels.items():
        by_level.setdefault(level, []).append(uid)

    # estimate per-level time to calibrate super-epoch boundaries
    per_slot = device.peak_flops_per_us * 0.5
    epochs: list[Epoch] = []
    coordinates: dict[int, tuple[int, int]] = {}
    super_epoch = 0
    budget = 0.0
    epoch_index = 0
    for level in sorted(by_level):
        unit_ids = sorted(by_level[level])
        est = sum(
            (units_by_id[uid].kernel.flops() if units_by_id[uid].kernel else 0) / per_slot
            + device.launch_overhead_us
            for uid in unit_ids
        )
        if budget >= target_us:
            super_epoch += 1
            epoch_index = 0
            budget = 0.0
        budget += est
        if est < MIN_EPOCH_ADAPT_US:
            options = [{uid: 0 for uid in unit_ids}]
        else:
            options = _enumerate_options(unit_ids, units_by_id, num_streams)
        epochs.append(Epoch(super_epoch, epoch_index, unit_ids, options))
        for uid in unit_ids:
            coordinates[uid] = (super_epoch, epoch_index)
        epoch_index += 1

    return EpochPartition(
        epochs=epochs,
        coordinates=coordinates,
        num_super_epochs=super_epoch + 1,
    )
