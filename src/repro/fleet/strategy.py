"""The fleet strategy space: partitioning as an adaptive variable.

A :class:`Strategy` is one fully specified way to run a mini-batch on the
fleet:

* ``data``: N replicas (the data-parallel degree), each placed on a
  device class, each processing a shard of the global batch.  Shards are
  either ``even`` (balanced largest-remainder split) or ``weighted``
  (proportional to the device classes' measured full-batch throughput --
  the hetero-Astra move that lets a mixed placement beat the fastest
  homogeneous pair).
* ``pipeline``: the layer stack cut into contiguous stages, each stage
  placed on a device class, micro-batches streamed through GPipe-style.

Strategies are identified **by value** (:meth:`Strategy.key`): the key is
what the adaptive variable carries as a choice, what the profile index
stores the measured step time under, and what worker processes receive to
rebuild the strategy -- nothing crosses a boundary as an object.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import combinations_with_replacement, product

from .spec import FleetSpec

SPLIT_EVEN = "even"
SPLIT_WEIGHTED = "weighted"


@dataclass(frozen=True)
class Strategy:
    """One candidate partitioning of the job over the fleet."""

    kind: str  # "data" | "pipeline"
    #: device class per replica (data) or per stage (pipeline)
    placement: tuple[str, ...]
    #: data: per-replica batch shard (same order as ``placement``);
    #: empty until a weighted strategy's shards are resolved
    shards: tuple[int, ...] = ()
    split: str = SPLIT_EVEN
    #: pipeline: layer count per contiguous stage (sums to the stack depth)
    cuts: tuple[int, ...] = ()
    #: pipeline: micro-batches streamed per step
    microbatches: int = 1

    @property
    def world(self) -> int:
        return len(self.placement)

    @property
    def heterogeneous(self) -> bool:
        return len(set(self.placement)) > 1

    def key(self) -> tuple:
        """Value identity: the adaptive-variable choice / profile key."""
        return (
            self.kind, self.placement, self.shards, self.split,
            self.cuts, self.microbatches,
        )

    @classmethod
    def from_key(cls, key: tuple) -> "Strategy":
        kind, placement, shards, split, cuts, microbatches = key
        return cls(
            kind=kind, placement=tuple(placement), shards=tuple(shards),
            split=split, cuts=tuple(cuts), microbatches=int(microbatches),
        )

    @property
    def label(self) -> str:
        devices = ",".join(self.placement)
        if self.kind == "data":
            shards = "/".join(str(s) for s in self.shards) or "?"
            return f"data x{self.world} [{devices}] {self.split} ({shards})"
        stages = "|".join(str(c) for c in self.cuts)
        return f"pipe x{self.world} [{devices}] cuts {stages} m{self.microbatches}"


def balanced_shards(batch_size: int, world: int) -> tuple[int, ...]:
    """Largest-remainder even split; sums to ``batch_size`` exactly."""
    base, extra = divmod(batch_size, world)
    return tuple(base + (1 if i < extra else 0) for i in range(world))


def weighted_shards(
    batch_size: int, placement: tuple[str, ...], speed_us: dict[str, float],
) -> tuple[int, ...]:
    """Throughput-proportional split: faster classes take bigger shards.

    ``speed_us`` maps device class -> a per-batch time proxy (measured
    full-batch compute, or the analytic bound); shares are proportional
    to ``1/speed``.  Deterministic largest-remainder rounding with a
    one-sample floor per replica; sums to ``batch_size`` exactly.
    """
    speeds = [speed_us[cls] for cls in placement]
    inv = [1.0 / max(speed, 1e-9) for speed in speeds]
    total = sum(inv)
    raw = [batch_size * w / total for w in inv]
    shards = [max(1, int(r)) for r in raw]
    remainder = batch_size - sum(shards)
    # the fraction is taken against the shard itself, so a replica the
    # floor lifted above its raw share has a negative one.  Leftovers go
    # out largest fraction first; an overshoot from the floor is clawed
    # back smallest fraction first (the replica most over its raw share),
    # never below the floor.  Exact ties favour the faster device, then
    # the lower index, in both directions -- fully deterministic, and a
    # faster replica never ends up with fewer samples than a slower one.
    if remainder >= 0:
        def key(i):
            return (-(raw[i] - shards[i]), speeds[i], i)
    else:
        def key(i):
            return (raw[i] - shards[i], -speeds[i], -i)
    order = sorted(range(len(raw)), key=key)
    i = 0
    while remainder != 0 and i < 10 * len(shards):
        pos = order[i % len(order)]
        if remainder > 0:
            shards[pos] += 1
            remainder -= 1
        elif shards[pos] > 1:
            shards[pos] -= 1
            remainder += 1
        i += 1
    return tuple(shards)


def _compositions(total: int, parts: int):
    """All ordered tuples of positive ints of length ``parts`` summing to
    ``total``, lexicographic -- the contiguous stage cuts of a stack."""
    if parts == 1:
        yield (total,)
        return
    for first in range(1, total - parts + 2):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def _placements_unordered(classes: list[str], counts: dict[str, int], size: int):
    """Replica placements: class multisets within fleet availability."""
    for combo in combinations_with_replacement(classes, size):
        if all(combo.count(cls) <= counts[cls] for cls in set(combo)):
            yield combo


def _placements_ordered(classes: list[str], counts: dict[str, int], size: int):
    """Stage placements: class sequences within fleet availability."""
    for combo in product(classes, repeat=size):
        if all(combo.count(cls) <= counts[cls] for cls in set(combo)):
            yield combo


def enumerate_strategies(
    fleet: FleetSpec,
    *,
    batch_size: int,
    num_layer_scopes: int,
    microbatches: int = 4,
    max_degree: int | None = None,
) -> list[Strategy]:
    """The full candidate space, in canonical (deterministic) order.

    Data strategies come first (by degree, then placement, even before
    weighted), then pipeline strategies (by stage count, cuts,
    placement).  The order is the exploration order: the adaptive
    variable's finalize breaks measured ties by first position, so
    pruned and exhaustive sweeps agree bit-for-bit only because both see
    the same sequence.

    Weighted splits are only emitted for heterogeneous placements (they
    equal the even split on a uniform one), and their shards stay
    unresolved until :func:`resolve_weighted_shards` fills them from the
    per-class calibration.
    """
    counts = fleet.class_counts()
    classes = sorted(counts)
    limit = min(fleet.world, batch_size)
    if max_degree is not None:
        limit = min(limit, max_degree)

    strategies: list[Strategy] = []
    for degree in range(1, limit + 1):
        for placement in _placements_unordered(classes, counts, degree):
            strategies.append(Strategy(
                kind="data", placement=tuple(placement),
                shards=balanced_shards(batch_size, degree), split=SPLIT_EVEN,
            ))
            if degree > 1 and len(set(placement)) > 1:
                strategies.append(Strategy(
                    kind="data", placement=tuple(placement),
                    shards=(), split=SPLIT_WEIGHTED,
                ))

    max_stages = min(num_layer_scopes, fleet.world)
    micro = max(1, min(microbatches, batch_size))
    for stages in range(2, max_stages + 1):
        for cuts in _compositions(num_layer_scopes, stages):
            for placement in _placements_ordered(classes, counts, stages):
                strategies.append(Strategy(
                    kind="pipeline", placement=tuple(placement),
                    cuts=cuts, microbatches=micro,
                ))
    return strategies


def resolve_weighted_shards(
    strategies: list[Strategy],
    batch_size: int,
    speed_us: dict[str, float],
) -> list[Strategy]:
    """Fill every weighted strategy's shards from the class calibration.

    ``speed_us`` is the measured (or analytic) full-batch compute time
    per device class; the same calibration must feed the bound and the
    measurement so the strategy's identity is fixed before exploration
    starts.  Returns a new list in the same order.
    """
    resolved = []
    for s in strategies:
        if s.kind == "data" and s.split == SPLIT_WEIGHTED and not s.shards:
            s = replace(
                s, shards=weighted_shards(batch_size, s.placement, speed_us)
            )
        resolved.append(s)
    return resolved
