"""Allocation strategies: arbitrating conflicting layout requirements.

Fusion groups impose layout requirements on their operand tensors
(section 3.2); forward- and backward-pass groups frequently want the same
weights in different layouts (Figure 1).  Section 4.5.2's recipe:

* conflicts caused by a single shared tensor are resolved *statically* by
  dropping the offending tensor from both groups;
* non-trivial conflicts become a top-level fork in the exploration space:
  each allocation strategy satisfies a maximal compatible subset of
  requirements, fusion adaptation is restricted to the groups each
  strategy supports, and the custom-wirer compares the per-strategy best
  configurations end to end.

Unsatisfied *weight* layouts can still be fused by gathering the weights
once per mini-batch (weights are constant within a mini-batch); the
gather cost is what the measurement-driven comparison sees.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..gpu.memory import AllocationPlan, ContiguityGroup
from ..ir.graph import Graph
from .fusion import FusionAnalysis, Requirement


@dataclass(frozen=True)
class AllocationStrategy:
    """One memory-layout choice: the set of layout requirements it honors."""

    strategy_id: int
    label: str
    satisfied: frozenset[Requirement]

    def supports(self, requirement: Requirement | None) -> bool:
        return requirement is None or requirement in self.satisfied

    def context_key(self) -> tuple:
        return ("alloc", self.strategy_id)


def group_flops(analysis: FusionAnalysis) -> dict[str, float]:
    """Each fusion group's GEMM flops, the weight the enumerator gives
    its requirement in ``enumerate_strategies``."""
    return {
        g.group_id: float(sum(2 * mb.m * mb.k_total * mb.n for mb in g.members))
        for g in analysis.groups
    }


def _greedy_independent_set(
    order: list[Requirement], tensors: dict[Requirement, frozenset[int]]
) -> frozenset[Requirement]:
    """The requirements of ``order``, first come first served, that touch
    no tensor an earlier chosen one claimed.  ``order`` holds no
    duplicates, so this is ``conflicts_with`` against each chosen one."""
    chosen: list[Requirement] = []
    claimed: set[int] = set()
    for req in order:
        if claimed.isdisjoint(tensors[req]):
            chosen.append(req)
            claimed.update(tensors[req])
    return frozenset(chosen)


def enumerate_strategies(
    analysis: FusionAnalysis,
    group_flops: dict[str, float] | None = None,
    max_strategies: int = 3,
) -> list[AllocationStrategy]:
    """Build the allocation fork: a handful of maximal compatible
    requirement sets, ordered so strategy 0 is the forward-pass-friendly
    default (what Astra_F/FK/FKS run with; Astra_all explores them all)."""
    group_flops = group_flops or {}
    req_weight: dict[Requirement, float] = {}
    req_sources: list[tuple[Requirement, str, float]] = []
    for group in analysis.groups:
        if group.requirement is not None:
            weight = group_flops.get(group.group_id, float(group.size))
            req_sources.append((group.requirement, group.pass_tag, weight))
    for req in analysis.ladder_requirements:
        req_sources.append((req, "forward" if "backward" not in req.label else "backward", 1.0))

    merged: dict[Requirement, tuple[str, float]] = {}
    for req, tag, weight in req_sources:
        prev = merged.get(req)
        if prev is None:
            merged[req] = (tag, weight)
        else:
            merged[req] = (prev[0], prev[1] + weight)

    requirements = list(merged)
    for req, (_tag, weight) in merged.items():
        req_weight[req] = weight
    tensors = {req: req.all_tensors() for req in requirements}

    def order_by(key) -> list[Requirement]:
        return sorted(requirements, key=key)

    forward_first = order_by(
        lambda r: (0 if merged[r][0] == "forward" else 1, -req_weight[r])
    )
    backward_first = order_by(
        lambda r: (0 if merged[r][0] == "backward" else 1, -req_weight[r])
    )
    heaviest_first = order_by(lambda r: -req_weight[r])

    seen: list[frozenset[Requirement]] = []
    strategies: list[AllocationStrategy] = []
    for label, order in (
        ("forward-first", forward_first),
        ("backward-first", backward_first),
        ("heaviest-first", heaviest_first),
    ):
        satisfied = _greedy_independent_set(order, tensors)
        if satisfied in seen:
            continue
        seen.append(satisfied)
        strategies.append(
            AllocationStrategy(
                strategy_id=len(strategies), label=label, satisfied=satisfied
            )
        )
        if len(strategies) >= max_strategies:
            break
    if not strategies:
        strategies.append(
            AllocationStrategy(strategy_id=0, label="default", satisfied=frozenset())
        )
    return strategies


def build_arena_plan(graph: Graph, strategy: AllocationStrategy) -> AllocationPlan:
    """A concrete arena placement honoring the strategy's row-stacked
    requirements (packed 'cols'/'block' layouts are tracked abstractly
    through the satisfied set; arena offsets model the memory footprint)."""
    groups: list[ContiguityGroup] = []
    placed: set[int] = set()
    for req in sorted(strategy.satisfied, key=lambda r: r.label):
        # a tensor may appear in several members of one requirement (the
        # same weight feeding two fused GEMMs); it needs one placement
        flat = tuple(dict.fromkeys(t for member in req.tensors for t in member))
        if len(flat) < 2 or placed & set(flat):
            continue
        groups.append(ContiguityGroup(node_ids=flat, label=req.label))
        placed.update(flat)
    return AllocationPlan(graph, groups=groups, label=strategy.label)
