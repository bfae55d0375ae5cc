"""Section 4.5.2's static analysis as it stood before the shared-tensor
index, kept verbatim as test oracles; nothing outside the tests and the
front-end microbench imports them.

* ``reference_resolve_static_conflicts`` compares every pair of
  layout-requirement owners, rebuilding both tensor sets for each pair.
* ``reference_greedy_independent_set`` tests each requirement against
  every one already chosen with ``Requirement.conflicts_with``;
  ``reference_enumerate_strategies`` is ``enumerate_strategies`` built on
  it.
"""

from __future__ import annotations

from repro.core.allocation import AllocationStrategy
from repro.core.fusion import (
    FusionAnalysis,
    FusionGroup,
    FusionMember,
    Requirement,
    _shrink_ladder,
)


def reference_resolve_static_conflicts(analysis: FusionAnalysis) -> FusionAnalysis:
    owners: list[tuple[Requirement, object]] = []
    for group in analysis.groups:
        if group.requirement is not None:
            owners.append((group.requirement, group))
    for member in analysis.singletons:
        req = member.ladder_requirement()
        if req is not None:
            owners.append((req, member))

    to_drop: dict[int, set[int]] = {}  # id(owner) -> offending tensors
    for i in range(len(owners)):
        for j in range(i + 1, len(owners)):
            req_a, owner_a = owners[i]
            req_b, owner_b = owners[j]
            if req_a == req_b:
                continue
            overlap = req_a.all_tensors() & req_b.all_tensors()
            if len(overlap) != 1:
                continue
            tensor = next(iter(overlap))
            to_drop.setdefault(id(owner_a), set()).add(tensor)
            to_drop.setdefault(id(owner_b), set()).add(tensor)

    if not to_drop:
        return analysis

    new_groups: list[FusionGroup] = []
    new_singletons: list[FusionMember] = list()
    for group in analysis.groups:
        offenders = to_drop.get(id(group), set())
        if not offenders:
            new_groups.append(group)
            continue
        kept_members, freed = [], []
        for member in group.members:
            if set(member.b_nodes) & offenders or (
                group.axis == "m" and member.a_signature[0][0] in offenders
            ):
                freed.append(member)
            else:
                kept_members.append(member)
        if len(kept_members) >= 2:
            requirement = Requirement(
                tensors=tuple(mb.b_nodes for mb in kept_members)
                if group.axis == "n"
                else tuple((mb.a_signature[0][0],) for mb in kept_members),
                tag=group.requirement.tag,  # type: ignore[union-attr]
                label=group.requirement.label + "~resolved",  # type: ignore[union-attr]
            )
            new_groups.append(
                FusionGroup(
                    group_id=group.group_id,
                    members=kept_members,
                    axis=group.axis,
                    requirement=requirement,
                    pass_tag=group.pass_tag,
                    scope=group.scope,
                )
            )
            new_singletons.extend(freed)
        else:
            new_singletons.extend(group.members)

    for member in analysis.singletons:
        offenders = to_drop.get(id(member), set())
        if not offenders or not member.is_ladder:
            new_singletons.append(member)
            continue
        current = [member]
        for tensor in offenders:
            result = []
            for mb in current:
                if mb.is_ladder:
                    result.extend(_shrink_ladder(mb, tensor))
                else:
                    result.append(mb)
            current = result
        new_singletons.extend(current)

    ladder_reqs = [
        req for mb in new_singletons if (req := mb.ladder_requirement()) is not None
    ]
    return FusionAnalysis(
        groups=new_groups, singletons=new_singletons, ladder_requirements=ladder_reqs
    )


def reference_greedy_independent_set(
    requirements: list[Requirement], order: list[Requirement]
) -> frozenset[Requirement]:
    chosen: list[Requirement] = []
    for req in order:
        if all(not req.conflicts_with(c) for c in chosen):
            chosen.append(req)
    return frozenset(chosen)


def reference_enumerate_strategies(
    analysis: FusionAnalysis,
    group_flops: dict[str, float] | None = None,
    max_strategies: int = 3,
) -> list[AllocationStrategy]:
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
        satisfied = reference_greedy_independent_set(requirements, order)
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
