"""Static fusion analysis: GEMM fusion candidates and their layout needs.

Implements section 4.4.1's enumeration patterns:

* **fusion ladders** -- GEMM-accumulator chains ``mm(a1,b1) + mm(a2,b2) +
  ...`` collapse into one GEMM ``[a1 a2 ...] @ [b1; b2; ...]`` (the LSTM
  gate pre-activation ``x@W + h@U`` is the canonical instance);
* **common-argument groups** -- GEMMs sharing one operand and mutually
  independent fuse along the free dimension (``mm(%1,%5), mm(%1,%6)`` ->
  ``%1 @ [%5 %6]``), including 2-D sets where whole ladders share their
  A-side (the 4-gate LSTM block GEMM);
* **cross-step batching** -- GEMMs sharing their B-side across timesteps
  (``x_t @ W`` for all t) fuse along M when the steps are independent.

Each candidate carries the *layout requirement* its copy-free execution
imposes on the memory allocator (section 3.2 / Figure 1): ``rows`` =
tensors stacked vertically, ``cols`` = packed horizontally, ``block`` =
2-D gate-major packing.  Conflicting requirements are what the allocation
fork of section 4.5.2 arbitrates.

The enumerator identifies *maximal* groups; the custom-wirer picks the
actual fusion granularity by chunking (section 4.4.1).
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from ..ir import ops
from ..ir.graph import Graph, Node

#: static knowledge (section 4.8): fused GEMMs beyond this free-dimension
#: width hit diminishing returns and are not enumerated
MAX_FUSED_DIM = 8192

_STEP_RE = re.compile(r"/step\d+")


def provenance(scope: str) -> str:
    """Model-code provenance with the unroll step stripped: GEMMs from the
    same code line in the step loop share provenance (section 4.4.1)."""
    return _STEP_RE.sub("", scope)


@dataclass(frozen=True)
class Requirement:
    """A memory-layout constraint a fusion group needs to be copy-free.

    ``tensors`` is a tuple of per-member tuples (one inner tuple per fused
    member, in member order).  Two requirements conflict when they touch a
    shared tensor but are not the same requirement.
    """

    tensors: tuple[tuple[int, ...], ...]
    tag: str
    label: str = field(default="", compare=False)

    def all_tensors(self) -> frozenset[int]:
        return frozenset(t for member in self.tensors for t in member)

    def conflicts_with(self, other: "Requirement") -> bool:
        if self == other:
            return False
        return bool(self.all_tensors() & other.all_tensors())


@dataclass
class FusionMember:
    """One fusable element: a single GEMM, or a whole ladder.

    Effective dims: the member computes an ``(m, k_total) x (k_total, n)``
    product; ladders contribute ``k_total = sum(k_i)`` and absorb their
    accumulator adds.
    """

    mm_ids: tuple[int, ...]
    absorbed_ids: tuple[int, ...]
    a_signature: tuple  # ((node_id, transpose_flag), ...) of A-side operands
    b_nodes: tuple[int, ...]
    b_transposed: bool
    m: int
    ks: tuple[int, ...]  # per-GEMM reduction dims; a ladder sums them
    n: int
    scope: str
    pass_tag: str

    @property
    def k_total(self) -> int:
        return sum(self.ks)

    @property
    def node_ids(self) -> tuple[int, ...]:
        return self.mm_ids + self.absorbed_ids

    @property
    def is_ladder(self) -> bool:
        return len(self.mm_ids) > 1

    @property
    def a_gather_bytes(self) -> int:
        """A ladder gathers its A-side operands into one (m, k_total)
        buffer before the fused launch (4 bytes/elem, read+write)."""
        if not self.is_ladder:
            return 0
        return 2 * 4 * self.m * self.k_total

    def ladder_requirement(self) -> Requirement | None:
        if not self.is_ladder:
            return None
        tag = "cols" if self.b_transposed else "rows"
        return Requirement(
            tensors=tuple((b,) for b in self.b_nodes),
            tag=tag,
            label=f"ladder@{provenance(self.scope)}/{self.pass_tag}",
        )


@dataclass
class FusionGroup:
    """A maximal fusion candidate: members fused along ``axis``.

    ``axis`` is ``"n"`` for common-A groups (outputs concatenated along the
    free N dimension) and ``"m"`` for common-B cross-step batches.  The
    chunk adaptive variable picks how many consecutive members each launch
    covers.
    """

    group_id: str
    members: list[FusionMember]
    axis: str
    requirement: Requirement | None
    pass_tag: str
    scope: str

    @property
    def size(self) -> int:
        return len(self.members)

    def chunk_choices(self) -> list[int]:
        """1, 2, 4, ... up to the group size, capped by static knowledge."""
        lead = self.members[0]
        per_member = lead.n if self.axis == "n" else lead.m
        cap = max(1, MAX_FUSED_DIM // max(1, per_member))
        choices = [1]
        c = 2
        while c < self.size:
            if c <= cap:
                choices.append(c)
            c *= 2
        if self.size > 1 and self.size <= cap and self.size not in choices:
            choices.append(self.size)
        return choices

    def node_ids(self) -> tuple[int, ...]:
        return tuple(nid for member in self.members for nid in member.node_ids)

    def launch_dims(self, chunk_members: list[FusionMember]) -> tuple[int, int, int]:
        lead = chunk_members[0]
        if self.axis == "n":
            return lead.m, lead.k_total, sum(mb.n for mb in chunk_members)
        return sum(mb.m for mb in chunk_members), lead.k_total, lead.n


# ---------------------------------------------------------------------------
# Ladder detection
# ---------------------------------------------------------------------------


def _gemm_dims(graph: Graph, node: Node) -> tuple[int, int, int]:
    op: ops.MatMul = node.op  # type: ignore[assignment]
    return op.gemm_dims([graph.node(i).spec for i in node.input_ids])


def _single_consumer(graph: Graph, node_id: int) -> bool:
    return len(graph.consumers(node_id)) == 1


def detect_ladders(graph: Graph) -> tuple[list[FusionMember], set[int]]:
    """Find GEMM-accumulator ladders; returns members (ladders only) and
    the set of node ids they absorb.

    A subtree is *pure* when it consists only of single-consumer GEMMs and
    single-consumer adds over pure subtrees.  The deepest pure add with
    >= 2 GEMM leaves becomes one fused member; residual contributions
    (e.g. the bias in ``x@W + h@U + b``) stay behind as ordinary
    elementwise adds consuming the fused output.
    """
    members: list[FusionMember] = []
    taken: set[int] = set()
    purity: dict[int, bool] = {}

    def is_pure(node_id: int) -> bool:
        if node_id in purity:
            return purity[node_id]
        node = graph.node(node_id)
        if node.node_id in taken or not _single_consumer(graph, node_id):
            result = False
        elif isinstance(node.op, ops.MatMul):
            result = True
        elif isinstance(node.op, ops.Add):
            result = all(is_pure(i) for i in node.input_ids)
        else:
            result = False
        purity[node_id] = result
        return result

    def collect(node: Node, mms: list[Node], adds: list[int]) -> None:
        for inp_id in node.input_ids:
            inp = graph.node(inp_id)
            if isinstance(inp.op, ops.MatMul):
                mms.append(inp)
            else:  # pure add
                adds.append(inp_id)
                collect(inp, mms, adds)

    # scan top-down so we find *maximal* pure chains: a pure add whose
    # consumer is not itself a pure add is a chain root
    for node in reversed(graph.nodes):
        if not isinstance(node.op, ops.Add) or node.node_id in taken:
            continue
        if not is_pure(node.node_id):
            continue
        consumer = graph.consumers(node.node_id)[0]
        consumer_node = graph.node(consumer)
        if isinstance(consumer_node.op, ops.Add) and is_pure(consumer):
            continue  # interior of a larger pure chain
        mms: list[Node] = []
        adds: list[int] = [node.node_id]
        collect(node, mms, adds)
        if len(mms) < 2:
            continue
        dims = [_gemm_dims(graph, mm) for mm in mms]
        if len({(m, n) for (m, _k, n) in dims}) != 1:
            continue
        flags = {mm.op.transpose_b for mm in mms}  # type: ignore[union-attr]
        if len(flags) != 1:
            continue
        if len({mm.pass_tag for mm in mms}) != 1:
            continue
        mms_sorted = sorted(mms, key=lambda mm: mm.node_id)
        m, _, n = dims[0]
        member = FusionMember(
            mm_ids=tuple(mm.node_id for mm in mms_sorted),
            absorbed_ids=tuple(sorted(adds)),
            a_signature=tuple(
                (mm.input_ids[0], mm.op.transpose_a) for mm in mms_sorted  # type: ignore[union-attr]
            ),
            b_nodes=tuple(mm.input_ids[1] for mm in mms_sorted),
            b_transposed=flags.pop(),
            m=m,
            ks=tuple(k for (_m, k, _n) in dims),
            n=n,
            scope=mms_sorted[0].scope,
            pass_tag=mms_sorted[0].pass_tag,
        )
        members.append(member)
        taken.update(member.node_ids)
    return members, taken


def _plain_members(graph: Graph, taken: set[int]) -> list[FusionMember]:
    members = []
    for node in graph.gemm_nodes():
        if node.node_id in taken:
            continue
        m, k, n = _gemm_dims(graph, node)
        op: ops.MatMul = node.op  # type: ignore[assignment]
        members.append(
            FusionMember(
                mm_ids=(node.node_id,),
                absorbed_ids=(),
                a_signature=((node.input_ids[0], op.transpose_a),),
                b_nodes=(node.input_ids[1],),
                b_transposed=op.transpose_b,
                m=m,
                ks=(k,),
                n=n,
                scope=node.scope,
                pass_tag=node.pass_tag,
            )
        )
    return members


# ---------------------------------------------------------------------------
# Grouping
# ---------------------------------------------------------------------------


def _members_independent(graph: Graph, members: list[FusionMember]) -> bool:
    """No member may (transitively) consume another member's output.

    External dependence can only enter through a member's GEMM nodes (a
    ladder's absorbed adds consume only its own GEMMs), and only via
    another member's *final* output node.
    """
    outputs = [max(mb.node_ids) for mb in members]
    for i, mb in enumerate(members):
        for j in range(len(members)):
            if i == j:
                continue
            out_j = outputs[j]
            for mm_id in mb.mm_ids:
                if mm_id > out_j and graph.depends_on(mm_id, out_j):
                    return False
    return True


def _common_a_groups(graph: Graph, members: list[FusionMember]) -> list[FusionGroup]:
    """Fuse along N: members sharing their full A-side signature."""
    buckets: dict[tuple, list[FusionMember]] = {}
    for mb in members:
        key = (mb.a_signature, mb.m, mb.b_transposed, mb.pass_tag, provenance(mb.scope))
        buckets.setdefault(key, []).append(mb)
    groups = []
    for key, bucket in buckets.items():
        if len(bucket) < 2:
            continue
        bucket.sort(key=lambda mb: mb.mm_ids[0])
        if not _members_independent(graph, bucket):
            continue
        b_transposed = key[2]
        if any(mb.is_ladder for mb in bucket):
            tag = "block"
        else:
            tag = "rows" if b_transposed else "cols"
        requirement = Requirement(
            tensors=tuple(mb.b_nodes for mb in bucket),
            tag=tag,
            label=f"commonA@{provenance(bucket[0].scope)}/{bucket[0].pass_tag}",
        )
        groups.append(
            FusionGroup(
                group_id=requirement.label + f"#{bucket[0].mm_ids[0]}",
                members=bucket,
                axis="n",
                requirement=requirement,
                pass_tag=bucket[0].pass_tag,
                scope=bucket[0].scope,
            )
        )
    return groups


def _common_b_groups(graph: Graph, members: list[FusionMember]) -> list[FusionGroup]:
    """Fuse along M: plain GEMMs sharing their B-side across steps."""
    buckets: dict[tuple, list[FusionMember]] = {}
    for mb in members:
        if mb.is_ladder:
            continue
        a_node, a_t = mb.a_signature[0]
        key = (mb.b_nodes, mb.b_transposed, a_t, mb.n, mb.pass_tag, provenance(mb.scope))
        buckets.setdefault(key, []).append(mb)
    groups = []
    for key, bucket in buckets.items():
        if len(bucket) < 2:
            continue
        bucket.sort(key=lambda mb: mb.mm_ids[0])
        if not _members_independent(graph, bucket):
            continue
        # A-side activations must sit stacked (rows) to batch along M
        requirement = Requirement(
            tensors=tuple((mb.a_signature[0][0],) for mb in bucket),
            tag="rows",
            label=f"commonB@{provenance(bucket[0].scope)}/{bucket[0].pass_tag}",
        )
        groups.append(
            FusionGroup(
                group_id=requirement.label + f"#{bucket[0].mm_ids[0]}",
                members=bucket,
                axis="m",
                requirement=requirement,
                pass_tag=bucket[0].pass_tag,
                scope=bucket[0].scope,
            )
        )
    return groups


@dataclass
class FusionAnalysis:
    """Everything the static fusion pass found."""

    groups: list[FusionGroup]
    #: members not in any group (standalone GEMMs and lone ladders)
    singletons: list[FusionMember]
    #: requirements of lone ladders (they still constrain allocation)
    ladder_requirements: list[Requirement]


def _plain_of(member: FusionMember, i: int) -> FusionMember:
    """Member ``i`` of a ladder as a standalone single-GEMM member."""
    return FusionMember(
        mm_ids=(member.mm_ids[i],),
        absorbed_ids=(),
        a_signature=(member.a_signature[i],),
        b_nodes=(member.b_nodes[i],),
        b_transposed=member.b_transposed,
        m=member.m,
        ks=(member.ks[i],),
        n=member.n,
        scope=member.scope,
        pass_tag=member.pass_tag,
    )


def _shrink_ladder(member: FusionMember, tensor: int) -> list[FusionMember]:
    """Drop the GEMM whose B-side is ``tensor`` from a ladder.

    Returns the resulting members: the shrunk ladder plus the dropped
    GEMM(s) as plain members.  The chain-root adds released by the drop
    return to ordinary elementwise execution.  A ladder reduced below two
    GEMMs dissolves entirely.
    """
    keep = [i for i, b in enumerate(member.b_nodes) if b != tensor]
    drop = [i for i in range(len(member.b_nodes)) if i not in keep]
    if not drop:
        return [member]
    freed = [_plain_of(member, i) for i in drop]
    if len(keep) < 2:
        return freed + [_plain_of(member, i) for i in keep]
    # un-absorb the top-most adds (the chain roots), one per dropped mm
    absorbed = tuple(sorted(member.absorbed_ids))[:-len(drop)]
    shrunk = FusionMember(
        mm_ids=tuple(member.mm_ids[i] for i in keep),
        absorbed_ids=absorbed,
        a_signature=tuple(member.a_signature[i] for i in keep),
        b_nodes=tuple(member.b_nodes[i] for i in keep),
        b_transposed=member.b_transposed,
        m=member.m,
        ks=tuple(member.ks[i] for i in keep),
        n=member.n,
        scope=member.scope,
        pass_tag=member.pass_tag,
    )
    return [shrunk] + freed


def resolve_static_conflicts(analysis: FusionAnalysis) -> FusionAnalysis:
    """Section 4.5.2's static resolution: when two layout requirements
    conflict through exactly one shared tensor, remove the offending
    member from both sides so both fusions can coexist.

    Non-trivial conflicts (>=2 shared tensors) are left for the allocation
    fork to arbitrate by measurement.
    """
    owners: list[tuple[Requirement, object]] = []
    for group in analysis.groups:
        if group.requirement is not None:
            owners.append((group.requirement, group))
    for member in analysis.singletons:
        req = member.ladder_requirement()
        if req is not None:
            owners.append((req, member))

    # only owners sharing a tensor can conflict: index them by tensor and
    # count each later owner's shared tensors, visiting the pairs in
    # (i, j) order so every offender set fills in the same order (the
    # ladder loop below iterates it)
    holders: dict[int, list[int]] = {}
    for i, (req, _owner) in enumerate(owners):
        for tensor in req.all_tensors():
            holders.setdefault(tensor, []).append(i)
    to_drop: dict[int, set[int]] = {}  # id(owner) -> offending tensors
    for i, (req_a, owner_a) in enumerate(owners):
        shared: dict[int, list[int]] = {}  # j -> tensors shared with i
        for tensor in req_a.all_tensors():
            for j in holders[tensor]:
                if j > i:
                    shared.setdefault(j, []).append(tensor)
        for j in sorted(shared):
            req_b, owner_b = owners[j]
            if len(shared[j]) != 1 or req_a == req_b:
                continue
            tensor = shared[j][0]
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


def analyse_fusion(graph: Graph) -> FusionAnalysis:
    """Run the full static fusion analysis of section 4.4.1."""
    ladders, taken = detect_ladders(graph)
    plains = _plain_members(graph, taken)
    members = ladders + plains

    groups = _common_a_groups(graph, members)
    grouped: set[tuple[int, ...]] = {mb.mm_ids for g in groups for mb in g.members}

    # cross-step M-batching only for members not already fused along N
    remaining = [mb for mb in members if mb.mm_ids not in grouped]
    m_groups = _common_b_groups(graph, remaining)
    for g in m_groups:
        grouped.update(mb.mm_ids for mb in g.members)
    groups.extend(m_groups)

    singletons = [mb for mb in members if mb.mm_ids not in grouped]
    ladder_reqs = [
        req for mb in singletons if (req := mb.ladder_requirement()) is not None
    ]
    return FusionAnalysis(groups=groups, singletons=singletons, ladder_requirements=ladder_reqs)
