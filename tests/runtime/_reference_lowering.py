"""Lowering and plan building as they stood before the per-graph memos,
kept verbatim as test oracles; nothing outside the tests and the
front-end microbench imports them.

* ``reference_lower`` emits the dispatch-item list in one pass per plan,
  allocating events from an :class:`EventNamespace` as it goes, as
  lowering did before compiled schedules.
* :class:`ReferenceDispatcher` finds each unit's producers by walking the
  graph recursively for every plan, with no producer closure, and orders
  units with a Kahn heap over the whole plan; ``reference_compile``
  derives a compiled schedule's indices from them.
* ``reference_kernel_costs`` costs every kernel of a table, unmemoized.
* ``reference_build_units`` and ``reference_units_for_choice`` are the
  enumerator's emission with a fresh kernel per launch, uncached
  elementwise chains (``reference_elementwise_chains``, one scan of the
  graph per set) and, for ``kernel:*`` variables, a linear scan of
  the singleton members; ``reference_native_plan``,
  ``reference_xla_plan`` and ``reference_cudnn_plan`` build the baselines
  the same way.
"""

from __future__ import annotations

import heapq
import itertools

from repro.baselines.cudnn import CUDNN_EFFICIENCY, detect_lstm_steps
from repro.baselines.xla import host_embedding_cost_us
from repro.core.adaptive import AdaptiveVariable
from repro.core.allocation import AllocationStrategy
from repro.core.enumerator import Enumerator
from repro.core.fusion import FusionMember, provenance
from repro.gpu.device import GPUSpec
from repro.gpu.events import EventId, EventNamespace
from repro.gpu.kernels import (
    CompoundLaunch,
    CopyLaunch,
    ElementwiseLaunch,
    GemmLaunch,
    HostTransfer,
    Kernel,
)
from repro.gpu.libraries import DEFAULT_LIBRARY
from repro.gpu.streams import DispatchItem, HostComputeItem, HostSyncItem, LaunchItem
from repro.ir import ops
from repro.ir.graph import Graph
from repro.runtime.dispatcher import CompiledSchedule, Dispatcher, LoweredSchedule
from repro.runtime.lowering import kernel_for_node
from repro.runtime.plan import ExecutionPlan, Unit


def reference_lower(dispatcher: Dispatcher, plan: ExecutionPlan) -> LoweredSchedule:
    """Lower a plan to dispatch items."""
    plan.validate_covering()
    dispatcher = ReferenceDispatcher(dispatcher.graph)
    deps = dispatcher.unit_dependencies(plan)
    order = dispatcher._order_units(plan, deps)

    namespace = EventNamespace()
    items: list[DispatchItem] = []
    unit_record_index: dict[int, int] = {}
    unit_stream: dict[int, int] = {}
    record_units: list[int] = []
    item_units: dict[int, int] = {}
    record_counter = 0

    # which units need a completion event: any unit consumed from a
    # different stream (cross-stream dependency -> wait-event), or any
    # unit feeding host-side work (the dispatch thread must block on it).
    # Only units that launch a kernel can record one -- a host-only
    # producer is ordered by the dispatch thread itself (HostComputeItem
    # stalls dispatch), so an event for it would never be recorded and
    # every waiter would deadlock.
    consumers_cross_stream: set[int] = set()
    host_units = {u.unit_id for u in plan.units if u.host_us > 0.0}
    kernel_units = {u.unit_id for u in plan.units if u.kernel is not None}
    for uid, dep_ids in deps.items():
        for dep in dep_ids:
            if dep not in kernel_units:
                continue
            if plan.stream(dep) != plan.stream(uid) or uid in host_units:
                consumers_cross_stream.add(dep)

    completion_events: dict[int, EventId] = {
        uid: namespace.new_event(f"u{uid}") for uid in consumers_cross_stream
    }
    barrier_pending = set(plan.barriers_after)
    issued: set[int] = set()

    for unit in order:
        uid = unit.unit_id
        stream = plan.stream(uid)
        unit_stream[uid] = stream

        waits: list[EventId] = []
        for dep in sorted(deps[uid]):
            # kernel-less deps have no event; the dispatch thread
            # serializes them (HostComputeItem stalls dispatch)
            if plan.stream(dep) != stream and dep in completion_events:
                waits.append(completion_events[dep])

        if unit.host_us > 0.0:
            # host work stalls dispatch; any device deps must be complete
            for dep in sorted(deps[uid]):
                if dep in completion_events:
                    items.append(HostSyncItem(completion_events[dep]))
            item_units[len(items)] = uid
            items.append(HostComputeItem(unit.host_us, label=unit.label or "host"))

        if unit.kernel is not None:
            for copy_kernel in unit.pre_copies:
                item_units[len(items)] = uid
                items.append(
                    LaunchItem(copy_kernel, stream, waits=tuple(waits))
                )
                waits = []  # same-stream FIFO carries the dependency on
            record = completion_events.get(uid)
            wants_profile = plan.profile and (
                plan.profile_unit_ids is None or uid in plan.profile_unit_ids
            )
            is_profiling = wants_profile
            if record is None and wants_profile:
                record = namespace.new_event(f"p{uid}")
            item_units[len(items)] = uid
            items.append(
                LaunchItem(
                    unit.kernel, stream, waits=tuple(waits), record=record,
                    record_is_profiling=is_profiling,
                )
            )
            unit_record_index[uid] = record_counter + len(unit.pre_copies)
            record_counter += 1 + len(unit.pre_copies)
            record_units.extend([uid] * (1 + len(unit.pre_copies)))

        issued.add(uid)
        if uid in barrier_pending:
            items.append(HostSyncItem(None))
            barrier_pending.discard(uid)

    items.append(HostSyncItem(None))
    return LoweredSchedule(
        items=items,
        unit_record_index=unit_record_index,
        unit_stream=unit_stream,
        plan=plan,
        graph=dispatcher.graph,
        record_units=record_units,
        item_units=item_units,
    )


class ReferenceDispatcher(Dispatcher):
    """A dispatcher whose dependency analysis walks the graph per plan."""

    def unit_dependencies(self, plan: ExecutionPlan) -> dict[int, set[int]]:
        """unit id -> set of unit ids it consumes tensors from.

        Nodes not covered by any unit (reshapes, fills) are transparent:
        dependencies flow through them to their producers.
        """
        node_unit: dict[int, int] = {}
        for unit in plan.units:
            for nid in unit.node_ids:
                node_unit[nid] = unit.unit_id

        producers: dict[int, set[int]] = {}
        deps: dict[int, set[int]] = {}
        for unit in plan.units:
            found: set[int] = set()
            for nid in unit.node_ids:
                for inp in self.graph.node(nid).input_ids:
                    for producer in self._producing_units(inp, node_unit, producers):
                        if producer != unit.unit_id:
                            found.add(producer)
            deps[unit.unit_id] = found
        return deps

    def _producing_units(
        self, node_id: int, node_unit: dict[int, int], producers: dict[int, set[int]]
    ) -> set[int]:
        """Units whose output reaches ``node_id`` through uncovered nodes;
        ``producers`` memoizes the answer per node for one plan."""
        if node_id in producers:
            return producers[node_id]
        node = self.graph.node(node_id)
        if node_id in node_unit:
            result = {node_unit[node_id]}
        elif node.is_leaf:
            result = set()
        else:
            result = set()
            for inp in node.input_ids:
                result |= self._producing_units(inp, node_unit, producers)
        producers[node_id] = result
        return result

    def _order_units(self, plan: ExecutionPlan, deps: dict[int, set[int]]) -> list[Unit]:
        """Dispatch order: the plan's explicit order, topologically checked,
        or a deterministic topological order (Kahn, ties by smallest covered
        node id -- i.e. data-flow order, section 2.2)."""
        by_id = {u.unit_id: u for u in plan.units}
        if plan.dispatch_order is not None:
            order = [by_id[uid] for uid in plan.dispatch_order]
            if len(order) != len(plan.units):
                raise ValueError("dispatch_order must cover every unit exactly once")
            seen: set[int] = set()
            for unit in order:
                missing = deps[unit.unit_id] - seen
                if missing:
                    raise ValueError(
                        f"dispatch_order issues unit {unit.unit_id} before deps {missing}"
                    )
                seen.add(unit.unit_id)
            return order
        return reference_topological_units(plan.units, deps)


def reference_topological_units(units: list[Unit], deps: dict[int, set[int]]) -> list[Unit]:
    """Deterministic Kahn toposort of units; ties broken by smallest
    covered node id so the order tracks data-flow order."""
    by_id = {u.unit_id: u for u in units}
    indegree = {u.unit_id: len(deps.get(u.unit_id, ())) for u in units}
    dependents: dict[int, list[int]] = {}
    for uid, parent_ids in deps.items():
        for parent in parent_ids:
            dependents.setdefault(parent, []).append(uid)

    heap = [
        (min(by_id[uid].node_ids), uid) for uid, deg in indegree.items() if deg == 0
    ]
    heapq.heapify(heap)
    order: list[Unit] = []
    while heap:
        _, uid = heapq.heappop(heap)
        order.append(by_id[uid])
        for child in dependents.get(uid, ()):
            indegree[child] -= 1
            if indegree[child] == 0:
                heapq.heappush(heap, (min(by_id[child].node_ids), child))
    if len(order) != len(units):
        raise ValueError("cycle detected among schedule units")
    return order


def reference_compile(graph: Graph, plan: ExecutionPlan) -> tuple[dict, CompiledSchedule]:
    """A plan's dependency sets and its compiled schedule, derived from
    :class:`ReferenceDispatcher`'s walk and Kahn heap."""
    dispatcher = ReferenceDispatcher(graph)
    deps = dispatcher.unit_dependencies(plan)
    order = [u.unit_id for u in dispatcher._order_units(plan, deps)]
    return deps, CompiledSchedule.from_dependencies(plan, deps, order)


def reference_elementwise_chains(
    graph: Graph, node_ids: set[int] | None = None
) -> list[tuple[int, ...]]:
    """Greedy chain detection for elementwise JIT fusion.

    A node joins its producer's chain when the producer is elementwise,
    feeds only this node, produces the same element count, and belongs to
    the same pass (forward/backward) -- the conservative conditions under
    which a pointwise JIT compiler fuses without materialising.
    """
    fusable = {ops.KIND_ELEMENTWISE, ops.KIND_REDUCTION}
    eligible = {
        n.node_id
        for n in graph.nodes
        if not n.is_leaf and n.kind in fusable
        and (node_ids is None or n.node_id in node_ids)
    }
    chain_of: dict[int, list[int]] = {}
    chains: list[list[int]] = []
    for node in graph.nodes:
        if node.node_id not in eligible:
            continue
        merged = None
        for inp in node.input_ids:
            if (
                inp in chain_of
                and len(graph.consumers(inp)) == 1
                and graph.node(inp).spec.num_elements == node.spec.num_elements
                and graph.node(inp).pass_tag == node.pass_tag
            ):
                merged = chain_of[inp]
                break
        if merged is None:
            merged = []
            chains.append(merged)
        merged.append(node.node_id)
        chain_of[node.node_id] = merged
    return [tuple(chain) for chain in chains if chain]


def reference_kernel_costs(kernels: list[Kernel], device: GPUSpec) -> tuple[list, list, list]:
    """Base-clock duration, SM cap and kind of every kernel."""
    return (
        [kernel.duration_us(device) for kernel in kernels],
        [kernel.parallelism(device) for kernel in kernels],
        [kernel.kind for kernel in kernels],
    )


def reference_fused_elementwise_kernel(graph: Graph, node_ids: tuple[int, ...]) -> ElementwiseLaunch:
    """One launch computing a chain of elementwise ops (JIT fusion, 5.3)."""
    nodes = [graph.node(nid) for nid in node_ids]
    out = nodes[-1]
    elems = out.spec.num_elements
    total_flops = 0
    for node in nodes:
        in_specs = [graph.node(i).spec for i in node.input_ids]
        total_flops += node.op.flops(in_specs, node.spec)  # type: ignore[union-attr]
    # fused chain streams external inputs once and writes one output
    external_inputs = {
        inp
        for node in nodes
        for inp in node.input_ids
        if inp not in set(node_ids)
    }
    traffic = out.spec.size_bytes + sum(graph.node(i).spec.size_bytes for i in external_inputs)
    return ElementwiseLaunch(
        num_elements=elems,
        fused_ops=len(nodes),
        flops_per_element=total_flops / (elems * len(nodes)),
        bytes_per_element=traffic / (elems * len(nodes)),
        node_ids=tuple(node_ids),
        label="fused_" + nodes[-1].op.name,  # type: ignore[union-attr]
    )


def reference_build_native_units(
    graph: Graph,
    gemm_library: str = DEFAULT_LIBRARY,
    fuse_elementwise: bool = False,
) -> list[Unit]:
    """Per-node units (the native execution model), with optional
    elementwise chain fusion.  GEMMs stay one unit per node here; fused
    GEMM units are built by the enumerator."""
    units: list[Unit] = []
    counter = itertools.count()
    covered: set[int] = set()

    if fuse_elementwise:
        for chain in reference_elementwise_chains(graph):
            if len(chain) < 2:
                continue
            kernel = reference_fused_elementwise_kernel(graph, chain)
            units.append(Unit(next(counter), kernel, chain, label=kernel.label))
            covered.update(chain)

    for node in graph.nodes:
        if node.node_id in covered:
            continue
        kernel = kernel_for_node(graph, node, library=gemm_library)
        if kernel is None:
            continue
        units.append(Unit(next(counter), kernel, (node.node_id,), label=kernel.name))
    return units


def reference_native_plan(graph: Graph, fuse_elementwise: bool = False) -> ExecutionPlan:
    units = reference_build_native_units(
        graph, gemm_library=DEFAULT_LIBRARY, fuse_elementwise=fuse_elementwise
    )
    return ExecutionPlan(units=units, profile=False, label="native")


def reference_xla_plan(graph: Graph, device: GPUSpec) -> ExecutionPlan:
    """Statically compiled plan: fused elementwise clusters, stock GEMMs,
    and the host round-trip for every embedding op."""
    units: list[Unit] = []
    counter = itertools.count()
    covered: set[int] = set()

    # embeddings: lowered through the host
    for node in graph.nodes:
        if node.kind != ops.KIND_EMBEDDING:
            continue
        in_specs = [graph.node(i).spec for i in node.input_ids]
        if isinstance(node.op, ops.Embedding):
            down_bytes = in_specs[1].size_bytes  # indices to host
        else:  # EmbeddingGrad: gradient rows to host
            down_bytes = in_specs[1].size_bytes
        up_bytes = node.spec.size_bytes
        host_us = host_embedding_cost_us(graph, node.node_id, device)
        # one unit: d2h copy, then host gather stalls dispatch, then h2d
        units.append(
            Unit(
                next(counter),
                HostTransfer(up_bytes, direction="h2d", node_ids=(node.node_id,)),
                (node.node_id,),
                label=f"xla_host_{node.op.name}",
                pre_copies=(HostTransfer(down_bytes, direction="d2h"),),
                host_us=host_us + 2 * device.pcie_latency_us,
            )
        )
        covered.add(node.node_id)

    # aggressive static elementwise fusion
    remaining = {n.node_id for n in graph.nodes if not n.is_leaf} - covered
    for chain in reference_elementwise_chains(graph, remaining):
        if len(chain) < 2:
            continue
        kernel = reference_fused_elementwise_kernel(graph, chain)
        units.append(Unit(next(counter), kernel, chain, label="xla_" + kernel.label))
        covered.update(chain)

    # everything else: stock per-node kernels, single stream
    for node in graph.nodes:
        if node.is_leaf or node.node_id in covered:
            continue
        kernel = kernel_for_node(graph, node)
        if kernel is None:
            continue
        units.append(Unit(next(counter), kernel, (node.node_id,), label=kernel.name))

    return ExecutionPlan(units=units, profile=False, label="xla")


def reference_cudnn_plan(graph: Graph) -> ExecutionPlan:
    """Native execution with covered steps replaced by compound kernels."""
    coverage = detect_lstm_steps(graph)
    units: list[Unit] = []
    counter = itertools.count()

    for scope_key, node_ids in sorted(coverage.covered_scopes.items()):
        flops = 0
        rows = None
        for nid in node_ids:
            node = graph.node(nid)
            in_specs = [graph.node(i).spec for i in node.input_ids]
            flops += node.op.flops(in_specs, node.spec)  # type: ignore[union-attr]
            if node.kind == "gemm":
                m = node.op.gemm_dims(in_specs)[0]  # type: ignore[union-attr]
                rows = m if rows is None else min(rows, m)  # batch dim
        kernel = CompoundLaunch(
            total_flops=flops, efficiency=CUDNN_EFFICIENCY, rows=rows or 64,
            label=f"cudnn@{scope_key}", node_ids=node_ids,
        )
        units.append(Unit(next(counter), kernel, node_ids, label=kernel.label))

    for node in graph.nodes:
        if node.is_leaf or node.node_id in coverage.covered_nodes:
            continue
        kernel = kernel_for_node(graph, node)
        if kernel is None:
            continue
        units.append(Unit(next(counter), kernel, (node.node_id,), label=kernel.name))

    return ExecutionPlan(units=units, profile=False, label="cudnn")


class ReferenceUnitBuilder:
    """Shared unit-emission engine.

    :meth:`Enumerator.build_plan` drives it over the whole graph;
    :meth:`Enumerator.units_for_choice` drives it over a single adaptive
    variable's emission so the fast-path pre-ranker can score a choice in
    isolation.  One code path means the scored units are the measured
    units by construction.
    """

    def __init__(self, enum: Enumerator, strategy: AllocationStrategy, library_for):
        self.enum = enum
        self.strategy = strategy
        #: profile-key -> GEMM library (the ``kernel:*`` assignment view)
        self.library_for = library_for
        self.units: list[Unit] = []
        self.var_units: dict[str, list[int]] = {}
        self.covered: set[int] = set()
        self.counter = itertools.count()

    def add_unit(self, unit: Unit, var_name: str | None) -> None:
        self.units.append(unit)
        self.covered.update(unit.node_ids)
        if var_name is not None:
            self.var_units.setdefault(var_name, []).append(unit.unit_id)

    def kernel_var_name(self, key: tuple) -> str | None:
        name = f"kernel:{key}"
        return name if len(self.enum._libraries) > 1 else None

    def weight_pack_prologue(self, var_name: str | None, tensors: tuple[int, ...], tag: str) -> None:
        """Weights are constant within a mini-batch, so an unsatisfied
        weight layout is gathered once up front (section 4.5.2's
        alternative to restriction, priced by measurement).  The pack is
        charged 2x traffic each way: the optimizer updates the canonical
        layout every mini-batch, so the pack is gathered and the
        gradient contribution scattered back."""
        graph = self.enum.graph
        total = 4 * sum(graph.node(t).spec.size_bytes for t in set(tensors))
        kernel = CopyLaunch(total, label=f"pack_{tag}")
        self.add_unit(
            Unit(next(self.counter), kernel, tuple(dict.fromkeys(tensors)),
                 label=f"pack_{tag}"),
            var_name,
        )

    def emit_member(
        self,
        member: FusionMember,
        force_fuse: bool | None = None,
        var_override: str | None = None,
        lib_override: str | None = None,
    ) -> None:
        """Emit one member outside group fusion.

        ``var_override`` attributes every emitted unit (including
        gathers) to a specific adaptive variable so its measurement
        covers exactly what its choice caused.
        """
        graph = self.enum.graph
        supported = (
            self.strategy.supports(member.ladder_requirement())
            and not self.enum.features.tf_mode
        )
        fuse = member.is_ladder and (supported if force_fuse is None else force_fuse)
        if fuse:
            key = (provenance(member.scope), member.pass_tag,
                   member.m, member.k_total, member.n)
            lib = lib_override or self.library_for(key)
            kernel = GemmLaunch(member.m, member.k_total, member.n, lib,
                                node_ids=member.node_ids)
            pre = []
            if member.a_gather_bytes:
                pre.append(CopyLaunch(member.a_gather_bytes, label="gather_a"))
            var_name = var_override or (self.kernel_var_name(key) if supported else None)
            if not supported:
                if self.enum._tensors_are_params(member.b_nodes):
                    self.weight_pack_prologue(var_name, member.b_nodes, "ladder")
                else:
                    pre.append(CopyLaunch(
                        2 * sum(graph.node(b).spec.size_bytes for b in member.b_nodes),
                        label="gather_b",
                    ))
            self.add_unit(
                Unit(next(self.counter), kernel, member.node_ids,
                     label=f"ladder@{member.scope}", pre_copies=tuple(pre)),
                var_name,
            )
        else:
            for mm_id in member.mm_ids:
                node = graph.node(mm_id)
                m, k, n = _node_dims(graph, mm_id)
                key = (provenance(node.scope), node.pass_tag, m, k, n)
                kernel = GemmLaunch(m, k, n, lib_override or self.library_for(key),
                                    node_ids=(mm_id,))
                self.add_unit(
                    Unit(next(self.counter), kernel, (mm_id,), label=kernel.name),
                    var_override or self.kernel_var_name(key),
                )
            # absorbed adds of an unfused ladder run as elementwise ops;
            # leave them uncovered so the elementwise sweep picks them up

    def emit_group(self, group, chunk: int, lib: str, var_name: str) -> None:
        """Emit one fusion group at a chunk granularity > 1."""
        graph = self.enum.graph
        members = group.members
        supported = self.strategy.supports(group.requirement)
        if self.enum.features.tf_mode:
            supported = False  # contiguity never free in the TF runtime
        gather_tensors: list[int] = []
        if not supported and group.axis == "n":
            flat = [b for mb in members for b in mb.b_nodes]
            if self.enum._tensors_are_params(flat):
                self.weight_pack_prologue(var_name, tuple(flat), "group")
                gather_tensors = []  # packed once, launches copy-free
            else:
                gather_tensors = flat  # gathered per launch below
        for start in range(0, len(members), chunk):
            chunk_members = members[start: start + chunk]
            if len(chunk_members) == 1:
                self.emit_member(chunk_members[0], var_override=var_name,
                                 lib_override=lib)
                continue
            m, k, n = group.launch_dims(chunk_members)
            node_ids = tuple(nid for mb in chunk_members for nid in mb.node_ids)
            lead = chunk_members[0]
            pre = []
            if group.axis == "n" and lead.a_gather_bytes:
                pre.append(CopyLaunch(lead.a_gather_bytes, label="gather_a"))
            if not supported:
                if group.axis == "m":
                    a_bytes = 2 * sum(
                        graph.node(mb.a_signature[0][0]).spec.size_bytes
                        for mb in chunk_members
                    )
                    pre.append(CopyLaunch(a_bytes, label="gather_a"))
                elif gather_tensors:
                    b_bytes = 2 * sum(
                        graph.node(b).spec.size_bytes
                        for mb in chunk_members
                        for b in mb.b_nodes
                    )
                    pre.append(CopyLaunch(b_bytes, label="gather_b"))
            kernel = GemmLaunch(m, k, n, lib, node_ids=node_ids)
            self.add_unit(
                Unit(next(self.counter), kernel, node_ids,
                     label=f"fused@{group.group_id}", pre_copies=tuple(pre)),
                var_name,
            )


def reference_member_shape_keys(
    enum: Enumerator, member: FusionMember, strategy: AllocationStrategy
) -> list[tuple]:
    """Profile-key identities of the GEMM launches a member lowers to
    when executed outside any group (fused ladder, or raw GEMMs)."""
    if member.is_ladder and strategy.supports(member.ladder_requirement()):
        return [(provenance(member.scope), member.pass_tag, member.m, member.k_total, member.n)]
    keys = []
    for mm_id in member.mm_ids:
        node = enum.graph.node(mm_id)
        m, k, n = _node_dims(enum.graph, mm_id)
        keys.append((provenance(node.scope), node.pass_tag, m, k, n))
    return keys


def reference_build_units(
    enum: Enumerator, strategy: AllocationStrategy, assignment: dict[str, object]
) -> ReferenceUnitBuilder:
    """Emit the assignment-determined unit list (no streams/profile)."""

    def library_for(key: tuple) -> str:
        value = assignment.get(f"kernel:{key}", DEFAULT_LIBRARY)
        return value  # type: ignore[return-value]

    builder = ReferenceUnitBuilder(enum, strategy, library_for)

    # 1. fusion groups
    if enum.features.fusion:
        for group in enum.analysis.groups:
            var_name = f"fusion:{group.group_id}"
            chunk, lib = assignment.get(var_name, (1, DEFAULT_LIBRARY))
            if chunk == 1:
                # members execute individually (for unsupported groups
                # this is the paper's "restrict the adaptation"
                # fallback); the group variable owns the member units so
                # the measurement can compare chunk=1 against real fusion
                for member in group.members:
                    builder.emit_member(member, var_override=var_name,
                                        lib_override=lib)
            else:
                builder.emit_group(group, chunk, lib, var_name)

    # 2. singleton members (plain GEMMs and lone ladders)
    for member in enum.analysis.singletons:
        if member.is_ladder and not strategy.supports(member.ladder_requirement()):
            lvar = f"ladder:{member.mm_ids[0]}"
            choice = assignment.get(lvar, (False, DEFAULT_LIBRARY))
            fuse, lib = bool(choice[0]), choice[1]
            builder.emit_member(member, force_fuse=fuse, var_override=lvar,
                                lib_override=lib if fuse else None)
        else:
            builder.emit_member(member)

    # 2b. with fusion analysis disabled, GEMMs were never members
    if not enum.features.fusion:
        for node in enum.graph.gemm_nodes():
            if node.node_id in builder.covered:
                continue
            m, k, n = _node_dims(enum.graph, node.node_id)
            key = (provenance(node.scope), node.pass_tag, m, k, n)
            kernel = GemmLaunch(m, k, n, library_for(key), node_ids=(node.node_id,))
            builder.add_unit(
                Unit(next(builder.counter), kernel, (node.node_id,),
                     label=kernel.name),
                builder.kernel_var_name(key),
            )

    # 3. elementwise / reduction chains over everything not yet covered
    remaining = {
        n.node_id for n in enum.graph.nodes
        if not n.is_leaf and n.node_id not in builder.covered
    }
    if enum.features.elementwise_fusion:
        for chain in reference_elementwise_chains(enum.graph, remaining):
            if len(chain) < 2:
                continue
            kernel = reference_fused_elementwise_kernel(enum.graph, chain)
            builder.add_unit(
                Unit(next(builder.counter), kernel, chain, label=kernel.label),
                None,
            )
            remaining -= set(chain)

    for node in enum.graph.nodes:
        if node.node_id not in remaining:
            continue
        kernel = kernel_for_node(enum.graph, node)
        if kernel is None:
            continue
        builder.add_unit(
            Unit(next(builder.counter), kernel, (node.node_id,),
                 label=kernel.name),
            None,
        )
    return builder


def reference_units_for_choice(
    enum: Enumerator, strategy: AllocationStrategy, var: AdaptiveVariable, choice
) -> list[Unit]:
    """The units one variable's choice emits, in isolation.

    Drives the same emission engine as :meth:`build_plan` over a
    single variable, so the returned units are exactly the units the
    variable's ``"units"`` measurement would cover in a full plan --
    the property the fast-path pre-ranker's exactness rests on.
    """
    builder = ReferenceUnitBuilder(enum, strategy, lambda key: DEFAULT_LIBRARY)
    name = var.name
    if name.startswith("fusion:"):
        group = var.payload
        chunk, lib = choice
        if chunk == 1:
            for member in group.members:
                builder.emit_member(member, var_override=name, lib_override=lib)
        else:
            builder.emit_group(group, chunk, lib, name)
    elif name.startswith("ladder:"):
        member = var.payload
        fuse, lib = bool(choice[0]), choice[1]
        builder.emit_member(member, force_fuse=fuse, var_override=name,
                            lib_override=lib if fuse else None)
    elif name.startswith("kernel:"):
        # a kernel variable owns every singleton-emitted launch of its
        # shape key; replay the singleton sweep with the candidate
        # library bound to this key only
        builder = ReferenceUnitBuilder(
            enum, strategy,
            lambda key: choice if f"kernel:{key}" == name else DEFAULT_LIBRARY,
        )
        for member in enum.analysis.singletons:
            if member.is_ladder and not strategy.supports(member.ladder_requirement()):
                continue  # owned by a ladder variable, not this one
            if all(
                f"kernel:{key}" != name
                for key in reference_member_shape_keys(enum, member, strategy)
            ):
                continue  # emits nothing owned by this variable
            builder.emit_member(member)
        if not enum.features.fusion:
            for node in enum.graph.gemm_nodes():
                if node.node_id in builder.covered:
                    continue
                m, k, n = _node_dims(enum.graph, node.node_id)
                key = (provenance(node.scope), node.pass_tag, m, k, n)
                lib = choice if f"kernel:{key}" == name else DEFAULT_LIBRARY
                kernel = GemmLaunch(m, k, n, lib, node_ids=(node.node_id,))
                builder.add_unit(
                    Unit(next(builder.counter), kernel, (node.node_id,),
                         label=kernel.name),
                    builder.kernel_var_name(key),
                )
    else:
        raise ValueError(f"no unit emission for variable {name!r}")
    owned = set(builder.var_units.get(name, ()))
    return [u for u in builder.units if u.unit_id in owned]


def _node_dims(graph: Graph, node_id: int) -> tuple[int, int, int]:
    node = graph.node(node_id)
    op = node.op
    return op.gemm_dims([graph.node(i).spec for i in node.input_ids])  # type: ignore[union-attr]
