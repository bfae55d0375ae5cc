"""The dispatcher: lowers (graph, plan) to a GPU dispatch-item list.

This is the layer Astra interposes on (paper Figure 3): it owns stream
assignment, event insertion for cross-stream dependencies, barrier
placement at super-epoch boundaries, and profiling-event placement.  The
same dispatcher executes native, cuDNN, XLA and Astra plans -- they differ
only in the :class:`~repro.runtime.plan.ExecutionPlan` handed in.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field

from ..gpu.events import EventId, EventNamespace
from ..gpu.streams import (
    DispatchItem,
    HostComputeItem,
    HostSyncItem,
    LaunchItem,
)
from ..ir.graph import Graph
from .plan import ExecutionPlan, Unit


@dataclass
class LoweredSchedule:
    """Dispatch items plus the bookkeeping needed to read measurements back."""

    items: list[DispatchItem]
    #: unit id -> index of its main kernel in the simulator's record list
    unit_record_index: dict[int, int]
    #: unit id -> stream it was dispatched to
    unit_stream: dict[int, int]
    plan: ExecutionPlan
    graph: Graph
    #: unit id of every launched kernel, in record order (pre-copies carry
    #: their owning unit's id); consumed by the Chrome-trace exporter
    record_units: list[int] = field(default_factory=list)
    #: index of every *work* item (LaunchItem / HostComputeItem) -> the unit
    #: that emitted it; consumed by the schedule validator (repro.check)
    item_units: dict[int, int] = field(default_factory=dict)


def topological_units(units: list[Unit], deps: dict[int, set[int]]) -> list[Unit]:
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


class Dispatcher:
    """Computes unit dependencies from the DFG and emits dispatch items."""

    def __init__(self, graph: Graph):
        self.graph = graph
        self._producer_cache: dict[int, set[int]] = {}

    # -- dependency analysis -------------------------------------------------

    def unit_dependencies(self, plan: ExecutionPlan) -> dict[int, set[int]]:
        """unit id -> set of unit ids it consumes tensors from.

        Nodes not covered by any unit (reshapes, fills) are transparent:
        dependencies flow through them to their producers.
        """
        node_unit: dict[int, int] = {}
        for unit in plan.units:
            for nid in unit.node_ids:
                node_unit[nid] = unit.unit_id

        self._producer_cache.clear()

        def producing_units(node_id: int) -> set[int]:
            if node_id in self._producer_cache:
                return self._producer_cache[node_id]
            node = self.graph.node(node_id)
            if node_id in node_unit:
                result = {node_unit[node_id]}
            elif node.is_leaf:
                result = set()
            else:
                result = set()
                for inp in node.input_ids:
                    result |= producing_units(inp)
            self._producer_cache[node_id] = result
            return result

        deps: dict[int, set[int]] = {}
        for unit in plan.units:
            found: set[int] = set()
            for nid in unit.node_ids:
                for inp in self.graph.node(nid).input_ids:
                    for producer in producing_units(inp):
                        if producer != unit.unit_id:
                            found.add(producer)
            deps[unit.unit_id] = found
        return deps

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
        return topological_units(plan.units, deps)

    def order_units(self, plan: ExecutionPlan, deps: dict[int, set[int]]) -> list[Unit]:
        """Public issue-order computation (consumed by the compilation
        cache, which memoizes it across structurally identical plans)."""
        return self._order_units(plan, deps)

    # -- lowering -------------------------------------------------------------

    def lower(
        self,
        plan: ExecutionPlan,
        deps: dict[int, set[int]] | None = None,
        order: list[Unit] | None = None,
    ) -> LoweredSchedule:
        """Lower a plan to dispatch items.

        ``deps``/``order`` may be supplied by the compilation cache when
        the dependency analysis was already done for a structurally
        identical plan; they must be exactly what
        :meth:`unit_dependencies` / :meth:`order_units` would compute
        (the cache guarantees this by keying on the unit structure).
        """
        plan.validate_covering()
        if deps is None:
            deps = self.unit_dependencies(plan)
        if order is None:
            order = self._order_units(plan, deps)

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
            graph=self.graph,
            record_units=record_units,
            item_units=item_units,
        )
