"""Plan lowering as it stood before compiled schedules, kept verbatim as
a test oracle.

``reference_lower`` emits the dispatch-item list in one pass per plan,
allocating events from an :class:`EventNamespace` as it goes.
``test_compiled.py`` lowers every plan an exploration measures both
ways and demands identical schedules; nothing outside the tests imports
it.
"""

from __future__ import annotations

from repro.gpu.events import EventId, EventNamespace
from repro.gpu.streams import DispatchItem, HostComputeItem, HostSyncItem, LaunchItem
from repro.runtime.dispatcher import Dispatcher, LoweredSchedule
from repro.runtime.plan import ExecutionPlan


def reference_lower(dispatcher: Dispatcher, plan: ExecutionPlan) -> LoweredSchedule:
    """Lower a plan to dispatch items."""
    plan.validate_covering()
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
