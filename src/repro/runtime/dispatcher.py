"""The dispatcher: lowers (graph, plan) to a GPU dispatch-item list.

This is the layer Astra interposes on (paper Figure 3): it owns stream
assignment, event insertion for cross-stream dependencies, barrier
placement at super-epoch boundaries, and profiling-event placement.  The
same dispatcher executes native, cuDNN, XLA and Astra plans -- they differ
only in the :class:`~repro.runtime.plan.ExecutionPlan` handed in.

Lowering is two steps.  :meth:`Dispatcher.compile` does everything the
plan's units and dispatch order fix -- dependencies, issue order, the
kernel table and the record layout -- into a :class:`CompiledSchedule`,
which the compilation cache keeps per structure.
:meth:`CompiledSchedule.bind` then resolves only what a candidate
changes -- its stream map, profiling set and barriers -- into the
engine's flat :class:`~repro.gpu.streams.StreamProgram`.
"""

from __future__ import annotations

import heapq
from functools import partial
from itertools import repeat
from operator import is_

from ..gpu.events import EventId
from ..gpu.streams import (
    OP_HOST,
    OP_LAUNCH,
    OP_SYNC,
    DispatchItem,
    KernelTable,
    StreamProgram,
    compile_items,
)
from ..ir.graph import Graph
from .lowering import graph_lowering
from .plan import ExecutionPlan, Unit

_SYNC_ALL = (OP_SYNC, -1)


def _event_ids(completions: int, owners: list[int]) -> list[EventId]:
    """Slot -> event of a bound program: the completion events first (in
    the order the dispatcher allocates them), then the profiling events."""
    return [
        EventId(slot, f"u{uid}" if slot < completions else f"p{uid}")
        for slot, uid in enumerate(owners)
    ]


class Readback:
    """Where each unit's measurements sit in a run's record list.

    Per unit with a kernel, in plan order: ``uids``, ``mains`` (its main
    record) and ``backs`` (its pre-copy records).  ``epoch_groups`` holds,
    per super-epoch in first-seen order, the units with epoch coordinates
    and their first records, and per epoch in sorted order its key, units
    and main records: ``(uids, firsts, [((se, epoch), uids, mains), ...])``.
    """

    def __init__(self, units: list[Unit], epoch_of: dict[int, tuple[int, int]],
                 unit_record_index: dict[int, int]):
        self.uids: list[int] = []
        self.mains: list[int] = []
        self.backs: list[tuple[int, ...]] = []
        record_of = unit_record_index.get
        for unit in units:
            idx = record_of(unit.unit_id)
            if idx is None:
                continue
            self.uids.append(unit.unit_id)
            self.mains.append(idx)
            copies = len(unit.pre_copies)
            # a hand-built schedule may map a unit near the head of the
            # record list; never charge a record before index 0
            self.backs.append(
                tuple(range(idx - 1, max(0, idx - copies) - 1, -1))
                if copies else ()
            )
        self.epoch_groups = []
        if not epoch_of:
            return
        groups: dict[int, tuple[list[int], list[int], dict]] = {}
        for uid, idx, backs in zip(self.uids, self.mains, self.backs):
            se, epoch = epoch_of.get(uid, (-1, -1))
            if se < 0 or epoch < 0:
                continue
            group_uids, firsts, epochs = groups.setdefault(se, ([], [], {}))
            group_uids.append(uid)
            # the first record is the earliest pre-copy's, else the main
            firsts.append(backs[-1] if backs else idx)
            epoch_uids, mains = epochs.setdefault(epoch, ([], []))
            epoch_uids.append(uid)
            mains.append(idx)
        self.epoch_groups = [
            (group_uids, firsts, [((se, e), *epochs[e]) for e in sorted(epochs)])
            for se, (group_uids, firsts, epochs) in groups.items()
        ]


class _Structure:
    """What a plan's dependencies and issue order fix: ``order_ids``, per
    unit in plan order its dependencies in the order their set iterates,
    and the units without a kernel.  ``step_deps`` and the edge lists are
    derived on first read: a bind without cross-stream or host
    dependencies reads neither.
    """

    __slots__ = ("order_ids", "deps", "kernel_less", "_step_deps", "_edges")

    def __init__(self, order_ids: list[int], deps: dict[int, tuple[int, ...]],
                 kernel_less: set[int]):
        self.order_ids = order_ids
        self.deps = deps
        self.kernel_less = kernel_less
        self._step_deps = self._edges = None

    @property
    def step_deps(self) -> list[tuple[int, ...]]:
        if self._step_deps is None:
            deps = self.deps
            self._step_deps = [tuple(sorted(deps[uid])) for uid in self.order_ids]
        return self._step_deps

    @property
    def edges(self) -> tuple[list[int], list[int]]:
        if self._edges is None:
            kernel_less = self.kernel_less
            self._edges = (
                [uid for uid, dep_ids in self.deps.items()
                 for dep in dep_ids if dep not in kernel_less],
                [dep for dep_ids in self.deps.values()
                 for dep in dep_ids if dep not in kernel_less],
            )
        return self._edges


class CompiledSchedule:
    """The part of lowering that only the plan's units, epoch coordinates
    and dispatch order decide, computed once per structure.

    Per issue position: ``order_ids`` and ``step_deps`` (each unit's
    sorted dependencies) and ``copies`` (its pre-copy count, -1 for a
    unit without a kernel); ``host_work`` maps host-work units to
    ``(host_us, label)``.  ``edge_uids``/``edge_deps`` list every
    dependency on a kernel unit -- only those can record an event -- in
    the order the event set is built.  These four depend on the
    structure alone (:class:`_Structure`, which derives all but the
    order on first read) and are shared by every schedule compiled
    :meth:`like` this one.  The rest depends on the units: the kernel
    table (pre-copies and main kernels in record order),
    ``record_units`` and the :class:`Readback` layout.  Units are
    shared, never-mutated templates, so :meth:`fits` recognizes a plan
    over the same unit objects.
    """

    def __init__(self, plan: ExecutionPlan, structure: _Structure,
                 known_costs: dict | None = None):
        self.units = tuple(plan.units)
        self.epoch_of = dict(plan.epoch_of)
        self.structure = structure
        self.order_ids = order_ids = structure.order_ids
        self.host_work = {
            u.unit_id: (u.host_us, u.label or "host")
            for u in plan.units if u.host_us > 0.0
        }
        by_id = {u.unit_id: u for u in plan.units}
        self.copies = copies = []
        kernels = []
        self.record_units = record_units = []
        for unit in map(by_id.__getitem__, order_ids):
            kernel = unit.kernel
            if kernel is None:
                copies.append(-1)
                continue
            pre = unit.pre_copies
            copies.append(len(pre))
            if pre:
                kernels.extend(pre)
                record_units.extend([unit.unit_id] * len(pre))
            kernels.append(kernel)
            record_units.append(unit.unit_id)
        self.table = KernelTable(kernels, known_costs)
        self._readback = None

    @classmethod
    def from_dependencies(cls, plan: ExecutionPlan, deps: dict[int, set[int]],
                          order_ids: list[int],
                          known_costs: dict | None = None) -> "CompiledSchedule":
        structure = _Structure(
            order_ids, {uid: tuple(dep_ids) for uid, dep_ids in deps.items()},
            {u.unit_id for u in plan.units if u.kernel is None},
        )
        return cls(plan, structure, known_costs)

    def like(self, plan: ExecutionPlan) -> "CompiledSchedule":
        """Compile ``plan``, of this schedule's structure, reusing its
        dependencies and issue order."""
        return CompiledSchedule(plan, self.structure, self.table.known)

    @property
    def step_deps(self) -> list[tuple[int, ...]]:
        return self.structure.step_deps

    @property
    def edge_uids(self) -> list[int]:
        return self.structure.edges[0]

    @property
    def edge_deps(self) -> list[int]:
        return self.structure.edges[1]

    def fits(self, plan: ExecutionPlan) -> bool:
        """True when ``plan`` has exactly this schedule's units and epochs."""
        units = plan.units
        return (
            len(units) == len(self.units)
            and all(map(is_, units, self.units))
            and plan.epoch_of == self.epoch_of
        )

    @property
    def unit_record_index(self) -> dict[int, int]:
        """unit id -> index of its main kernel (the last of its records)."""
        return {uid: index for index, uid in enumerate(self.record_units)}

    @property
    def readback(self) -> Readback:
        if self._readback is None:
            self._readback = Readback(self.units, self.epoch_of, self.unit_record_index)
        return self._readback

    def bind(self, plan: ExecutionPlan) -> StreamProgram:
        """The engine ops for ``plan``'s streams, profiling set and barriers."""
        stream_of = plan.stream_of.get
        streams = {uid: stream_of(uid, 0) for uid in self.order_ids}
        host_work = self.host_work
        # which units need a completion event: any unit consumed from a
        # different stream (cross-stream dependency -> wait-event), or any
        # unit feeding host-side work (the dispatch thread must block on
        # it).  Only kernel units record one (the edges): a host-only
        # producer is ordered by the dispatch thread itself, so an event
        # for it would never be recorded and every waiter would deadlock.
        # A plan on the default stream alone without host work has none.
        consumers = {
            dep for uid, dep in zip(*self.structure.edges)
            if uid in host_work or streams[dep] != streams[uid]
        } if host_work or plan.stream_of else set()
        owners = list(consumers)
        completion = {uid: slot for slot, uid in enumerate(owners)}
        barriers = plan.barriers_after
        profile = plan.profile
        profiled = plan.profile_unit_ids
        ops: list[tuple] = []
        append = ops.append
        first_stream = None
        sequential = True
        # without events, no dependency changes an op
        step_deps = self.step_deps if completion else repeat(())
        for uid, deps, copies in zip(self.order_ids, step_deps, self.copies):
            on = streams[uid]
            if uid in host_work:
                # host work stalls dispatch; any device deps must be complete
                for dep in deps:
                    slot = completion.get(dep)
                    if slot is not None:
                        append((OP_SYNC, slot))
                host_us, label = host_work[uid]
                append((OP_HOST, host_us, label, uid))
            if copies >= 0:
                waits = ()
                if deps and completion:
                    # kernel-less deps have no event; the dispatch thread
                    # serializes them (host work stalls dispatch)
                    waits = tuple([
                        completion[dep] for dep in deps
                        if dep in completion and streams[dep] != on
                    ])
                    if waits:
                        sequential = False
                if first_stream is None:
                    first_stream = on
                elif on != first_stream:
                    sequential = False
                if copies:
                    append((OP_LAUNCH, on, waits, -1, True))
                    # same-stream FIFO carries the dependency on
                    waits = ()
                    for _ in range(copies - 1):
                        append((OP_LAUNCH, on, waits, -1, True))
                record = completion.get(uid, -1)
                wants_profile = profile and (profiled is None or uid in profiled)
                if record < 0 and wants_profile:
                    record = len(owners)
                    owners.append(uid)
                append((OP_LAUNCH, on, waits, record, wants_profile))
            if uid in barriers:
                append(_SYNC_ALL)
        append(_SYNC_ALL)
        return StreamProgram(
            self.table, ops, len(owners), partial(_event_ids, len(completion), owners),
            sequential,
        )

    def item_units(self, program: StreamProgram) -> dict[int, int]:
        """Work-item index -> owning unit, for a program bound here."""
        out: dict[int, int] = {}
        record = 0
        for index, op in enumerate(program.ops):
            if op[0] == OP_LAUNCH:
                out[index] = self.record_units[record]
                record += 1
            elif op[0] == OP_HOST:
                out[index] = op[3]
        return out


class LoweredSchedule:
    """Dispatch items plus the bookkeeping needed to read measurements back.

    Built by hand from an item list, or by :meth:`Dispatcher.lower` as a
    compiled structure plus a bound program.  In the second form
    ``items``, ``item_units``, ``unit_stream``, ``unit_record_index`` and
    ``record_units`` are built on first read; once ``items`` has been
    read (and perhaps edited), the engine runs those items.
    """

    def __init__(
        self,
        items: list[DispatchItem],
        unit_record_index: dict[int, int],
        unit_stream: dict[int, int],
        plan: ExecutionPlan,
        graph: Graph,
        record_units: list[int] | None = None,
        item_units: dict[int, int] | None = None,
    ):
        self.plan = plan
        self.graph = graph
        self.compiled = None
        self._program = None
        self._items = items
        #: unit id -> index of its main kernel in the simulator's record list
        self._unit_record_index = unit_record_index
        #: unit id -> stream it was dispatched to
        self._unit_stream = unit_stream
        #: unit id of every launched kernel, in record order (pre-copies
        #: carry their owning unit's id); consumed by the Chrome-trace
        #: exporter
        self._record_units = record_units if record_units is not None else []
        #: index of every *work* item (LaunchItem / HostComputeItem) -> the
        #: unit that emitted it; consumed by the schedule validator
        self._item_units = item_units if item_units is not None else {}

    @classmethod
    def bound(cls, compiled: CompiledSchedule, program: StreamProgram,
              plan: ExecutionPlan, graph: Graph) -> "LoweredSchedule":
        self = cls.__new__(cls)
        self.plan = plan
        self.graph = graph
        self.compiled = compiled
        self._program = program
        self._items = self._unit_record_index = self._unit_stream = None
        self._record_units = self._item_units = None
        return self

    def _fields(self) -> tuple:
        return (self.items, self.unit_record_index, self.unit_stream, self.plan,
                self.graph, self.record_units, self.item_units)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    __hash__ = None

    def __repr__(self) -> str:
        names = ("items", "unit_record_index", "unit_stream", "plan", "graph",
                 "record_units", "item_units")
        body = ", ".join(f"{n}={v!r}" for n, v in zip(names, self._fields()))
        return f"LoweredSchedule({body})"

    @property
    def items(self) -> list[DispatchItem]:
        if self._items is None:
            self._items = self._program.to_items()
        return self._items

    @property
    def program(self) -> StreamProgram:
        """What the engine runs."""
        if self._items is not None:
            return compile_items(self._items)
        return self._program

    @property
    def readback(self) -> Readback:
        if self.compiled is not None:
            return self.compiled.readback
        return Readback(self.plan.units, self.plan.epoch_of, self._unit_record_index)

    @property
    def unit_record_index(self) -> dict[int, int]:
        if self._unit_record_index is None:
            self._unit_record_index = self.compiled.unit_record_index
        return self._unit_record_index

    @property
    def record_units(self) -> list[int]:
        if self._record_units is None:
            self._record_units = list(self.compiled.record_units)
        return self._record_units

    @property
    def item_units(self) -> dict[int, int]:
        if self._item_units is None:
            self._item_units = self.compiled.item_units(self._program)
        return self._item_units

    @property
    def unit_stream(self) -> dict[int, int]:
        if self._unit_stream is None:
            stream = self.plan.stream
            self._unit_stream = {uid: stream(uid) for uid in self.compiled.order_ids}
        return self._unit_stream


def issue_order(uids: list[int], keys: list, deps: dict[int, set[int]]) -> list[int]:
    """Deterministic Kahn order of unit ids: of the units whose
    dependencies have all issued, the one with the smallest ``(key, id)``
    issues next.  ``keys[i]`` is the key of ``uids[i]``.

    Units are scanned in key order; one whose dependencies have not all
    issued waits, and issues as soon as its last one has, before the scan
    goes on -- its key is smaller than any the scan has not reached.
    """
    issued: set[int] = set()
    order: list[int] = []
    #: unit -> the waiting units it blocks; waiting unit -> its blockers
    waiting: dict[int, list[tuple]] = {}
    missing: dict[int, int] = {}
    empty = ()
    for key, uid in sorted(zip(keys, uids)):
        parents = deps.get(uid, empty)
        if not issued.issuperset(parents):
            blockers = [p for p in parents if p not in issued]
            missing[uid] = len(blockers)
            for parent in blockers:
                waiting.setdefault(parent, []).append((key, uid))
            continue
        order.append(uid)
        issued.add(uid)
        released = waiting.pop(uid, None)
        if released is None:
            continue
        heap: list[tuple] = []
        while True:
            for child in released:
                missing[child[1]] -= 1
                if not missing[child[1]]:
                    heapq.heappush(heap, child)
            if not heap:
                break
            uid = heapq.heappop(heap)[1]
            order.append(uid)
            issued.add(uid)
            released = waiting.pop(uid, empty)
    if len(order) != len(uids):
        raise ValueError("cycle detected among schedule units")
    return order


def topological_units(units: list[Unit], deps: dict[int, set[int]]) -> list[Unit]:
    """Deterministic Kahn toposort of units; ties broken by smallest
    covered node id so the order tracks data-flow order."""
    by_id = {u.unit_id: u for u in units}
    order = issue_order(list(by_id), [min(u.node_ids) for u in units], deps)
    return [by_id[uid] for uid in order]


class Dispatcher:
    """Computes unit dependencies from the DFG and emits dispatch items."""

    def __init__(self, graph: Graph):
        self.graph = graph

    # -- dependency analysis -------------------------------------------------

    def unit_dependencies(self, plan: ExecutionPlan) -> dict[int, set[int]]:
        """unit id -> set of unit ids it consumes tensors from.

        Nodes not covered by any unit (reshapes, fills) are transparent:
        dependencies flow through them to their producers.
        """
        return self._dependencies(plan.units)[0]

    def _dependencies(self, units: list[Unit]) -> tuple[dict[int, set[int]], list[int]]:
        """Each unit's dependency set, and its issue-order key (its
        smallest node id).

        A unit's producers are the plan's units over its producer
        sources: a lone node's producer-closure entry, or a multi-node
        unit's entry in the graph's per-node-tuple memo
        (:meth:`~repro.runtime.lowering.GraphLowering.unit_sources`), so a
        unit over nodes an earlier plan already had costs one lookup per
        source.  A plan covering a normally free node, and a unit with a
        source the plan leaves uncovered, walk the graph instead.  Each
        set is filled in the same order either way, so its iteration
        order -- which numbers the events -- is the same.
        """
        node_unit = {nid: unit.unit_id for unit in units for nid in unit.node_ids}
        lowering = graph_lowering(self.graph)
        closure, free, ends = lowering.producers
        walk_all = not free.isdisjoint(node_unit)
        lookup = node_unit.__getitem__
        get = node_unit.get
        sources_of = lowering.unit_sources
        producers: dict[int, set[int]] = {}
        deps: dict[int, set[int]] = {}
        keys: list[int] = []
        for unit in units:
            uid = unit.unit_id
            node_ids = unit.node_ids
            if len(node_ids) == 1:
                # a lone node's sources never include itself
                key = node_ids[0]
                sources, leafy = closure[key], True
            else:
                sources, leafy, key = sources_of(node_ids)
            keys.append(key)
            if not walk_all:
                if not leafy:
                    try:
                        deps[uid] = set(map(lookup, sources))
                        continue
                    except KeyError:
                        pass  # an uncovered source, or a fork: walk
                else:
                    found: set[int] = set()
                    for source in sources:
                        producer = get(source)
                        if producer is None:
                            if source in ends:
                                continue
                            break
                        found.add(producer)
                    else:
                        deps[uid] = found
                        continue
            deps[uid] = self._walk(unit, node_unit, producers, walk_all)
        return deps, keys

    def _walk(self, unit: Unit, node_unit: dict[int, int],
              producers: dict[int, set[int]], walk_all: bool) -> set[int]:
        """``unit``'s dependency set found node by node: through the
        producer closure up to a source the plan leaves uncovered or a
        fork (or not at all with ``walk_all``), then walking the graph."""
        closure, _free, ends = graph_lowering(self.graph).producers
        nodes = self.graph.nodes
        uid = unit.unit_id
        found: set[int] = set()
        for nid in unit.node_ids:
            if not walk_all:
                for source in closure[nid]:
                    producer = node_unit.get(source)
                    if producer is None:
                        if source in ends:
                            continue
                        break  # an uncovered source, or a fork: walk
                    if producer != uid:
                        found.add(producer)
                else:
                    continue
            # re-adding what the closure found changes nothing
            for inp in nodes[nid].input_ids:
                for producer in self._producing_units(inp, node_unit, producers):
                    if producer != uid:
                        found.add(producer)
        return found

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

    def _checked_order(self, plan: ExecutionPlan, deps: dict[int, set[int]]) -> list[int]:
        """The plan's explicit dispatch order, checked to cover every unit
        once and to issue each after its dependencies."""
        known = {u.unit_id for u in plan.units}
        order = list(plan.dispatch_order)
        for uid in order:
            if uid not in known:
                raise KeyError(uid)
        if len(order) != len(plan.units):
            raise ValueError("dispatch_order must cover every unit exactly once")
        seen: set[int] = set()
        for uid in order:
            missing = deps[uid] - seen
            if missing:
                raise ValueError(
                    f"dispatch_order issues unit {uid} before deps {missing}"
                )
            seen.add(uid)
        return order

    # -- lowering -------------------------------------------------------------

    def compile(
        self, plan: ExecutionPlan, like: CompiledSchedule | None = None
    ) -> CompiledSchedule:
        """Check and compile the structural half of lowering ``plan``.

        ``like`` may be supplied by the compilation cache: a schedule
        compiled from a structurally identical plan, whose dependencies and
        issue order are exactly what this plan's would be (the cache
        guarantees this by keying on the unit structure).
        """
        plan.validate_covering()
        if like is not None:
            return like.like(plan)
        deps, keys = self._dependencies(plan.units)
        if plan.dispatch_order is not None:
            order_ids = self._checked_order(plan, deps)
        else:
            order_ids = issue_order([u.unit_id for u in plan.units], keys, deps)
        return CompiledSchedule.from_dependencies(
            plan, deps, order_ids, graph_lowering(self.graph).costs
        )

    def lower(self, plan: ExecutionPlan, compiled: CompiledSchedule | None = None) -> LoweredSchedule:
        """Lower a plan: compile it (unless the compilation cache passes
        the plan's ``compiled`` structure) and bind its streams."""
        if compiled is None:
            compiled = self.compile(plan)
        return LoweredSchedule.bound(compiled, compiled.bind(plan), plan, self.graph)
