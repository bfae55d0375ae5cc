"""Compiled schedules: compile once per structure, bind per candidate.

Pins what the compilation cache shares between candidates, that what it
hands out per candidate is private, and that every check of lowering
and of the engine still raises when a schedule is served from the cache
-- on the call that compiles it and on a repeat that hits.
"""

import dataclasses

import pytest

from repro.baselines.xla import xla_plan
from repro.gpu import P100, CopyLaunch, ElementwiseLaunch, GemmLaunch
from repro.gpu.streams import OP_LAUNCH, StreamProgram
from repro.ir import Tracer
from repro.perf import LoweringCache
from repro.runtime import Dispatcher, ExecutionPlan, Executor, Unit
from repro.runtime.dispatcher import CompiledSchedule, LoweredSchedule, Readback
from repro.serialize import schedule_to_dict

from ._reference_lowering import reference_lower


@pytest.fixture
def diamond():
    """x -> (a, b) -> c."""
    tr = Tracer("diamond")
    x = tr.input((8, 8))
    a = tr.matmul(x, tr.param((8, 8)))
    b = tr.matmul(x, tr.param((8, 8)))
    c = tr.add(a, b)
    tr.output(c)
    ids = (a.node.node_id, b.node.node_id, c.node.node_id)
    units = [
        Unit(0, GemmLaunch(8, 8, 8, "cublas"), (ids[0],)),
        Unit(1, GemmLaunch(8, 8, 8, "cublas"), (ids[1],)),
        Unit(2, ElementwiseLaunch(num_elements=64), (ids[2],)),
    ]
    return tr.graph, units, ids


def _cached_executor(graph):
    cache = LoweringCache()
    return Executor(graph, P100, cache=cache), cache


class TestSharing:
    def test_stream_candidates_share_one_compiled_structure(self, diamond):
        graph, units, _ids = diamond
        cache = LoweringCache()
        dispatcher = Dispatcher(graph)
        first = cache.lower(dispatcher, ExecutionPlan(units=list(units)))
        second = cache.lower(
            dispatcher, ExecutionPlan(units=list(units), stream_of={1: 1})
        )
        assert second.compiled is first.compiled
        assert cache.stats()["structure_hits"] == 1
        assert schedule_to_dict(second) == schedule_to_dict(
            dispatcher.lower(second.plan)
        )

    def test_library_change_keeps_deps_and_order(self, diamond):
        """A kernel-parameter change hits the structure entry: its
        dependencies and issue order are reused, its kernel table is not."""
        graph, units, _ids = diamond
        cache = LoweringCache()
        dispatcher = Dispatcher(graph)
        first = cache.lower(dispatcher, ExecutionPlan(units=list(units)))
        swapped = [dataclasses.replace(units[0], kernel=GemmLaunch(8, 8, 8, "oai_1"))]
        plan = ExecutionPlan(units=swapped + units[1:])
        second = cache.lower(dispatcher, plan)
        assert cache.stats()["structure_hits"] == 1
        assert second.compiled is not first.compiled
        for shared in ("order_ids", "step_deps", "edge_uids", "edge_deps"):
            assert getattr(second.compiled, shared) is getattr(first.compiled, shared)
        assert second.items[0].kernel.library == "oai_1"
        assert schedule_to_dict(second) == schedule_to_dict(dispatcher.lower(plan))

    def test_epoch_change_recompiles_the_readback(self, diamond):
        graph, units, _ids = diamond
        cache = LoweringCache()
        dispatcher = Dispatcher(graph)
        first = cache.lower(dispatcher, ExecutionPlan(units=list(units)))
        plan = ExecutionPlan(units=list(units), epoch_of={0: (0, 0), 1: (0, 0), 2: (0, 1)})
        second = cache.lower(dispatcher, plan)
        assert second.compiled is not first.compiled
        assert first.readback.epoch_groups == []
        assert [
            (key, uids)
            for _uids, _firsts, epochs in second.readback.epoch_groups
            for key, uids, _mains in epochs
        ] == [((0, 0), [0, 1]), ((0, 1), [2])]

    def test_per_candidate_fields_are_private(self, diamond):
        """Two candidates bound from one compiled structure never share the
        containers a caller may edit."""
        graph, units, _ids = diamond
        cache = LoweringCache()
        dispatcher = Dispatcher(graph)
        first = cache.lower(dispatcher, ExecutionPlan(units=list(units)))
        second = cache.lower(dispatcher, ExecutionPlan(units=list(units)))
        assert first.compiled is second.compiled
        for name in ("items", "item_units", "unit_record_index", "record_units",
                     "unit_stream"):
            assert getattr(first, name) == getattr(second, name)
            assert getattr(first, name) is not getattr(second, name)
        first.item_units.clear()
        first.record_units.clear()
        assert second.item_units and second.record_units
        assert cache.lower(dispatcher, ExecutionPlan(units=list(units))).record_units

    def test_edited_items_are_what_runs(self, diamond):
        """Once ``items`` has been read, the engine runs the items -- edits
        included -- not the bound program."""
        graph, units, _ids = diamond
        executor = Executor(graph, P100)
        lowered = executor.dispatcher.lower(ExecutionPlan(units=list(units), profile=False))
        before = executor.run_lowered(lowered).unit_times[0]
        slow = GemmLaunch(1024, 1024, 1024, "cublas")
        lowered.items[0] = dataclasses.replace(lowered.items[0], kernel=slow)
        assert executor.run_lowered(lowered).unit_times[0] == slow.duration_us(P100)
        assert slow.duration_us(P100) > before


def test_results_and_schedules_compare_by_value(diamond):
    """Two runs of one plan give equal results though their raw results
    are distinct objects, and a bound schedule equals one built by hand
    from the same fields."""
    graph, units, _ids = diamond
    executor = Executor(graph, P100)
    plan = ExecutionPlan(units=list(units), stream_of={1: 1})
    first, second = executor.run(plan), executor.run(plan)
    assert first.raw is not second.raw
    assert first == second
    assert repr(first.raw) == repr(second.raw)
    assert repr(first.raw).startswith("ExecutionResult(total_time_us=")
    lowered = executor.dispatcher.lower(plan)
    by_hand = LoweredSchedule(
        list(lowered.items), dict(lowered.unit_record_index),
        dict(lowered.unit_stream), plan, graph,
        list(lowered.record_units), dict(lowered.item_units),
    )
    assert lowered == by_hand
    assert repr(lowered) == repr(by_hand)
    assert lowered != executor.dispatcher.lower(
        ExecutionPlan(units=list(units), stream_of={1: 2})
    )


class TestChecksOnCachedPath:
    """Each check raises through ``Executor.run`` with the cache on: on the
    first call, which compiles, and on a repeat call.  A failed compile
    stores nothing, so the repeat hits the cache only where a valid plan
    of the same structure was cached first."""

    def test_node_covered_twice(self, diamond):
        """The second covering unit of the valid plan is a weight-pack
        copy, which the covering check allows; it shares the invalid
        plan's structure, so the repeat hits its entry and the covering
        check of ``compile(like=)`` raises."""
        graph, units, ids = diamond
        executor, cache = _cached_executor(graph)
        double = units[:2] + [Unit(2, ElementwiseLaunch(num_elements=64), (ids[1],))]
        packed = units[:2] + [Unit(2, CopyLaunch(bytes_moved=256), (ids[1],),
                                   label="pack_w")]
        with pytest.raises(ValueError, match="covered by multiple units"):
            executor.run(ExecutionPlan(units=list(double)))
        assert executor.run(ExecutionPlan(units=list(packed))).total_time_us > 0
        with pytest.raises(ValueError, match="covered by multiple units"):
            executor.run(ExecutionPlan(units=list(double)))
        stats = cache.stats()
        assert (stats["structure_misses"], stats["structure_hits"]) == (2, 1)
        # the failed compile left the valid entry in place
        assert executor.run(ExecutionPlan(units=list(packed))).total_time_us > 0
        assert cache.stats()["structure_hits"] == 2

    def test_dispatch_order_before_a_dependency(self, diamond):
        """The structure key fixes the units' nodes and the dispatch order,
        hence the dependencies and the order check's verdict: no valid
        plan shares this structure, and each call misses and raises."""
        graph, units, _ids = diamond
        executor, cache = _cached_executor(graph)
        for _ in range(2):
            with pytest.raises(ValueError, match="before deps"):
                executor.run(ExecutionPlan(units=list(units), dispatch_order=[2, 0, 1]))
        stats = cache.stats()
        assert (stats["structure_misses"], stats["structure_hits"]) == (2, 0)

    def test_wait_on_an_event_never_recorded(self, diamond, monkeypatch):
        """A bound program whose cross-stream wait names an event no launch
        records must hit the engine's deadlock check.  The compile itself
        succeeds, so the repeat hits the cache."""
        graph, units, _ids = diamond
        bind = CompiledSchedule.bind

        def drop_records(compiled, plan):
            program = bind(compiled, plan)
            ops = [
                op[:3] + (-1,) + op[4:] if op[0] == OP_LAUNCH else op
                for op in program.ops
            ]
            assert ops != program.ops
            return StreamProgram(
                program.table, ops, program.num_events, program.events, False
            )

        monkeypatch.setattr(CompiledSchedule, "bind", drop_records)
        executor, cache = _cached_executor(graph)
        for _ in range(2):
            with pytest.raises(RuntimeError, match="deadlock"):
                executor.run(ExecutionPlan(units=list(units), stream_of={1: 1}, profile=False))
        stats = cache.stats()
        assert (stats["structure_misses"], stats["structure_hits"]) == (1, 1)


def explored_plans(model, monkeypatch) -> list[ExecutionPlan]:
    """Every plan a full ``all``-features exploration of ``model`` runs."""
    from repro import AstraSession

    plans = []
    run = Executor.run

    def recording(self, plan, validate=None):
        plans.append(plan)
        return run(self, plan, validate=validate)

    monkeypatch.setattr(Executor, "run", recording)
    AstraSession(model, features="all").optimize()
    monkeypatch.undo()
    return plans


@pytest.mark.parametrize("model_fixture", ["tiny_scrnn", "tiny_milstm"])
def test_bound_schedules_equal_the_reference_lowering(model_fixture, request, monkeypatch):
    """Compile-then-bind emits exactly what one-pass lowering did -- items,
    event numbering, and every index map -- through the cache and without
    it.  Beside the explored plans, the XLA plan adds host work, and
    spread over three streams with barriers it adds host syncs on
    cross-stream completion events."""
    model = request.getfixturevalue(model_fixture)
    xla = xla_plan(model.graph, P100)
    spread = dataclasses.replace(
        xla,
        stream_of={u.unit_id: u.unit_id % 3 for u in xla.units},
        barriers_after=frozenset(u.unit_id for u in xla.units[::7]),
    )
    plans = explored_plans(model, monkeypatch) + [xla, spread]
    dispatcher = Dispatcher(model.graph)
    cache = LoweringCache()
    for plan in plans:
        expected = reference_lower(dispatcher, plan)
        for lowered in (cache.lower(dispatcher, plan), dispatcher.lower(plan)):
            assert lowered.items == expected.items
            assert lowered.item_units == expected.item_units
            assert list(lowered.unit_stream.items()) == list(expected.unit_stream.items())
            assert lowered.unit_record_index == expected.unit_record_index
            assert lowered.record_units == expected.record_units
    assert cache.stats()["structure_hits"] > len(plans) // 2


def reference_epoch_metrics(lowered, result, tainted_units):
    """Per-epoch stream metrics computed unit by unit from the records."""
    plan = lowered.plan
    tainted_epochs: set[tuple[int, int]] = set()
    starts: dict[int, float] = {}
    ends: dict[tuple[int, int], float] = {}
    for unit in plan.units:
        se, epoch = plan.epoch(unit.unit_id)
        if se < 0 or epoch < 0:
            continue
        if unit.unit_id in tainted_units:
            tainted_epochs.add((se, epoch))
            continue
        idx = lowered.unit_record_index.get(unit.unit_id)
        if idx is None:
            continue
        first = max(0, idx - len(unit.pre_copies))
        starts[se] = min(starts.get(se, float("inf")), result.records[first].start_time)
        ends[(se, epoch)] = max(ends.get((se, epoch), 0.0), result.records[idx].end_time)
    metrics = {}
    for se in starts:
        running_end = 0.0
        for epoch in sorted(e for (s, e) in ends if s == se):
            running_end = max(running_end, ends[(se, epoch)])
            if (se, epoch) not in tainted_epochs:
                metrics[(se, epoch)] = running_end - starts[se]
    return metrics


def test_epoch_metrics_equal_the_per_unit_reference(tiny_milstm, monkeypatch):
    """On every explored plan, and on each re-split into two interleaved
    super-epochs, with no unit, one unit, every third unit and every unit
    tainted, the readback's epoch metrics equal the per-unit reference."""
    executor = Executor(tiny_milstm.graph, P100)
    checked = withheld = 0
    for explored in explored_plans(tiny_milstm, monkeypatch):
        interleaved = dataclasses.replace(explored, epoch_of={
            uid: (i % 2, epoch)
            for i, (uid, (_se, epoch)) in enumerate(explored.epoch_of.items())
        })
        for plan in (explored, interleaved):
            lowered = executor.dispatcher.lower(plan)
            result = executor._simulator.run(lowered.program)
            uids = [uid for uid in plan.epoch_of if uid in lowered.unit_record_index]
            for tainted in (set(), set(uids[1:2]), set(uids[::3]), set(uids)):
                got = executor._epoch_metrics(lowered.readback, result, tainted)
                want = reference_epoch_metrics(lowered, result, tainted)
                assert got == want
                checked += bool(want)
                withheld += len(want) < len(
                    reference_epoch_metrics(lowered, result, set())
                )
    assert checked > 0 and withheld > 0


def reference_readback(units, epoch_of, unit_record_index):
    """``Readback``'s fields computed unit by unit, in plan order."""
    uids, mains, backs = [], [], []
    groups: dict = {}
    for unit in units:
        idx = unit_record_index.get(unit.unit_id)
        if idx is None:
            continue
        copies = len(unit.pre_copies)
        uids.append(unit.unit_id)
        mains.append(idx)
        backs.append(tuple(idx - b for b in range(1, copies + 1) if idx - b >= 0))
        se, epoch = epoch_of.get(unit.unit_id, (-1, -1))
        if se < 0 or epoch < 0:
            continue
        group = groups.setdefault(se, ([], [], {}))
        group[0].append(unit.unit_id)
        group[1].append(max(0, idx - copies))
        members = group[2].setdefault(epoch, ([], []))
        members[0].append(unit.unit_id)
        members[1].append(idx)
    epoch_groups = [
        (group_uids, firsts, [((se, e), *epochs[e]) for e in sorted(epochs)])
        for se, (group_uids, firsts, epochs) in groups.items()
    ]
    return uids, mains, backs, epoch_groups


def test_readback_equals_the_per_unit_reference(tiny_milstm, monkeypatch):
    """On every explored plan, with and without epoch coordinates, and on
    a hand-built record map that puts units with pre-copies at the head
    of the record list, the readback equals the unit-by-unit walk."""
    dispatcher = Dispatcher(tiny_milstm.graph)
    cases = []
    for plan in explored_plans(tiny_milstm, monkeypatch):
        lowered = dispatcher.lower(plan)
        for epoch_of in (plan.epoch_of, {}):
            cases.append((plan.units, epoch_of, lowered.unit_record_index))
    copy = CopyLaunch(64)
    head = [
        Unit(0, GemmLaunch(8, 8, 8, "cublas"), (0,), pre_copies=(copy, copy)),
        Unit(1, ElementwiseLaunch(num_elements=64), (1,), pre_copies=(copy,) * 3),
        Unit(2, ElementwiseLaunch(num_elements=64), (2,)),
        Unit(3, GemmLaunch(8, 8, 8, "cublas"), (3,), pre_copies=(copy,)),
    ]
    cases.append((head, {0: (0, 0), 1: (0, 1), 3: (1, 0)}, {0: 0, 1: 2, 3: 6}))
    for units, epoch_of, record_index in cases:
        got = Readback(units, epoch_of, record_index)
        assert (got.uids, got.mains, got.backs, got.epoch_groups) == \
            reference_readback(units, epoch_of, record_index)
    assert any(any(got for got in reference_readback(*case)[2]) for case in cases)
