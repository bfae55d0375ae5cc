"""The wave planner visits exactly the one-at-a-time configuration sequence.

A property test over random fk-shaped trees (a parallel root over
variables with random choice counts, some choices already in the index):
planning waves and merging each wave's measurements in order must visit
the same configurations, with every variable at the same position, as
measuring one configuration and advancing at a time -- and leave the
same index and the same final assignment.
"""

from hypothesis import given, settings, strategies as st

from repro.core.adaptive import MODE_PARALLEL, MODE_PREFIX, AdaptiveVariable, UpdateNode
from repro.core.profile_index import ProfileIndex
from repro.parallel.engine import HIT, STATUS_BUDGET, STATUS_EXHAUSTED, plan_wave

CONTEXT = ("ctx",)


def _value(key) -> float:
    # any deterministic, key-dependent value makes finalize's pick depend
    # on exactly which keys were measured
    return float(sum(map(ord, repr(key))) % 97)


def _tree(counts, mode):
    variables = [
        AdaptiveVariable(f"v{i}", choices=list(range(n)))
        for i, n in enumerate(counts)
    ]
    tree = UpdateNode(name="root", mode=mode, children=variables)
    tree.initialize()
    return tree


def _index(tree, premeasured):
    index = ProfileIndex()
    for var in tree.variables():
        for choice in var.choices:
            key = var.profile_key(CONTEXT, choice)
            if (var.name, choice) in premeasured:
                index.record(key, _value(key))
    return index


def _measure(tree, index):
    live = [v for v in tree.variables() if v.profile_key(CONTEXT) not in index]
    index.merge({v.profile_key(CONTEXT): _value(v.profile_key(CONTEXT)) for v in live})
    return tuple(sorted(v.name for v in live))


def one_at_a_time(tree, index, budget):
    visited, spent = [], 0
    while True:
        live = _measure(tree, index)
        visited.append((live, tuple(sorted(tree.assignment().items()))))
        spent += 1 if live else 0
        if spent >= budget:
            tree.finalize(index, CONTEXT)
            break
        if not tree.advance(index, CONTEXT):
            break
    return visited


def in_waves(tree, index, budget):
    visited, spent, advance_first = [], 0, False
    while True:
        entries, status = plan_wave(
            tree, index, CONTEXT, samples=1, spent=spent, budget=budget,
            advance_first=advance_first, limit=4,
        )
        if not entries:
            break
        end = tree.snapshot_state()
        for entry in entries:
            if entry is HIT:
                visited.append(((), tuple(sorted(tree.assignment().items()))))
                continue
            tree.restore_state(entry.snapshot)
            live = _measure(tree, index)
            assert live == tuple(sorted(entry.live_names))
            visited.append((live, tuple(sorted(entry.assignment.items()))))
            spent += 1
        tree.restore_state(end)
        if status == STATUS_BUDGET:
            tree.finalize(index, CONTEXT)
            break
        if status == STATUS_EXHAUSTED:
            break
        advance_first = True
    return visited


@given(
    counts=st.lists(st.integers(1, 5), min_size=1, max_size=6),
    premeasured=st.sets(st.tuples(st.sampled_from([f"v{i}" for i in range(6)]),
                                  st.integers(0, 4))),
    budget=st.integers(1, 12),
    mode=st.sampled_from([MODE_PARALLEL, MODE_PREFIX]),
)
@settings(max_examples=150, deadline=None)
def test_waves_visit_the_one_at_a_time_sequence(counts, premeasured, budget, mode):
    serial_tree = _tree(counts, mode)
    serial_index = _index(serial_tree, premeasured)
    wave_tree = _tree(counts, mode)
    wave_index = _index(wave_tree, premeasured)

    serial = one_at_a_time(serial_tree, serial_index, budget)
    waves = in_waves(wave_tree, wave_index, budget)

    # hits inside a wave are recorded at the wave's end state; compare
    # the measured configurations exactly and the hit counts
    assert [v for v in waves if v[0]] == [v for v in serial if v[0]]
    assert sum(1 for v in waves if not v[0]) == sum(1 for v in serial if not v[0])
    assert wave_index.snapshot() == serial_index.snapshot()
    assert wave_tree.assignment() == serial_tree.assignment()
