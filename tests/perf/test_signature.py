"""Plan-signature properties.

Pinned here:

* **injectivity on distinct plans** -- any structural mutation (epoch
  coordinates, stream map, dispatch order, barriers, profiling set, unit
  set, unit labels) produces a different :func:`plan_digest`;
* **stability** -- re-building the identical plan (same enumerator or a
  fresh one) produces the identical digest, and tiny scrnn's native-plan
  digest is pinned, so job digests and fleet contexts never move;
* **deliberate blindness** -- ``plan.label`` is cosmetic and excluded.
"""

import dataclasses

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import AstraFeatures, Enumerator
from repro.gpu import P100
from repro.baselines.native import native_plan
from repro.perf import plan_digest, structure_key


@pytest.fixture(scope="module")
def built(tiny_scrnn):
    enum = Enumerator(tiny_scrnn.graph, P100, AstraFeatures.preset("FK"))
    strategy = enum.strategies[0]
    tree = enum.build_fk_tree(strategy)
    tree.initialize()
    return enum, strategy, tree.assignment()


@pytest.fixture(scope="module")
def base_plan(built):
    enum, strategy, assignment = built
    return enum.build_plan(strategy, assignment).plan


MUTATIONS = (
    "epoch", "super_epoch", "unit_label", "drop_unit",
    "stream", "barrier", "profile_flag", "profile_ids", "dispatch_order",
)


def _mutate(plan, kind: str, idx: int):
    """Apply one guaranteed-structural mutation; returns the mutant."""
    units = list(plan.units)
    unit = units[idx % len(units)]
    if kind in ("epoch", "super_epoch"):
        super_epoch, epoch = plan.epoch(unit.unit_id)
        epoch_of = dict(plan.epoch_of)
        epoch_of[unit.unit_id] = (
            (super_epoch, epoch + 1) if kind == "epoch" else (super_epoch + 1, epoch)
        )
        return dataclasses.replace(plan, epoch_of=epoch_of)
    if kind == "unit_label":
        units[idx % len(units)] = dataclasses.replace(
            unit, label=unit.label + "~mutated"
        )
        return dataclasses.replace(plan, units=units)
    if kind == "drop_unit":
        if len(units) <= 1:
            return None
        del units[idx % len(units)]
        return dataclasses.replace(plan, units=units)
    if kind == "stream":
        stream_of = dict(plan.stream_of)
        stream_of[unit.unit_id] = plan.stream(unit.unit_id) + 1
        return dataclasses.replace(plan, stream_of=stream_of)
    if kind == "barrier":
        if unit.unit_id in plan.barriers_after:
            return None
        return dataclasses.replace(
            plan, barriers_after=plan.barriers_after | {unit.unit_id}
        )
    if kind == "profile_flag":
        return dataclasses.replace(plan, profile=not plan.profile)
    if kind == "profile_ids":
        ids = frozenset({unit.unit_id})
        if plan.profile_unit_ids == ids:
            return None
        return dataclasses.replace(plan, profile_unit_ids=ids)
    if kind == "dispatch_order":
        order = [u.unit_id for u in reversed(plan.units)]
        if plan.dispatch_order == order:
            return None
        return dataclasses.replace(plan, dispatch_order=order)
    raise AssertionError(kind)


class TestInjectivity:
    @settings(max_examples=60, deadline=None)
    @given(kind=st.sampled_from(MUTATIONS), idx=st.integers(0, 200))
    def test_structural_mutation_changes_key(self, base_plan, kind, idx):
        mutant = _mutate(base_plan, kind, idx)
        if mutant is None:  # mutation was a no-op for this plan
            return
        assert plan_digest(mutant) != plan_digest(base_plan)

    def test_plan_label_is_excluded(self, base_plan):
        relabeled = dataclasses.replace(base_plan, label="astra/production")
        assert plan_digest(relabeled) == plan_digest(base_plan)

    def test_kernel_field_change_changes_key(self, base_plan):
        idx = next(
            i for i, u in enumerate(base_plan.units) if u.kernel is not None
        )
        unit = base_plan.units[idx]
        field = dataclasses.fields(unit.kernel)[0].name
        mutated_kernel = dataclasses.replace(
            unit.kernel, **{field: getattr(unit.kernel, field)}
        )
        # identical field values => identical key, even for a distinct object
        units = list(base_plan.units)
        units[idx] = dataclasses.replace(unit, kernel=mutated_kernel)
        assert plan_digest(dataclasses.replace(base_plan, units=units)) == (
            plan_digest(base_plan)
        )


class TestStability:
    def test_rebuild_same_assignment_same_key(self, built):
        enum, strategy, assignment = built
        first = enum.build_plan(strategy, assignment).plan
        second = enum.build_plan(strategy, assignment).plan
        assert first is not second
        assert plan_digest(first) == plan_digest(second)

    def test_fresh_enumerator_same_key(self, built, tiny_scrnn):
        """No hidden dependence on object identity or cache warmth: a
        brand-new enumerator over the same graph signs identically."""
        enum, strategy, assignment = built
        fresh = Enumerator(tiny_scrnn.graph, P100, AstraFeatures.preset("FK"))
        fresh_strategy = next(
            s for s in fresh.strategies if s.strategy_id == strategy.strategy_id
        )
        a = enum.build_plan(strategy, assignment).plan
        b = fresh.build_plan(fresh_strategy, assignment).plan
        assert plan_digest(a) == plan_digest(b)

    def test_native_plan_digest_is_pinned(self, tiny_scrnn):
        """Job digests and fleet contexts are built from this value, so a
        stored profile index stays reachable only while it holds."""
        assert plan_digest(native_plan(tiny_scrnn.graph)) == (
            "ce74b64e2dd950c212657f62d8eecb14aad528d7a40c93199a22b84b30dc36af"
        )


class TestStructureKey:
    def test_blind_to_kernel_parameters_and_streams(self, base_plan):
        """The coarse tier keys only what deps/order read: unit ids, node
        coverage, kernel presence, and dispatch order."""
        restreamed = dataclasses.replace(
            base_plan,
            stream_of={u.unit_id: 1 for u in base_plan.units},
            barriers_after=frozenset({base_plan.units[0].unit_id}),
            profile=not base_plan.profile,
        )
        assert structure_key(restreamed) == structure_key(base_plan)
        assert plan_digest(restreamed) != plan_digest(base_plan)

    def test_sees_unit_set_and_order(self, base_plan):
        dropped = _mutate(base_plan, "drop_unit", 0)
        reordered = _mutate(base_plan, "dispatch_order", 0)
        assert structure_key(dropped) != structure_key(base_plan)
        assert structure_key(reordered) != structure_key(base_plan)
