"""Tests for epoch/super-epoch partitioning and equivalence classes."""

import pytest

from repro.core import partition_epochs
from repro.core.epochs import (
    MAX_EPOCH_OPTIONS,
    MIN_EPOCH_ADAPT_US,
    _count_splits,
    _enumerate_options,
)
from repro.gpu import P100
from repro.gpu.kernels import GemmLaunch
from repro.runtime import Dispatcher, ExecutionPlan, Unit, build_units


@pytest.fixture()
def partitioned(tiny_sublstm):
    units = build_units(tiny_sublstm.graph)
    plan = ExecutionPlan(units=units)
    deps = Dispatcher(tiny_sublstm.graph).unit_dependencies(plan)
    partition = partition_epochs(units, deps, P100, num_streams=2)
    return units, deps, partition


class TestPartition:
    def test_every_unit_assigned(self, partitioned):
        units, _deps, partition = partitioned
        assert set(partition.coordinates) == {u.unit_id for u in units}

    def test_epochs_are_antichains(self, tiny_sublstm, partitioned):
        """Units within an epoch must be mutually independent."""
        units, deps, partition = partitioned
        for epoch in partition.epochs:
            for uid in epoch.unit_ids:
                assert not (deps[uid] & set(epoch.unit_ids))

    def test_coordinates_stay_off_units(self, tiny_sublstm):
        """Partitioning assigns every unit a coordinate and writes none
        onto the (template-shared) units: a plan reads them from its
        ``epoch_of`` side table."""
        units = build_units(tiny_sublstm.graph)
        before = [dict(vars(u)) for u in units]
        deps = Dispatcher(tiny_sublstm.graph).unit_dependencies(ExecutionPlan(units=units))
        partition = partition_epochs(units, deps, P100, num_streams=2)
        assert [vars(u) for u in units] == before
        plan = ExecutionPlan(units=units, epoch_of=dict(partition.coordinates))
        for unit in units:
            assert plan.epoch(unit.unit_id) == partition.coordinates[unit.unit_id]
            assert min(plan.epoch(unit.unit_id)) >= 0

    def test_dependencies_flow_forward(self, partitioned):
        """A unit's dependencies live in earlier (or equal) coordinates."""
        units, deps, partition = partitioned
        for uid, parent_ids in deps.items():
            se, e = partition.coordinates[uid]
            for parent in parent_ids:
                pse, pe = partition.coordinates[parent]
                assert (pse, pe) < (se, e)

    def test_super_epoch_boundaries_reset(self, partitioned):
        """Barrier units are the last unit of each non-final super-epoch."""
        units, _deps, partition = partitioned
        barriers = partition.barrier_units()
        assert len(barriers) == partition.num_super_epochs - 1

    def test_deep_model_multiple_super_epochs(self, tiny_gnmt):
        units = build_units(tiny_gnmt.graph)
        deps = Dispatcher(tiny_gnmt.graph).unit_dependencies(ExecutionPlan(units=units))
        partition = partition_epochs(units, deps, P100, target_us=200.0)
        assert partition.num_super_epochs > 2


class TestEquivalenceOptions:
    def _units(self, shapes):
        return {
            i: Unit(i, GemmLaunch(*shape, "cublas"), (i + 1,))
            for i, shape in enumerate(shapes)
        }

    def test_equivalent_kernels_counted_not_permuted(self):
        """Section 4.5.5: 10 identical kernels over 2 streams is a count
        split, not 2^10 assignments."""
        units = self._units([(64, 64, 64)] * 10)
        options = _enumerate_options(list(units), units, 2)
        assert len(options) <= 11

    def test_heterogeneous_kernels_enumerated(self):
        units = self._units([(64, 64, 64), (32, 128, 32), (16, 16, 256)])
        options = _enumerate_options(list(units), units, 2)
        assert len(options) > 3

    def test_option_cap(self):
        units = self._units([(64, 64 + i, 64) for i in range(8)])
        options = _enumerate_options(list(units), units, 2)
        assert len(options) <= MAX_EPOCH_OPTIONS

    def test_first_option_single_stream(self):
        units = self._units([(64, 64, 64)] * 4)
        options = _enumerate_options(list(units), units, 2)
        assert set(options[0].values()) == {0}

    def test_flop_balance_pruning(self):
        """Section 4.8: grossly unbalanced assignments are not enumerated."""
        units = self._units([(512, 1024, 1024), (8, 8, 8)])
        options = _enumerate_options(list(units), units, 2)
        for option in options:
            # the tiny kernel alone on a stream with the giant on the other
            # is fine, but the giant alone opposite nothing-but-tiny is the
            # only shape available; just confirm pruning kept a valid set
            assert set(option.values()) <= {0, 1}

    def test_single_unit_trivial(self):
        units = self._units([(64, 64, 64)])
        assert _enumerate_options(list(units), units, 2) == [{0: 0}]

    def test_count_splits(self):
        splits = _count_splits(3, 2)
        assert (3, 0) in splits and (0, 3) in splits and len(splits) == 4
        assert splits[0] == (3, 0)  # most-serial first

    def test_count_splits_single_stream(self):
        assert _count_splits(5, 1) == [(5,)]


class TestStaticKnowledgePruning:
    def test_trivial_epochs_not_adapted(self, tiny_scrnn):
        """Epochs under the static time floor get a single option."""
        units = build_units(tiny_scrnn.graph)
        deps = Dispatcher(tiny_scrnn.graph).unit_dependencies(ExecutionPlan(units=units))
        partition = partition_epochs(units, deps, P100)
        tiny_epochs = [e for e in partition.epochs if len(e.options) == 1]
        assert tiny_epochs  # the tiny model has many sub-threshold epochs
