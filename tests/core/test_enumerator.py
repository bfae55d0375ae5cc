"""Tests for the enumerator: update trees and plan instantiation."""

import copy

import pytest

from repro.core import AstraFeatures, Enumerator, partition_epochs
from repro.gpu import P100
from repro.runtime import Dispatcher


@pytest.fixture()
def enum_fk(tiny_sublstm):
    return Enumerator(tiny_sublstm.graph, P100, AstraFeatures.preset("FK"))


class TestFeaturePresets:
    def test_presets(self):
        assert AstraFeatures.preset("F").kernel is False
        assert AstraFeatures.preset("FK").kernel is True
        assert AstraFeatures.preset("FKS").streams is True
        assert AstraFeatures.preset("all").allocation is True

    def test_unknown_preset(self):
        with pytest.raises(ValueError):
            AstraFeatures.preset("XYZ")

    def test_allocation_gates_strategy_count(self, tiny_sublstm):
        fk = Enumerator(tiny_sublstm.graph, P100, AstraFeatures.preset("FK"))
        alla = Enumerator(tiny_sublstm.graph, P100, AstraFeatures.preset("all"))
        assert len(fk.strategies) == 1
        assert len(alla.strategies) >= 2


class TestFkTree:
    def test_tree_has_fusion_variables(self, enum_fk):
        tree = enum_fk.build_fk_tree(enum_fk.strategies[0])
        names = [v.name for v in tree.variables()]
        assert any(n.startswith("fusion:") for n in names)

    def test_kernel_variables_only_with_k(self, tiny_sublstm):
        f_only = Enumerator(tiny_sublstm.graph, P100, AstraFeatures.preset("F"))
        tree = f_only.build_fk_tree(f_only.strategies[0])
        for var in tree.variables():
            if var.name.startswith("fusion:"):
                libs = {lib for (_c, lib) in var.choices}
                assert libs == {"cublas"}
            assert not var.name.startswith("kernel:")

    def test_fk_has_library_choices(self, enum_fk):
        tree = enum_fk.build_fk_tree(enum_fk.strategies[0])
        fusion_vars = [v for v in tree.variables() if v.name.startswith("fusion:")]
        libs = {lib for v in fusion_vars for (_c, lib) in v.choices}
        assert libs == {"cublas", "oai_1", "oai_2"}

    def test_root_is_parallel(self, enum_fk):
        tree = enum_fk.build_fk_tree(enum_fk.strategies[0])
        assert tree.mode == "parallel"


class TestPlanBuilding:
    def test_default_assignment_builds_valid_plan(self, enum_fk, tiny_sublstm):
        strategy = enum_fk.strategies[0]
        tree = enum_fk.build_fk_tree(strategy)
        built = enum_fk.build_plan(strategy, tree.assignment())
        built.plan.validate_covering()
        Dispatcher(tiny_sublstm.graph).lower(built.plan)

    def test_every_gemm_node_covered(self, enum_fk, tiny_sublstm):
        strategy = enum_fk.strategies[0]
        tree = enum_fk.build_fk_tree(strategy)
        built = enum_fk.build_plan(strategy, tree.assignment())
        covered = {nid for u in built.plan.units for nid in u.node_ids}
        for node in tiny_sublstm.graph.gemm_nodes():
            assert node.node_id in covered

    def test_chunking_changes_unit_count(self, enum_fk):
        strategy = enum_fk.strategies[0]
        tree = enum_fk.build_fk_tree(strategy)
        base = tree.assignment()
        fused = dict(base)
        unfused = dict(base)
        target = next(n for n in base if n.startswith("fusion:") and "block" not in n)
        var = next(v for v in tree.variables() if v.name == target)
        chunks = sorted({c for (c, _l) in var.choices})
        if len(chunks) > 1:
            unfused[target] = (chunks[0], "cublas")
            fused[target] = (chunks[-1], "cublas")
            n_unfused = len(enum_fk.build_plan(strategy, unfused).plan.units)
            n_fused = len(enum_fk.build_plan(strategy, fused).plan.units)
            assert n_fused < n_unfused

    def test_var_units_attribution_complete(self, enum_fk):
        """Every live variable must own at least one unit so its metric is
        measurable (the custom-wirer depends on this)."""
        strategy = enum_fk.strategies[0]
        tree = enum_fk.build_fk_tree(strategy)
        built = enum_fk.build_plan(strategy, tree.assignment())
        for var in tree.variables():
            assert built.var_units.get(var.name), f"{var.name} owns no units"

    def test_var_units_attribution_under_every_choice(self, enum_fk):
        """Attribution must hold for chunked and unfused choices alike."""
        strategy = enum_fk.strategies[0]
        tree = enum_fk.build_fk_tree(strategy)
        for var in tree.variables():
            if not var.name.startswith("fusion:"):
                continue
            for choice in var.choices[:4]:
                assignment = tree.assignment()
                assignment[var.name] = choice
                built = enum_fk.build_plan(strategy, assignment)
                assert built.var_units.get(var.name)

    def test_library_assignment_respected(self, enum_fk):
        strategy = enum_fk.strategies[0]
        tree = enum_fk.build_fk_tree(strategy)
        assignment = tree.assignment()
        target = next(n for n in assignment if n.startswith("fusion:"))
        chunk, _lib = assignment[target]
        assignment[target] = (chunk, "oai_2")
        built = enum_fk.build_plan(strategy, assignment)
        libs = {
            built.plan.unit_by_id(uid).kernel.library
            for uid in built.var_units[target]
            if built.plan.unit_by_id(uid).kernel.kind == "gemm"
        }
        assert libs == {"oai_2"}

    def test_unsupported_group_chunked_requires_gather(self, tiny_sublstm):
        """Fusing under an unsatisfied layout inserts pack/gather copies."""
        enum = Enumerator(tiny_sublstm.graph, P100, AstraFeatures.preset("all"))
        # find a strategy and group it does NOT support
        found = None
        for strategy in enum.strategies:
            for group in enum.analysis.groups:
                if not strategy.supports(group.requirement) and group.chunk_choices()[-1] > 1:
                    found = (strategy, group)
                    break
            if found:
                break
        assert found, "expected at least one unsupported group"
        strategy, group = found
        tree = enum.build_fk_tree(strategy)
        assignment = tree.assignment()
        chunk = group.chunk_choices()[-1]
        assignment[f"fusion:{group.group_id}"] = (chunk, "cublas")
        built = enum.build_plan(strategy, assignment)
        units = [built.plan.unit_by_id(u) for u in built.var_units[f"fusion:{group.group_id}"]]
        has_gather = any(
            u.pre_copies or u.label.startswith("pack") for u in units
        )
        assert has_gather

    def test_profile_unit_ids_restricted(self, enum_fk):
        strategy = enum_fk.strategies[0]
        tree = enum_fk.build_fk_tree(strategy)
        built = enum_fk.build_plan(strategy, tree.assignment())
        assert built.plan.profile_unit_ids is not None
        assert len(built.plan.profile_unit_ids) < len(built.plan.units)


class TestStreamPhase:
    def test_prepare_stream_phase(self, tiny_sublstm):
        enum = Enumerator(tiny_sublstm.graph, P100, AstraFeatures.preset("FKS"))
        strategy = enum.strategies[0]
        tree = enum.build_fk_tree(strategy)
        partition, stream_tree = enum.prepare_stream_phase(strategy, tree.assignment())
        assert partition.num_super_epochs >= 1
        assert stream_tree.mode == "parallel"
        for child in stream_tree.children:
            assert child.mode == "prefix"

    def test_stream_plan_valid(self, tiny_sublstm):
        enum = Enumerator(tiny_sublstm.graph, P100, AstraFeatures.preset("FKS"))
        strategy = enum.strategies[0]
        fk = enum.build_fk_tree(strategy).assignment()
        partition, stree = enum.prepare_stream_phase(strategy, fk)
        options = {}
        for var in stree.variables():
            ordinal, epoch = var.payload
            options[ordinal] = epoch.options[min(1, len(epoch.options) - 1)]
        built = enum.build_plan(
            strategy, fk, stream_options=options, partition=partition
        )
        built.plan.validate_covering()
        lowered = Dispatcher(tiny_sublstm.graph).lower(built.plan)
        assert built.plan.num_streams >= 1


class TestTemplateImmutability:
    """Cached unit templates are shared by every plan built from them;
    plan-specific coordinates live in each plan's own ``epoch_of``."""

    def test_two_partitions_share_one_unchanged_template(self, tiny_sublstm):
        enum = Enumerator(tiny_sublstm.graph, P100, AstraFeatures.preset("FKS"))
        strategy = enum.strategies[0]
        fk = enum.build_fk_tree(strategy).assignment()
        template = enum.build_plan(strategy, fk).plan.units
        # every attribute, so a coordinate written onto a unit shows up
        snapshot = copy.deepcopy([vars(u) for u in template])

        deps = Dispatcher(tiny_sublstm.graph).unit_dependencies(
            enum.build_plan(strategy, fk).plan
        )
        coarse = partition_epochs(template, deps, P100, num_streams=2)
        fine = partition_epochs(template, deps, P100, num_streams=2, target_us=50.0)
        assert coarse.coordinates != fine.coordinates

        plans = []
        for partition in (coarse, fine):
            options = {
                ordinal: epoch.options[-1]
                for ordinal, epoch in enumerate(partition.epochs)
            }
            plans.append(enum.build_plan(
                strategy, fk, stream_options=options, partition=partition
            ).plan)
        first, second = plans

        # copy-free: both plans hold the cached unit objects themselves ...
        for plan in plans:
            assert all(a is b for a, b in zip(plan.units, template))
        # ... and building them changed none of those units
        assert [vars(u) for u in template] == snapshot
        # each plan reads its own partition's coordinates
        assert first.epoch_of == coarse.coordinates
        assert second.epoch_of == fine.coordinates
        assert first.epoch_of is not second.epoch_of
        for unit in template:
            assert first.epoch(unit.unit_id) == coarse.coordinates[unit.unit_id]
            assert second.epoch(unit.unit_id) == fine.coordinates[unit.unit_id]
        # a plan built without a partition has no coordinates at all
        assert enum.build_plan(strategy, fk).plan.epoch_of == {}
