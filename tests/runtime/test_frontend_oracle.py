"""The per-graph lowering memos change no number.

Every plan an exploration builds, every pre-ranker estimate, every unit
dependency set (in iteration order, which numbers the events) and every
kernel cost equals what the pre-memo code in ``_reference_lowering``
computes: fresh kernels per launch, uncached chains, a linear scan of
the singleton members, a recursive walk per plan and unmemoized costs.
"""

import dataclasses

import pytest

from repro import AstraSession
from repro.baselines.cudnn import cudnn_plan
from repro.baselines.native import native_plan
from repro.baselines.xla import xla_plan
from repro.core.enumerator import Enumerator
from repro.gpu import P100, CopyLaunch
from repro.gpu.cost_model import units_cost_us
from repro.ir import Tracer, ops
from repro.perf.ranker import estimate_choice_us
from repro.runtime import Dispatcher, ExecutionPlan, Executor, Unit
from repro.runtime.lowering import NO_SOURCE, graph_lowering

from ._reference_lowering import (
    ReferenceDispatcher,
    reference_build_units,
    reference_cudnn_plan,
    reference_kernel_costs,
    reference_native_plan,
    reference_units_for_choice,
    reference_xla_plan,
)

MODELS = ["tiny_scrnn", "tiny_milstm", "tiny_gnmt"]


def ordered(deps: dict) -> list:
    """Dependency sets with their iteration order, which numbers events."""
    return [(uid, list(found)) for uid, found in deps.items()]


def assert_lowers_like_the_reference(graph, plan) -> None:
    assert ordered(Dispatcher(graph).unit_dependencies(plan)) == ordered(
        ReferenceDispatcher(graph).unit_dependencies(plan)
    )
    table = Dispatcher(graph).lower(plan).compiled.table
    assert table.costs(P100) == reference_kernel_costs(table.kernels, P100)


def explore(model, features, monkeypatch) -> tuple[list, list]:
    """Every ``build_plan`` call (with its arguments and result) and every
    plan ``Executor.run`` receives in one exploration."""
    builds, plans = [], []
    build_plan, run = Enumerator.build_plan, Executor.run

    def recording_build(self, strategy, assignment, *args, **kwargs):
        built = build_plan(self, strategy, assignment, *args, **kwargs)
        # the stream phase adds its own variables to ``var_units`` later
        var_units = {name: list(ids) for name, ids in built.var_units.items()}
        builds.append((self, strategy, dict(assignment), list(built.plan.units), var_units))
        return built

    def recording_run(self, plan, validate=None):
        plans.append(plan)
        return run(self, plan, validate=validate)

    monkeypatch.setattr(Enumerator, "build_plan", recording_build)
    monkeypatch.setattr(Executor, "run", recording_run)
    AstraSession(model, features=features).optimize()
    monkeypatch.undo()
    return builds, plans


@pytest.mark.parametrize("features", ["FK", "all"])
@pytest.mark.parametrize("model_fixture", MODELS)
def test_explored_plans_equal_the_reference(model_fixture, features, request, monkeypatch):
    model = request.getfixturevalue(model_fixture)
    builds, plans = explore(model, features, monkeypatch)
    assert builds and plans
    # a plan's units and dependencies are functions of its unit
    # assignment, and its kernel table of its unit objects: check each
    # distinct one once
    checked = set()
    for enum, strategy, assignment, units, var_units in builds:
        key = (strategy.strategy_id, repr(sorted(
            (name, value) for name, value in assignment.items()
            if not name.startswith("stream:")
        )))
        if key in checked:
            continue
        checked.add(key)
        reference = reference_build_units(enum, strategy, assignment)
        assert units == reference.units
        assert var_units == reference.var_units
    for plan in {tuple(map(id, plan.units)): plan for plan in plans}.values():
        assert_lowers_like_the_reference(model.graph, plan)
    if model_fixture != "tiny_scrnn":
        # weight-pack prologues list the leaves they gather: a leaf has a
        # producer in these plans and none in the native one
        assert any(u.label.startswith("pack") for plan in plans for u in plan.units)


@pytest.mark.parametrize("features", ["FK", "all"])
@pytest.mark.parametrize("model_fixture", MODELS)
def test_choice_estimates_equal_the_reference(model_fixture, features, request):
    model = request.getfixturevalue(model_fixture)
    enum = AstraSession(model, features=features).wirer.enumerator
    checked = 0
    with model.graph.memoized():  # as the pre-ranker runs inside optimize
        for strategy in enum.strategies:
            for var in enum.build_fk_tree(strategy).variables():
                for choice in var.choices:
                    units = enum.units_for_choice(strategy, var, choice)
                    reference = reference_units_for_choice(enum, strategy, var, choice)
                    assert units == reference
                    assert estimate_choice_us(enum, strategy, var, choice, P100) == (
                        units_cost_us(reference, P100)
                    )
                    checked += 1
    assert checked


@pytest.mark.parametrize("model_fixture", MODELS)
def test_baseline_plans_equal_the_reference(model_fixture, request):
    """Built in one memoized block, as a session builds them, the
    baselines share kernels and sweeps and still equal the reference."""
    graph = request.getfixturevalue(model_fixture).graph
    with graph.memoized():
        pairs = [
            (native_plan(graph), reference_native_plan(graph)),
            (native_plan(graph, fuse_elementwise=True),
             reference_native_plan(graph, fuse_elementwise=True)),
            (xla_plan(graph, P100), reference_xla_plan(graph, P100)),
            (cudnn_plan(graph), reference_cudnn_plan(graph)),
        ]
        for plan, reference in pairs:
            assert plan == reference
            assert_lowers_like_the_reference(graph, plan)


@pytest.fixture
def free_nodes():
    """Matmuls whose outputs reach their consumers through reshapes, a
    chain of two reshapes, and a fill."""
    tr = Tracer("free_nodes")
    x = tr.input((8, 8))
    a = tr.matmul(x, tr.param((8, 8)))
    b = tr.reshape(tr.reshape(tr.matmul(x, tr.param((8, 8))), (64,)), (8, 8))
    c = tr.add(tr.reshape(a, (8, 8)), b)
    d = tr.add(c, tr.fill((8, 8), 1.0))
    tr.output(tr.tanh(d))
    return tr.graph


def free_node_ids(graph) -> list[int]:
    return [n.node_id for n in graph.nodes if isinstance(n.op, (ops.Reshape, ops.Fill))]


def test_the_closure_looks_through_free_nodes(free_nodes):
    """Each input resolves to the matmul above its reshapes; the fill has
    no producer."""
    closure, free, ends = graph_lowering(free_nodes).producers
    matmuls = [n.node_id for n in free_nodes.nodes if isinstance(n.op, ops.MatMul)]
    adds = [n for n in free_nodes.nodes if isinstance(n.op, ops.Add)]
    assert list(closure[adds[0].node_id]) == matmuls
    assert closure[adds[1].node_id][1] == NO_SOURCE and NO_SOURCE in ends
    assert free == set(free_node_ids(free_nodes))


@pytest.mark.parametrize("model_fixture", ["free_nodes", "tiny_gnmt"])
def test_a_plan_covering_a_free_node_walks_the_graph(model_fixture, request):
    """A unit over a reshape or fill stops the walk there, so the closure
    (which looks through them) must not be used for that plan."""
    model = request.getfixturevalue(model_fixture)
    graph = getattr(model, "graph", model)
    plan = native_plan(graph)
    assert_lowers_like_the_reference(graph, plan)
    free = free_node_ids(graph)
    assert free
    extra = [
        Unit(len(plan.units) + i, CopyLaunch(64, node_ids=(nid,)), (nid,))
        for i, nid in enumerate(free)
    ]
    covering = dataclasses.replace(plan, units=plan.units + extra)
    assert_lowers_like_the_reference(graph, covering)
    deps = Dispatcher(graph).unit_dependencies(covering)
    assert {u.unit_id for u in extra} <= set().union(*deps.values())


@pytest.mark.parametrize("model_fixture", ["free_nodes", "tiny_milstm"])
def test_uncovered_compute_nodes_walk_through(model_fixture, request):
    """A plan may leave compute nodes uncovered; their consumers then
    depend on whatever produces the uncovered node's inputs."""
    model = request.getfixturevalue(model_fixture)
    graph = getattr(model, "graph", model)
    for units in (native_plan(graph).units[::2], native_plan(graph).units[1::2]):
        assert_lowers_like_the_reference(graph, ExecutionPlan(units=units, profile=False))
