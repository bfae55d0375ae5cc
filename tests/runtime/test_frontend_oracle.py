"""The per-graph lowering memos change no number.

Every plan an exploration builds, every pre-ranker estimate, every unit
dependency set (in iteration order, which numbers the events), every
compiled index and every kernel cost equals what the pre-memo code in
``_reference_lowering`` computes: fresh kernels per launch, uncached
chains, a linear scan of the singleton members, a recursive walk and a
Kahn heap per plan and unmemoized costs.  Candidates built one after
another -- each from the emissions, chains and unit sources the earlier
ones left -- equal it too.
"""

import dataclasses

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro import AstraSession
from repro.baselines.cudnn import cudnn_plan
from repro.baselines.native import native_plan
from repro.baselines.xla import xla_plan
from repro.core.enumerator import AstraFeatures, Enumerator
from repro.gpu import P100, CopyLaunch
from repro.gpu.cost_model import units_cost_us
from repro.ir import Tracer, ops
from repro.perf.ranker import estimate_choices_us
from repro.runtime import Dispatcher, ExecutionPlan, Executor, Unit
from repro.runtime.lowering import NO_SOURCE, graph_lowering

from ._reference_lowering import (
    reference_build_units,
    reference_compile,
    reference_cudnn_plan,
    reference_elementwise_chains,
    reference_kernel_costs,
    reference_native_plan,
    reference_units_for_choice,
    reference_xla_plan,
)

MODELS = ["tiny_scrnn", "tiny_milstm", "tiny_gnmt"]


def ordered(deps: dict) -> list:
    """Dependency sets with their iteration order, which numbers events."""
    return [(uid, list(found)) for uid, found in deps.items()]


#: what a compiled schedule derives from the plan's structure and units
COMPILED_FIELDS = ("order_ids", "step_deps", "edge_uids", "edge_deps", "copies",
                   "record_units")


def assert_lowers_like_the_reference(graph, plan, dispatcher=None) -> None:
    dispatcher = dispatcher or Dispatcher(graph)
    reference_deps, expected = reference_compile(graph, plan)
    assert ordered(dispatcher.unit_dependencies(plan)) == ordered(reference_deps)
    compiled = dispatcher.compile(plan)
    for field in COMPILED_FIELDS:
        assert getattr(compiled, field) == getattr(expected, field), field
    table = compiled.table
    assert table.kernels == expected.table.kernels
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
                references = []
                for choice in var.choices:
                    units = enum.units_for_choice(strategy, var, choice)
                    reference = reference_units_for_choice(enum, strategy, var, choice)
                    assert units == reference
                    references.append(units_cost_us(reference, P100))
                    checked += 1
                assert estimate_choices_us(enum, strategy, var, P100) == references
    assert checked


def assert_estimates_equal_the_reference(enum, strategy, variables) -> None:
    for var in variables:
        assert estimate_choices_us(enum, strategy, var, P100) == [
            units_cost_us(reference_units_for_choice(enum, strategy, var, choice), P100)
            for choice in var.choices
        ], var.name


@pytest.mark.parametrize("model_fixture", MODELS)
@settings(max_examples=6, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_candidates_built_as_deltas_equal_the_reference(model_fixture, request, data):
    """A random walk over FK assignments, as an exploration takes one:
    the pre-ranker's estimates first, then each candidate built and
    compiled from what the ones before it left in the memos."""
    graph = request.getfixturevalue(model_fixture).graph
    features = AstraFeatures.preset(data.draw(st.sampled_from(["FK", "all"])))
    with graph.memoized():
        enum = Enumerator(graph, P100, features)
        dispatcher = Dispatcher(graph)
        strategy = data.draw(st.sampled_from(enum.strategies))
        variables = list(enum.build_fk_tree(strategy).variables())
        assert_estimates_equal_the_reference(enum, strategy, variables)
        assignment = {var.name: var.choices[0] for var in variables}
        for _ in range(data.draw(st.integers(2, 5))):
            changed = data.draw(st.lists(
                st.sampled_from(variables), max_size=len(variables),
                unique_by=lambda var: var.name,
            ))
            for var in changed:
                assignment[var.name] = data.draw(st.sampled_from(var.choices))
            built = enum.build_plan(strategy, assignment)
            reference = reference_build_units(enum, strategy, assignment)
            assert built.plan.units == reference.units
            assert built.var_units == reference.var_units
            assert_lowers_like_the_reference(graph, built.plan, dispatcher)


@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_chains_rederived_from_the_last_set_equal_the_reference(tiny_gnmt, data):
    """Chains of one node set after another, each re-derived from the
    previous set's, equal a fresh scan of the graph."""
    graph = tiny_gnmt.graph
    with graph.memoized():
        lowering = graph_lowering(graph)
        nodes = sorted(lowering.fusable)
        for _ in range(data.draw(st.integers(1, 4))):
            subset = set(data.draw(st.lists(st.sampled_from(nodes), max_size=len(nodes))))
            if data.draw(st.booleans()):
                subset = set(nodes) - subset
            assert lowering.chains(subset) == reference_elementwise_chains(graph, subset)


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
