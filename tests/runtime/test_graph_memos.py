"""Lifetime of the per-graph lowering memos and of the kernel-cost memo.

The memos are built lazily inside ``optimize`` and dropped when it
returns: constructing a session builds none, a graph kept after a run
holds none, and none ever travels through pickle.
"""

import copy
import dataclasses
import pickle

import pytest

from repro import AstraSession
from repro.baselines.native import native_plan
from repro.gpu import P100, ElementwiseLaunch, GemmLaunch
from repro.gpu.libraries import CUBLAS
from repro.gpu.streams import KernelTable
from repro.models import build_scrnn
from repro.runtime import Dispatcher
from repro.runtime.lowering import graph_lowering

from tests.conftest import TINY


def test_session_construction_populates_no_memo():
    model = build_scrnn(TINY)
    session = AstraSession(model, features="all")
    enum = session.wirer.enumerator
    assert model.graph._memos == {}
    assert enum._gemm_keys == {} and enum._shape_index == {}
    assert not enum._template_cache


def test_memos_live_inside_optimize_only(monkeypatch):
    """Every lowering inside one ``optimize`` shares one memo; afterwards
    the graph holds none."""
    model = build_scrnn(TINY)
    seen = set()
    lower = Dispatcher.lower

    def recording(self, plan, compiled=None):
        seen.add(id(graph_lowering(self.graph)))
        return lower(self, plan, compiled)

    monkeypatch.setattr(Dispatcher, "lower", recording)
    AstraSession(model, features="FK").optimize()
    assert len(seen) == 1
    assert model.graph._memos == {}


def test_worker_spec_of_an_optimized_graph_pickles_like_a_fresh_one():
    """The graph -- what a worker spec would carry -- pickles to the same
    bytes before a run, after it and with its memos populated."""
    model = build_scrnn(TINY)
    session = AstraSession(model, features="all")
    fresh = len(pickle.dumps(model.graph))
    session.optimize()
    assert len(pickle.dumps(model.graph)) == fresh
    with model.graph.memoized():
        graph_lowering(model.graph).producers  # populated mid-run
        assert len(pickle.dumps(model.graph)) == fresh
        assert copy.deepcopy(model.graph)._memos == {}


def test_blocks_nest_and_a_new_node_drops_the_memo(mlp_tracer):
    tracer, loss = mlp_tracer
    graph = tracer.graph
    assert graph_lowering(graph) is not graph_lowering(graph)
    with graph.memoized():
        first = graph_lowering(graph)
        with graph.memoized():
            assert graph_lowering(graph) is first
        assert graph_lowering(graph) is first
        tracer.tanh(loss)
        assert graph_lowering(graph) is not first
    assert graph._memos == {}


def test_kernel_costs_are_shared_by_cost_key(monkeypatch):
    """A table costs only kernels whose cost key no earlier table sharing
    its memo has costed; equal keys read equal costs."""
    known: dict = {}
    first = KernelTable([GemmLaunch(64, 64, 64, "cublas", node_ids=(1,)),
                         ElementwiseLaunch(4096, node_ids=(2,))], known)
    costed = []
    duration = GemmLaunch.duration_us

    def counting(self, device):
        costed.append(self)
        return duration(self, device)

    monkeypatch.setattr(GemmLaunch, "duration_us", counting)
    durations, _caps, kinds = first.costs(P100)
    second = KernelTable([GemmLaunch(64, 64, 64, "cublas", node_ids=(7,)),
                          GemmLaunch(64, 64, 64, "oai_1", node_ids=(1,))], known)
    again, _caps, _kinds = second.costs(P100)
    assert len(costed) == 2  # the first table's GEMM, then the oai_1 one
    assert again[0] == durations[0] and kinds == ["gemm", "elementwise"]
    assert len(known[P100]) == 3


def test_native_kernels_are_reused_by_later_plans(tiny_milstm):
    graph = tiny_milstm.graph
    with graph.memoized():
        first = native_plan(graph)
        second = native_plan(graph)
        assert all(a.kernel is b.kernel for a, b in zip(first.units, second.units))
    assert native_plan(graph).units[0].kernel is not first.units[0].kernel


def test_gemm_plan_memo_never_aliases_a_test_built_library():
    """The memo keys libraries by name; a library built with the same name
    but other physics reads its own plan, never the stock one's."""
    stock = CUBLAS.plan(256, 512, 1024, P100)
    slow = dataclasses.replace(CUBLAS, startup_us=CUBLAS.startup_us + 50.0)
    assert slow.plan(256, 512, 1024, P100).duration_us == pytest.approx(
        stock.duration_us + 50.0
    )
    assert CUBLAS.plan(256, 512, 1024, P100) == stock
    assert dataclasses.replace(CUBLAS).plan(256, 512, 1024, P100) == stock
