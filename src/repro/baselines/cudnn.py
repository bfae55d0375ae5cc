"""cuDNN-style baseline: hand-optimized compound kernels (section 2.4).

cuDNN accelerates *popular* layer structures -- standard LSTM stacks in
particular -- with hand-fused compound kernels that execute a whole
layer's step in a few near-peak launches (up to 6x over naive framework
execution for recurrent layers).  Two properties matter for the paper's
comparison:

* coverage is structural: a standard LSTM step is covered; MI-LSTM,
  subLSTM, SC-RNN and attention modules are not (they fall back to the
  native per-node execution, which is the gap Astra closes);
* the API works one layer at a time, so no cross-layer or whole-graph
  optimization happens (section 2.4).

Coverage detection here mirrors how a framework integrates cuDNN: a
layer/step scope whose GEMM structure matches the standard LSTM gate
pattern (4 gate ladders of x@W + h@U sharing (x, h)) is replaced by one
compound kernel.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from ..gpu.device import GPUSpec
from ..gpu.kernels import CompoundLaunch
from ..ir.graph import Graph
from ..runtime.executor import Executor, MiniBatchResult
from ..runtime.lowering import graph_lowering
from ..runtime.plan import ExecutionPlan, Unit
from ..core.fusion import analyse_fusion

#: sustained fraction of device peak inside a cuDNN compound kernel
CUDNN_EFFICIENCY = 0.72

#: cuDNN batches the input GEMMs of a recurrent layer across time steps,
#: so per covered step it pays well under one launch on average; we model
#: one compound launch per step plus the elementwise tail fused in.


@dataclass
class CudnnCoverage:
    """Which parts of the graph the accelerator covers."""

    #: scope -> node ids replaced by one compound kernel
    covered_scopes: dict[str, tuple[int, ...]]
    covered_nodes: set[int]

    @property
    def fraction_of_gemms(self) -> float:
        return getattr(self, "_gemm_fraction", 0.0)


def _absorb_sandwiched(graph: Graph, nodes: set[int], taken: set[int]) -> set[int]:
    """Convex closure: an elementwise node both fed by and feeding the
    covered set (directly or through one hop) must join it, otherwise the
    compound kernel and the outside node would depend on each other.
    Gradient-accumulation adds between a step's backward ops are the
    typical case."""
    nodes = set(nodes)
    changed = True
    while changed:
        changed = False
        frontier = {
            cid
            for nid in nodes
            for cid in graph.consumers(nid)
            if cid not in nodes and cid not in taken
        }
        for cid in frontier:
            node = graph.node(cid)
            if node.is_leaf or node.kind not in ("elementwise",):
                continue
            reaches = False
            for c1 in graph.consumers(cid):
                if c1 in nodes:
                    reaches = True
                    break
                if graph.node(c1).kind == "elementwise" and any(
                    c2 in nodes for c2 in graph.consumers(c1)
                ):
                    reaches = True
                    break
            if reaches:
                nodes.add(cid)
                changed = True
    return nodes


def detect_lstm_steps(graph: Graph) -> CudnnCoverage:
    """Find forward step scopes matching the standard LSTM pattern.

    A scope is covered when it contains a 4-ladder common-(x,h) fusion
    block (the signature of i/f/o/g gates) and the scope's remaining ops
    are elementwise -- i.e. a *standard* LSTM step.  Models with extra
    GEMMs in the step (attention) or non-ladder gate math (MI-LSTM) or
    non-standard cell output (subLSTM's ``sigmoid(c) - o``) do not match.

    The backward pass of a covered step is covered too (cuDNN provides
    the corresponding backward compound kernels).
    """
    analysis = analyse_fusion(graph)
    covered_scopes: dict[str, tuple[int, ...]] = {}
    covered_nodes: set[int] = set()

    for group in analysis.groups:
        if group.axis != "n" or len(group.members) != 4:
            continue
        if group.pass_tag != "forward":
            continue  # backward coverage follows from the forward match
        if not all(mb.is_ladder and len(mb.mm_ids) == 2 for mb in group.members):
            continue
        scope = group.members[0].scope
        if not all(mb.scope == scope for mb in group.members):
            continue
        # the four gate nonlinearity signature: 3 sigmoid + 1 tanh, looking
        # through residual bias adds between the ladder and the activation
        gate_outputs = [max(mb.node_ids) for mb in group.members]
        acts = []
        for out in gate_outputs:
            activation = "other"
            frontier = list(graph.consumers(out))
            hops = 0
            while frontier and hops < 3:
                next_frontier = []
                for cid in frontier:
                    op = graph.node(cid).op
                    if op is None:
                        continue
                    if op.name in ("sigmoid", "tanh"):
                        activation = op.name
                        next_frontier = []
                        break
                    if op.name == "add":
                        next_frontier.extend(graph.consumers(cid))
                frontier = next_frontier
                hops += 1
            acts.append(activation)
        if sorted(acts).count("sigmoid") != 3 or "tanh" not in acts:
            continue
        # cover the gate GEMMs plus the step's elementwise cell math, for
        # both passes: cuDNN ships matching backward compound kernels
        nodes = set(group.node_ids())
        for pass_tag in ("forward", "backward"):
            step_nodes = {
                n.node_id
                for n in graph.nodes
                if n.scope == scope and not n.is_leaf and n.pass_tag == pass_tag
            }
            pass_nodes = {
                nid for nid in step_nodes
                if graph.node(nid).kind in ("elementwise", "gemm")
            }
            if pass_tag == "forward":
                pass_nodes |= nodes
            if not pass_nodes:
                continue
            pass_nodes = _absorb_sandwiched(graph, pass_nodes, covered_nodes)
            key = f"{scope}/{pass_tag}"
            covered_scopes[key] = tuple(sorted(pass_nodes))
            covered_nodes |= pass_nodes

    coverage = CudnnCoverage(covered_scopes=covered_scopes, covered_nodes=covered_nodes)
    gemms = graph.gemm_nodes()
    covered_gemms = sum(1 for n in gemms if n.node_id in covered_nodes)
    coverage._gemm_fraction = covered_gemms / max(1, len(gemms))  # type: ignore[attr-defined]
    return coverage


def cudnn_plan(graph: Graph) -> ExecutionPlan:
    """Native execution with covered steps replaced by compound kernels."""
    coverage = detect_lstm_steps(graph)
    units: list[Unit] = []
    counter = itertools.count()

    for scope_key, node_ids in sorted(coverage.covered_scopes.items()):
        flops = 0
        rows = None
        for nid in node_ids:
            node = graph.node(nid)
            in_specs = [graph.node(i).spec for i in node.input_ids]
            flops += node.op.flops(in_specs, node.spec)  # type: ignore[union-attr]
            if node.kind == "gemm":
                m = node.op.gemm_dims(in_specs)[0]  # type: ignore[union-attr]
                rows = m if rows is None else min(rows, m)  # batch dim
        kernel = CompoundLaunch(
            total_flops=flops, efficiency=CUDNN_EFFICIENCY, rows=rows or 64,
            label=f"cudnn@{scope_key}", node_ids=node_ids,
        )
        units.append(Unit(next(counter), kernel, node_ids, label=kernel.label))

    lowering = graph_lowering(graph)
    for kernel in lowering.sweep(lowering.compute_ids - coverage.covered_nodes, fuse=False):
        units.append(Unit(next(counter), kernel, kernel.node_ids, label=kernel.name))

    return ExecutionPlan(units=units, profile=False, label="cudnn")


def run_cudnn(graph: Graph, device: GPUSpec) -> MiniBatchResult:
    """Execute one mini-batch with cuDNN-style acceleration applied."""
    executor = Executor(graph, device)
    return executor.run(cudnn_plan(graph))


def cudnn_applicable(graph: Graph, threshold: float = 0.25) -> bool:
    """True when a meaningful share of the GEMM work is cuDNN-covered."""
    return detect_lstm_steps(graph).fraction_of_gemms >= threshold
