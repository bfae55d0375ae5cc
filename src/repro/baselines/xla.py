"""XLA-style baseline: static whole-graph compilation (section 6.6).

Models the two sides of XLA the paper measures:

* the benefit: aggressive *static* elementwise fusion (its cost model is
  good at pointwise fusion), which gives healthy speedups over native TF
  on elementwise-heavy recurrent cells;
* the robustness failure: embeddings.  XLA's static lowering of lookup
  ops bounces between CPU and GPU ("multiple transitions between CPU and
  GPU for lookups"), so every embedding gather/scatter becomes a
  device-to-host index copy, a host-side gather that stalls the dispatch
  thread, and a host-to-device copy of the result.  On embedding models
  this makes XLA *worse* than native TF (the paper saw 3x worse on
  SC-RNN), which is why Table 9 evaluates embedding-less model variants.

XLA does not re-fuse GEMMs into larger GEMMs, select kernel libraries by
shape, or use multiple streams -- the dimensions where Astra_FK wins.
"""

from __future__ import annotations

import itertools

from ..gpu.device import GPUSpec
from ..gpu.kernels import HostTransfer
from ..ir import ops
from ..ir.graph import Graph
from ..runtime.executor import Executor, MiniBatchResult
from ..runtime.lowering import graph_lowering
from ..runtime.plan import ExecutionPlan, Unit

#: host-side gather/scatter throughput, bytes per microsecond (a single
#: CPU core doing random-access row copies)
HOST_GATHER_BW = 4e3


def host_embedding_cost_us(graph: Graph, node_id: int, device: GPUSpec) -> float:
    """CPU time for one host-side embedding gather/scatter."""
    node = graph.node(node_id)
    return node.spec.size_bytes / HOST_GATHER_BW


def xla_plan(graph: Graph, device: GPUSpec) -> ExecutionPlan:
    """Statically compiled plan: fused elementwise clusters, stock GEMMs,
    and the host round-trip for every embedding op."""
    lowering = graph_lowering(graph)
    units: list[Unit] = []
    counter = itertools.count()
    covered: set[int] = set()

    # embeddings: lowered through the host
    for node in graph.nodes:
        if node.kind != ops.KIND_EMBEDDING:
            continue
        in_specs = [graph.node(i).spec for i in node.input_ids]
        if isinstance(node.op, ops.Embedding):
            down_bytes = in_specs[1].size_bytes  # indices to host
        else:  # EmbeddingGrad: gradient rows to host
            down_bytes = in_specs[1].size_bytes
        up_bytes = node.spec.size_bytes
        host_us = host_embedding_cost_us(graph, node.node_id, device)
        # one unit: d2h copy, then host gather stalls dispatch, then h2d
        units.append(
            Unit(
                next(counter),
                HostTransfer(up_bytes, direction="h2d", node_ids=(node.node_id,)),
                (node.node_id,),
                label=f"xla_host_{node.op.name}",
                pre_copies=(HostTransfer(down_bytes, direction="d2h"),),
                host_us=host_us + 2 * device.pcie_latency_us,
            )
        )
        covered.add(node.node_id)

    # aggressive static elementwise fusion, then stock per-node kernels
    # for everything else, single stream
    remaining = lowering.compute_ids - covered
    for kernel in lowering.sweep(remaining):
        chain = len(kernel.node_ids) > 1
        label = "xla_" + kernel.label if chain else kernel.name
        units.append(Unit(next(counter), kernel, kernel.node_ids, label=label))

    return ExecutionPlan(units=units, profile=False, label="xla")


def run_xla(graph: Graph, device: GPUSpec) -> MiniBatchResult:
    """Execute one mini-batch as XLA would compile it."""
    executor = Executor(graph, device)
    return executor.run(xla_plan(graph, device))
