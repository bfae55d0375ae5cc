"""Node-to-kernel lowering shared by every plan builder.

Maps DFG nodes onto simulator kernels: GEMM nodes become
:class:`~repro.gpu.kernels.GemmLaunch`, elementwise/reduction chains become
(optionally JIT-fused, section 5.3) :class:`ElementwiseLaunch`, data
movement becomes copies, and reshape/fill are free.  The native baseline
uses these units verbatim; Astra's enumerator replaces the GEMM units with
fused groups and re-streams everything.

Every plan of a graph lowers the same nodes the same way, so
:func:`graph_lowering` keeps what lowering derives from the graph alone
-- kernels, elementwise chains, kernel costs, the producer closure and
each unit's producer sources -- for the length of an ``optimize`` call,
each built on first use.
"""

from __future__ import annotations

from functools import cached_property

from ..gpu.kernels import CopyLaunch, ElementwiseLaunch, GemmLaunch, Kernel
from ..gpu.libraries import DEFAULT_LIBRARY
from ..ir import ops
from ..ir.graph import Graph, Node
from .plan import Unit

#: op kinds lowered into a single (possibly fused) elementwise launch
_FUSABLE_KINDS = {ops.KIND_ELEMENTWISE, ops.KIND_REDUCTION}
#: ops no kernel executes: metadata changes and constant fills
_FREE_OPS = (ops.Reshape, ops.Fill)


def kernel_for_node(graph: Graph, node: Node, library: str = DEFAULT_LIBRARY) -> Kernel | None:
    """The kernel executing one node alone, or None for free ops."""
    if node.is_leaf or node.op is None:
        return None
    op = node.op
    if isinstance(op, _FREE_OPS):
        return None
    in_specs = [graph.node(i).spec for i in node.input_ids]
    if node.kind == ops.KIND_GEMM:
        assert isinstance(op, ops.MatMul)
        m, k, n = op.gemm_dims(in_specs)
        return GemmLaunch(m, k, n, library, node_ids=(node.node_id,))
    if node.kind in _FUSABLE_KINDS:
        elems = node.spec.num_elements
        flops = op.flops(in_specs, node.spec)
        traffic = op.bytes_accessed(in_specs, node.spec)
        return ElementwiseLaunch(
            num_elements=elems,
            fused_ops=1,
            flops_per_element=flops / elems,
            bytes_per_element=traffic / elems,
            node_ids=(node.node_id,),
            label=op.name,
        )
    if node.kind == ops.KIND_EMBEDDING:
        traffic = op.bytes_accessed(in_specs, node.spec)
        return ElementwiseLaunch(
            num_elements=node.spec.num_elements,
            fused_ops=1,
            flops_per_element=0.0,
            bytes_per_element=traffic / node.spec.num_elements,
            node_ids=(node.node_id,),
            label=op.name,
        )
    if node.kind == ops.KIND_MOVEMENT:
        return CopyLaunch(
            bytes_moved=node.spec.size_bytes,
            label=op.name,
            node_ids=(node.node_id,),
        )
    raise NotImplementedError(f"no lowering for op kind {node.kind!r} ({op.name})")


def fused_elementwise_kernel(graph: Graph, node_ids: tuple[int, ...]) -> ElementwiseLaunch:
    """One launch computing a chain of elementwise ops (JIT fusion, 5.3)."""
    graph_nodes = graph.nodes
    nodes = [graph_nodes[nid] for nid in node_ids]
    out = nodes[-1]
    elems = out.spec.num_elements
    total_flops = 0
    for node in nodes:
        in_specs = [graph_nodes[i].spec for i in node.input_ids]
        total_flops += node.op.flops(in_specs, node.spec)  # type: ignore[union-attr]
    # fused chain streams external inputs once and writes one output
    members = set(node_ids)
    external_inputs = {
        inp
        for node in nodes
        for inp in node.input_ids
        if inp not in members
    }
    traffic = out.spec.size_bytes + sum(graph_nodes[i].spec.size_bytes for i in external_inputs)
    return ElementwiseLaunch(
        num_elements=elems,
        fused_ops=len(nodes),
        flops_per_element=total_flops / (elems * len(nodes)),
        bytes_per_element=traffic / (elems * len(nodes)),
        node_ids=tuple(node_ids),
        label="fused_" + nodes[-1].op.name,  # type: ignore[union-attr]
    )


def elementwise_chains(graph: Graph, node_ids: set[int] | None = None) -> list[tuple[int, ...]]:
    """Greedy chain detection for elementwise JIT fusion, over ``node_ids``
    (every node when None); see :meth:`GraphLowering.chains`."""
    lowering = graph_lowering(graph)
    return lowering.chains(lowering.fusable if node_ids is None else node_ids)


def build_units(
    graph: Graph,
    gemm_library: str = DEFAULT_LIBRARY,
    fuse_elementwise: bool = False,
) -> list[Unit]:
    """Per-node units (the native execution model), with optional
    elementwise chain fusion.  GEMMs stay one unit per node here; fused
    GEMM units are built by the enumerator."""
    lowering = graph_lowering(graph)
    launches = lowering.sweep(lowering.compute_ids, fuse_elementwise, gemm_library)
    return [
        Unit(uid, kernel, kernel.node_ids,
             label=kernel.label if len(kernel.node_ids) > 1 else kernel.name)
        for uid, kernel in enumerate(launches)
    ]


#: producer-closure sources that are not nodes: the path ends at a free
#: node without inputs (no producer), or forks at one (walk it per plan)
NO_SOURCE, FORKS = -1, -2


class GraphLowering:
    """What lowering derives from one graph alone, shared by every plan
    built over it: the enumerator's sweep, the native, XLA and cuDNN
    baselines and the dispatcher.  Get it with :func:`graph_lowering`:
    inside :meth:`Graph.memoized <repro.ir.graph.Graph.memoized>` (an
    ``optimize`` call) every caller shares one, built piece by piece on
    first use; the graph drops it when the block ends or a node is
    added.

    * :meth:`kernel`: one kernel per node and GEMM library.  Kernels are
      construct-once values, so units over the same nodes share one.
    * :meth:`sweep`: the elementwise sweep -- a fused kernel per chain,
      kept per chain, then the lone nodes' kernels -- per uncovered-node
      set.  Plans of one exploration leave a few distinct remainders (an
      unfused ladder leaves its absorbed adds uncovered, a fused one does
      not), and each is swept once.  :meth:`chains` derives a new
      remainder's chains from the previous one's, re-chaining only
      around the nodes whose coverage changed.
    * ``costs``: the :class:`~repro.gpu.streams.KernelTable` memo, per
      device and kernel cost key.
    * :attr:`producers`: the producer closure.  Per node, the source of
      each input: the first node at or above the input that a unit
      normally covers or that is a leaf, walking up through free nodes
      (reshapes, fills), or :data:`NO_SOURCE` / :data:`FORKS`.  A plan
      that covers those sources and no free node finds each unit's
      producers without walking the graph; :meth:`unit_sources` keeps
      them per multi-node unit, with its issue-order key.
    """

    def __init__(self, graph: Graph):
        self.graph = graph
        self.costs: dict = {}
        self._kernels: dict[str, dict[int, Kernel | None]] = {}
        self._chain_kernels: dict[tuple[int, ...], ElementwiseLaunch] = {}
        self._sweeps: dict[tuple, list[Kernel]] = {}
        #: the last :meth:`chains` call's fusable set, each node's parent
        #: in it (-1 for a chain's first node) and each first node's chain
        self._chain_state: tuple = (frozenset(), {}, {})
        self._unit_sources: dict[tuple[int, ...], tuple] = {}
        #: nodes re-chained and unit sources derived so far
        self.rechained = 0
        self.fresh_sources = 0

    @cached_property
    def compute_ids(self) -> frozenset[int]:
        """Every non-leaf node: what a plan's units may cover."""
        return frozenset(n.node_id for n in self.graph.nodes if not n.is_leaf)

    def kernel(self, node_id: int, library: str = DEFAULT_LIBRARY) -> Kernel | None:
        """:func:`kernel_for_node`, memoized."""
        kernels = self._kernels.get(library)
        if kernels is None:
            kernels = self._kernels[library] = {}
        try:
            return kernels[node_id]
        except KeyError:
            kernel = kernels[node_id] = kernel_for_node(
                self.graph, self.graph.nodes[node_id], library
            )
            return kernel

    def sweep(
        self, uncovered: set[int], fuse: bool = True, library: str = DEFAULT_LIBRARY
    ) -> list[Kernel]:
        """The kernels that run the ``uncovered`` compute nodes, each
        covering its ``node_ids``, memoized per set: with ``fuse``, one
        fused kernel per elementwise chain of two or more nodes (JIT
        fusion, 5.3), in chain order; then each remaining node's own
        kernel, in node order.  Free nodes launch nothing."""
        uncovered = frozenset(uncovered)
        key = (uncovered, fuse, library)
        launches = self._sweeps.get(key)
        if launches is None:
            launches = self._sweeps[key] = []
            rest = uncovered
            if fuse:
                chained: list[int] = []
                for chain in self.chains(uncovered):
                    if len(chain) < 2:
                        continue
                    kernel = self._chain_kernels.get(chain)
                    if kernel is None:
                        kernel = self._chain_kernels[chain] = fused_elementwise_kernel(
                            self.graph, chain
                        )
                    launches.append(kernel)
                    chained.extend(chain)
                rest = uncovered.difference(chained)
            for nid in sorted(rest):  # node ids are node positions
                kernel = self.kernel(nid, library)
                if kernel is not None:
                    launches.append(kernel)
        return launches

    @cached_property
    def fusable(self) -> frozenset[int]:
        """Every node an elementwise chain may hold."""
        return frozenset(
            n.node_id for n in self.graph.nodes
            if not n.is_leaf and n.kind in _FUSABLE_KINDS
        )

    def chains(self, nodes) -> list[tuple[int, ...]]:
        """The elementwise chains of the fusable ``nodes``, ordered by
        their first node.  A node joins the chain of its first input that
        is one of ``nodes``, feeds only this node and has its element
        count and pass (forward/backward) -- the conservative conditions
        under which a pointwise JIT compiler fuses without materialising;
        a node joining none starts a chain.

        Chains are re-derived from the previous call's: only the nodes
        that entered or left the set, the node each of them feeds, and
        the chains those touch are re-chained.  A chain is a path, so
        every other chain is unchanged.
        """
        eligible = self.fusable.intersection(nodes)
        old, link, by_head = self._chain_state
        if eligible != old:
            link, by_head = dict(link), dict(by_head)
            graph_nodes = self.graph.nodes
            consumers = self.graph.consumers

            def head(nid: int) -> int:
                while link[nid] >= 0:
                    nid = link[nid]
                return nid

            removed = old - eligible
            added = eligible - old
            pool = set(added)
            for nid in (removed | added) if old else ():
                # the node this one feeds may chain differently now
                fed = consumers(nid)
                if len(fed) == 1 and fed[0] in eligible:
                    pool.add(fed[0])
            for start in {head(nid) for nid in removed | (pool - added)}:
                pool.update(by_head.pop(start))
            pool -= removed
            for nid in removed:
                del link[nid]
            stack = list(pool)
            while stack:
                nid = stack.pop()
                node = graph_nodes[nid]
                parent = -1
                for inp in node.input_ids:
                    if (
                        inp in eligible
                        and len(consumers(inp)) == 1
                        and graph_nodes[inp].spec.num_elements == node.spec.num_elements
                        and graph_nodes[inp].pass_tag == node.pass_tag
                    ):
                        parent = inp
                        break
                if parent >= 0 and parent not in pool:
                    # the tail of an untouched chain gains this node:
                    # re-chain the whole of it
                    chain = by_head.pop(head(parent))
                    pool.update(chain)
                    stack.extend(chain)
                link[nid] = parent
            successor = {link[nid]: nid for nid in pool if link[nid] >= 0}
            for nid in pool:
                if link[nid] < 0:
                    chain = [nid]
                    while chain[-1] in successor:
                        chain.append(successor[chain[-1]])
                    by_head[nid] = tuple(chain)
            self.rechained += len(pool)
            self._chain_state = (eligible, link, by_head)
        return [by_head[start] for start in sorted(by_head)]

    def unit_sources(self, node_ids: tuple[int, ...]) -> tuple[tuple[int, ...], bool, int]:
        """``(sources, leafy, key)`` of a unit over ``node_ids``, memoized
        per node tuple: the :attr:`producers` sources of its nodes' inputs
        in visiting order, less its own nodes and :data:`NO_SOURCE` (which
        never yield a producer); whether any source is a leaf; and its
        issue-order key, the smallest node id."""
        entry = self._unit_sources.get(node_ids)
        if entry is None:
            closure, _free, ends = self.producers
            own = set(node_ids)
            sources = tuple(
                source for nid in node_ids for source in closure[nid]
                if source != NO_SOURCE and source not in own
            )
            entry = self._unit_sources[node_ids] = (
                sources, not ends.isdisjoint(sources), min(node_ids)
            )
            self.fresh_sources += 1
        return entry

    @cached_property
    def producers(self) -> tuple[list[tuple], frozenset[int], frozenset[int]]:
        """``(closure, free, ends)``: per node id the source of each input
        (the node's own ``input_ids`` when every input is its source), the
        normally free nodes, and the sources that yield no producer unless
        a unit covers them (leaves and :data:`NO_SOURCE`)."""
        nodes = self.graph.nodes
        source = [NO_SOURCE] * len(nodes)
        free = set()
        for node in nodes:
            nid = node.node_id
            if node.is_leaf or not (node.op is None or isinstance(node.op, _FREE_OPS)):
                source[nid] = nid
                continue
            free.add(nid)
            inputs = node.input_ids
            if len(inputs) == 1:
                source[nid] = source[inputs[0]]
            elif inputs:
                source[nid] = FORKS
        closure = []
        for node in nodes:
            sources = tuple(source[inp] for inp in node.input_ids)
            closure.append(node.input_ids if sources == node.input_ids else sources)
        ends = frozenset(n.node_id for n in nodes if n.is_leaf) | {NO_SOURCE}
        return closure, frozenset(free), ends


def graph_lowering(graph: Graph) -> GraphLowering:
    """The graph's :class:`GraphLowering`: shared inside a
    :meth:`~repro.ir.graph.Graph.memoized` block, a fresh one outside."""
    return graph.memo("lowering", GraphLowering)
