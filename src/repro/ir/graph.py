"""Data-flow graph representation.

A :class:`Graph` is a DAG of :class:`Node` objects.  Nodes are appended in a
valid topological order (an input must exist before its consumer), which is
what tracing naturally produces; the class enforces it.

Each node carries *provenance* metadata that Astra's enumerator consumes:

* ``scope`` -- the model-code scope the op came from (e.g. ``"layer0/step3"``),
  used for equivalence-class detection (paper section 4.5.5, "scope of the
  operations from the high level code");
* ``pass_tag`` -- ``"forward"`` or ``"backward"``, letting the enumerator
  reason about conflicting fusion choices between passes (section 3.2).
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterable, Iterator

from .ops import KIND_SOURCE, Op
from .tensor import TensorSpec

ROLE_INPUT = "input"
ROLE_PARAM = "param"
ROLE_COMPUTE = "compute"


@dataclass
class Node:
    """One operation (or graph input/parameter) in the DFG."""

    node_id: int
    op: Op | None
    input_ids: tuple[int, ...]
    spec: TensorSpec
    role: str = ROLE_COMPUTE
    scope: str = ""
    pass_tag: str = "forward"
    label: str = ""

    @property
    def is_leaf(self) -> bool:
        return self.role in (ROLE_INPUT, ROLE_PARAM)

    @property
    def kind(self) -> str:
        if self.op is None:
            return "leaf"
        return self.op.kind

    def __str__(self) -> str:
        opname = self.op.name if self.op else self.role
        args = ", ".join(f"%{i}" for i in self.input_ids)
        tag = f" [{self.scope}]" if self.scope else ""
        return f"%{self.node_id} = {opname}({args}) -> {self.spec}{tag}"


class Graph:
    """An append-only DAG of tensor operations.

    The node list is always a valid topological order.  ``consumers`` is
    maintained incrementally so dependence queries used throughout the
    enumerator are O(1).  :meth:`memo` shares structures derived from the
    nodes (lowering's kernels and producer closure) for the length of a
    :meth:`memoized` block; they are never pickled.
    """

    def __init__(self, name: str = "graph"):
        self.name = name
        self.nodes: list[Node] = []
        self._consumers: dict[int, list[int]] = {}
        self.outputs: list[int] = []
        self._memos: dict[str, object] = {}
        self._memo_holds = 0

    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        state["_memos"] = {}
        state["_memo_holds"] = 0
        return state

    def memo(self, name: str, build):
        """The structure ``build(graph)`` derives from this graph.  Inside
        a :meth:`memoized` block it is built on the first call for
        ``name`` and shared by every later one; outside, each call builds
        its own."""
        value = self._memos.get(name)
        if value is None:
            value = build(self)
            if self._memo_holds:
                self._memos[name] = value
        return value

    @contextmanager
    def memoized(self):
        """Share :meth:`memo` structures until the outermost block ends,
        then drop them: a graph kept for later holds none."""
        self._memo_holds += 1
        try:
            yield self
        finally:
            self._memo_holds -= 1
            if not self._memo_holds:
                self._memos.clear()

    # -- construction -------------------------------------------------------

    def add_input(self, spec: TensorSpec, label: str = "", role: str = ROLE_INPUT) -> Node:
        if role not in (ROLE_INPUT, ROLE_PARAM):
            raise ValueError(f"leaf role must be input or param, got {role!r}")
        node = Node(len(self.nodes), None, (), spec, role=role, label=label)
        if self._memos:
            self._memos.clear()
        self.nodes.append(node)
        self._consumers[node.node_id] = []
        return node

    def add_param(self, spec: TensorSpec, label: str = "") -> Node:
        return self.add_input(spec, label=label, role=ROLE_PARAM)

    def add_op(
        self,
        op: Op,
        inputs: Iterable[Node],
        scope: str = "",
        pass_tag: str = "forward",
        label: str = "",
    ) -> Node:
        input_nodes = list(inputs)
        for inp in input_nodes:
            if inp.node_id >= len(self.nodes) or self.nodes[inp.node_id] is not inp:
                raise ValueError(f"input {inp} does not belong to graph {self.name!r}")
        if op.kind != KIND_SOURCE and not input_nodes:
            raise ValueError(f"op {op.name} requires inputs")
        spec = op.infer_shape([inp.spec for inp in input_nodes])
        node = Node(
            len(self.nodes),
            op,
            tuple(inp.node_id for inp in input_nodes),
            spec,
            scope=scope,
            pass_tag=pass_tag,
            label=label,
        )
        if self._memos:  # they read the nodes and their consumers
            self._memos.clear()
        self.nodes.append(node)
        self._consumers[node.node_id] = []
        for inp in input_nodes:
            self._consumers[inp.node_id].append(node.node_id)
        return node

    def mark_output(self, node: Node) -> None:
        if node.node_id not in self._consumers:
            raise ValueError(f"{node} is not in this graph")
        if node.node_id not in self.outputs:
            self.outputs.append(node.node_id)

    # -- queries -------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.nodes)

    def __iter__(self) -> Iterator[Node]:
        return iter(self.nodes)

    def node(self, node_id: int) -> Node:
        return self.nodes[node_id]

    def consumers(self, node_id: int) -> list[int]:
        return self._consumers[node_id]

    def inputs(self) -> list[Node]:
        return [n for n in self.nodes if n.role == ROLE_INPUT]

    def params(self) -> list[Node]:
        return [n for n in self.nodes if n.role == ROLE_PARAM]

    def compute_nodes(self) -> list[Node]:
        return [n for n in self.nodes if not n.is_leaf]

    def gemm_nodes(self) -> list[Node]:
        return [n for n in self.nodes if n.kind == "gemm"]

    def total_flops(self) -> int:
        total = 0
        for node in self.nodes:
            if node.op is not None:
                in_specs = [self.nodes[i].spec for i in node.input_ids]
                total += node.op.flops(in_specs, node.spec)
        return total

    def depends_on(self, later: int, earlier: int) -> bool:
        """True if node ``later`` transitively depends on node ``earlier``.

        Walks the ancestor set of ``later``; node ids are topologically
        ordered so ancestors always have smaller ids, which bounds the walk.
        """
        if later <= earlier:
            return later == earlier
        seen = set()
        stack = [later]
        while stack:
            nid = stack.pop()
            if nid == earlier:
                return True
            if nid in seen or nid < earlier:
                continue
            seen.add(nid)
            stack.extend(self.nodes[nid].input_ids)
        return False

    def validate(self) -> None:
        """Check structural invariants; raises ValueError on violation."""
        for node in self.nodes:
            for inp in node.input_ids:
                if inp >= node.node_id:
                    raise ValueError(f"node %{node.node_id} consumes later node %{inp}")
            if node.op is not None:
                in_specs = [self.nodes[i].spec for i in node.input_ids]
                inferred = node.op.infer_shape(in_specs)
                if inferred != node.spec:
                    raise ValueError(
                        f"node %{node.node_id} spec {node.spec} != inferred {inferred}"
                    )

    def dump(self, limit: int | None = None) -> str:
        """Human-readable listing in the paper's ``%N = mm(%a, %b)`` style."""
        lines = [f"graph {self.name} ({len(self.nodes)} nodes)"]
        shown = self.nodes if limit is None else self.nodes[:limit]
        lines.extend(str(node) for node in shown)
        if limit is not None and len(self.nodes) > limit:
            lines.append(f"... {len(self.nodes) - limit} more nodes")
        return "\n".join(lines)
