"""The enumerator: static analysis -> update tree + templated schedules.

Section 4.4: the compiler half of Astra.  It enumerates the optimization
state space -- fusion groups with their chunkings, kernel-library choices,
stream assignments per epoch, allocation strategies -- as an update tree
of adaptive variables, and provides the *plan builder* that instantiates
any assignment of those variables as an executable
:class:`~repro.runtime.plan.ExecutionPlan` ("templated schedules").

It uses only coarse static knowledge (section 4.8): pattern matching for
candidates, flop counts for super-epoch calibration and stream balance,
size caps for fusion groups.  It never predicts performance -- ranking is
the custom-wirer's job, by measurement.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass

from ..gpu.device import GPUSpec
from ..gpu.kernels import CopyLaunch, GemmLaunch
from ..gpu.libraries import DEFAULT_LIBRARY, GEMM_LIBRARIES
from ..ir.graph import Graph
from ..obs.observer import NULL_OBSERVER
from ..runtime.dispatcher import Dispatcher
from ..runtime.lowering import graph_lowering
from ..runtime.plan import ExecutionPlan, Unit
from .adaptive import (
    AdaptiveVariable,
    MODE_PARALLEL,
    MODE_PREFIX,
    UpdateNode,
)
from ..gpu.memory import AllocationPlan
from .allocation import (
    AllocationStrategy,
    build_arena_plan,
    enumerate_strategies,
    group_flops,
)
from .epochs import EpochPartition, partition_epochs
from .fusion import (
    FusionAnalysis,
    FusionMember,
    analyse_fusion,
    provenance,
    resolve_static_conflicts,
)


@dataclass(frozen=True)
class AstraFeatures:
    """Which adaptation dimensions are active (the Astra_F / _FK / _FKS /
    _all breakdown of section 6.1)."""

    fusion: bool = True
    kernel: bool = True
    streams: bool = False
    allocation: bool = False
    elementwise_fusion: bool = True
    num_streams: int = 2
    #: section 5.4: the TensorFlow prototype's low-level runtime expects
    #: contiguous tensors, so every fused GEMM pays gather copies and
    #: stream adaptation is unavailable
    tf_mode: bool = False

    @classmethod
    def preset(cls, name: str) -> "AstraFeatures":
        presets = {
            "F": cls(kernel=False),
            "FK": cls(),
            "FKS": cls(streams=True),
            "all": cls(streams=True, allocation=True),
            "FK-tf": cls(tf_mode=True),
        }
        if name not in presets:
            raise ValueError(f"unknown preset {name!r}; choose from {sorted(presets)}")
        return presets[name]


@dataclass
class BuiltPlan:
    """A plan plus the variable -> unit bookkeeping the wirer profiles."""

    plan: ExecutionPlan
    var_units: dict[str, list[int]]


class _Slot:
    """One unit of an emission, before it is numbered.

    A slot with a ``kernel`` launches it (a weight pack).  Any other slot
    is a GEMM whose library is bound where the slot is placed: the
    emitting choice's library when ``lib_var`` is None, else the value of
    the ``kernel:*`` variable ``lib_var`` names.  That GEMM is node
    ``mm_id`` launched alone, or a fused launch of ``dims`` over
    ``node_ids``.  ``owner`` is the variable whose ``"units"`` measurement
    covers the unit; a ``label`` of None means the kernel's name.
    """

    __slots__ = ("node_ids", "label", "owner", "pre_copies", "kernel", "lib_var",
                 "mm_id", "dims", "_fused")

    def __init__(self, node_ids, label, owner, *, pre_copies=(), kernel=None,
                 lib_var=None, mm_id=None, dims=None):
        self.node_ids = node_ids
        self.label = label
        self.owner = owner
        self.pre_copies = pre_copies
        self.kernel = kernel
        self.lib_var = lib_var
        self.mm_id = mm_id
        self.dims = dims
        self._fused: dict[str, GemmLaunch] = {}

    def launch(self, lowering, lib: str):
        """The kernel this slot launches when its GEMM runs ``lib``."""
        if self.kernel is not None:
            return self.kernel
        if self.mm_id is not None:
            return lowering.kernel(self.mm_id, lib)
        kernel = self._fused.get(lib)
        if kernel is None:
            m, k, n = self.dims
            kernel = self._fused[lib] = GemmLaunch(m, k, n, lib, node_ids=self.node_ids)
        return kernel


class _Emitter:
    """Emits the slots of one choice of one variable (or of a singleton
    member no variable owns).  :meth:`Enumerator._emission` keeps each
    emission, so the pre-ranker's estimates and every plan built share it.
    """

    def __init__(self, enum: "Enumerator", strategy: AllocationStrategy):
        self.enum = enum
        self.strategy = strategy
        self.slots: list[_Slot] = []

    def weight_pack_prologue(self, owner: str | None, tensors: tuple[int, ...], tag: str) -> None:
        """Weights are constant within a mini-batch, so an unsatisfied
        weight layout is gathered once up front (section 4.5.2's
        alternative to restriction, priced by measurement).  The pack is
        charged 2x traffic each way: the optimizer updates the canonical
        layout every mini-batch, so the pack is gathered and the
        gradient contribution scattered back."""
        graph = self.enum.graph
        total = 4 * sum(graph.node(t).spec.size_bytes for t in set(tensors))
        self.slots.append(_Slot(
            tuple(dict.fromkeys(tensors)), f"pack_{tag}", owner,
            kernel=CopyLaunch(total, label=f"pack_{tag}"),
        ))

    def emit_member(
        self,
        member: FusionMember,
        force_fuse: bool | None = None,
        owner: str | None = None,
        choice_lib: bool = False,
    ) -> None:
        """Emit one member outside group fusion.

        ``owner`` attributes every emitted unit (including gathers) to a
        specific adaptive variable so its measurement covers exactly what
        its choice caused.  With ``choice_lib`` that variable's library
        runs the member's GEMMs; otherwise each GEMM's shape key's
        ``kernel:*`` variable picks it.
        """
        enum = self.enum
        graph = enum.graph
        supported = (
            self.strategy.supports(member.ladder_requirement())
            and not enum.features.tf_mode
        )
        fuse = member.is_ladder and (supported if force_fuse is None else force_fuse)
        if fuse:
            key = (provenance(member.scope), member.pass_tag,
                   member.m, member.k_total, member.n)
            var = f"kernel:{key}"
            pre = []
            if member.a_gather_bytes:
                pre.append(CopyLaunch(member.a_gather_bytes, label="gather_a"))
            var_name = owner or (
                var if supported and len(enum._libraries) > 1 else None
            )
            if not supported:
                if enum._tensors_are_params(member.b_nodes):
                    self.weight_pack_prologue(var_name, member.b_nodes, "ladder")
                else:
                    pre.append(CopyLaunch(
                        2 * sum(graph.node(b).spec.size_bytes for b in member.b_nodes),
                        label="gather_b",
                    ))
            self.slots.append(_Slot(
                member.node_ids, f"ladder@{member.scope}", var_name,
                pre_copies=tuple(pre), lib_var=None if choice_lib else var,
                dims=(member.m, member.k_total, member.n),
            ))
        else:
            for mm_id in member.mm_ids:
                self.emit_gemm(mm_id, owner, choice_lib)
            # absorbed adds of an unfused ladder run as elementwise ops;
            # leave them uncovered so the elementwise sweep picks them up

    def emit_gemm(self, mm_id: int, owner: str | None = None, choice_lib: bool = False) -> None:
        """Emit one GEMM node launched on its own."""
        var = self.enum._gemm_var(mm_id)
        if owner is None and len(self.enum._libraries) > 1:
            owner = var
        self.slots.append(_Slot(
            (mm_id,), None, owner, lib_var=None if choice_lib else var, mm_id=mm_id,
        ))

    def emit_group(self, group, chunk: int, owner: str) -> None:
        """Emit one fusion group at a chunk granularity > 1."""
        enum = self.enum
        graph = enum.graph
        members = group.members
        supported = self.strategy.supports(group.requirement)
        if enum.features.tf_mode:
            supported = False  # contiguity never free in the TF runtime
        gather_tensors: list[int] = []
        if not supported and group.axis == "n":
            flat = [b for mb in members for b in mb.b_nodes]
            if enum._tensors_are_params(flat):
                self.weight_pack_prologue(owner, tuple(flat), "group")
                gather_tensors = []  # packed once, launches copy-free
            else:
                gather_tensors = flat  # gathered per launch below
        for start in range(0, len(members), chunk):
            chunk_members = members[start: start + chunk]
            if len(chunk_members) == 1:
                self.emit_member(chunk_members[0], owner=owner, choice_lib=True)
                continue
            node_ids = tuple(nid for mb in chunk_members for nid in mb.node_ids)
            lead = chunk_members[0]
            pre = []
            if group.axis == "n" and lead.a_gather_bytes:
                pre.append(CopyLaunch(lead.a_gather_bytes, label="gather_a"))
            if not supported:
                if group.axis == "m":
                    a_bytes = 2 * sum(
                        graph.node(mb.a_signature[0][0]).spec.size_bytes
                        for mb in chunk_members
                    )
                    pre.append(CopyLaunch(a_bytes, label="gather_a"))
                elif gather_tensors:
                    b_bytes = 2 * sum(
                        graph.node(b).spec.size_bytes
                        for mb in chunk_members
                        for b in mb.b_nodes
                    )
                    pre.append(CopyLaunch(b_bytes, label="gather_b"))
            self.slots.append(_Slot(
                node_ids, f"fused@{group.group_id}", owner,
                pre_copies=tuple(pre), dims=group.launch_dims(chunk_members),
            ))


def _default_library(lib_var: str, default: str) -> str:
    return default


class Enumerator:
    """Static-analysis half of Astra for one traced graph.

    Each choice's units are emitted once: an *emission* is the id-less
    unit list one emitter (a fusion group at one chunking, a ladder fused
    or not, a singleton member) produces, with GEMM libraries left open.
    The pre-ranker prices a variable's library alternatives from one
    emission, and :meth:`build_plan` numbers the emissions an assignment
    selects into its unit list.  Emissions live in the graph's memo, so
    they are shared for the length of an ``optimize`` call and dropped
    with it.  With ``cache_units`` (the default) the unit list of every
    ``(strategy, fk assignment)`` is memoized as well: stream-phase
    rounds, compare-phase rebuilds and resumed runs reuse it.  Cached
    units are shared, never copied: a plan keeps its streams and epoch
    coordinates in its own side tables and never writes to a unit.
    Below the emissions, every build shares the graph's kernels and
    elementwise sweeps (:func:`~repro.runtime.lowering.graph_lowering`),
    and the enumerator keeps each GEMM node's shape key and, per
    strategy, which singleton members each ``kernel:*`` variable sets.
    """

    def __init__(
        self,
        graph: Graph,
        device: GPUSpec,
        features: AstraFeatures,
        observer=NULL_OBSERVER,
        cache_units: bool = True,
    ):
        self.graph = graph
        self.device = device
        self.features = features
        self.observer = observer
        self.cache_units = cache_units
        self._template_cache: OrderedDict[tuple, tuple] = OrderedDict()
        self._template_capacity = 64
        self._gemm_keys: dict[int, tuple] = {}
        self._gemm_vars: dict[int, str] = {}
        self._shape_index: dict[int, dict[str, list[FusionMember]]] = {}
        if features.fusion:
            self.analysis = resolve_static_conflicts(analyse_fusion(graph))
        else:
            self.analysis = FusionAnalysis(groups=[], singletons=[], ladder_requirements=[])
        strategies = enumerate_strategies(self.analysis, group_flops(self.analysis))
        self.strategies = strategies if features.allocation else strategies[:1]
        self._libraries = (
            list(GEMM_LIBRARIES) if features.kernel else [DEFAULT_LIBRARY]
        )
        # concrete arena placement per strategy, built lazily and shared by
        # every plan of that strategy so the schedule validator can check
        # contiguity-group layout during exploration
        self._arena_plans: dict[int, "AllocationPlan"] = {}
        #: slots emitted so far (each emission once per ``optimize``)
        self.fresh_units = 0

    def arena_plan(self, strategy: AllocationStrategy) -> "AllocationPlan":
        plan = self._arena_plans.get(strategy.strategy_id)
        if plan is None:
            plan = build_arena_plan(self.graph, strategy)
            self._arena_plans[strategy.strategy_id] = plan
        return plan

    # ------------------------------------------------------------------
    # Phase 1 tree: fusion chunking x kernel selection
    # ------------------------------------------------------------------

    def build_fk_tree(self, strategy: AllocationStrategy) -> UpdateNode:
        """Parallel root over per-group (chunk, library) variables,
        per-ladder fuse-or-not variables, and per-shape kernel variables
        (section 4.5.1's additive state space).

        Groups whose layout requirement the strategy does not satisfy can
        still fuse by *gathering* their operands (weights once per
        mini-batch, activations per launch); chunk=1 is the restricted
        fallback, and the measurement decides whether the gather pays.
        """
        root = UpdateNode(name="fk", mode=MODE_PARALLEL)
        kernel_shapes: set[tuple] = set()

        if self.features.fusion:
            for group in self.analysis.groups:
                choices = [
                    (chunk, lib)
                    for chunk in group.chunk_choices()
                    for lib in self._libraries
                ]
                root.children.append(
                    AdaptiveVariable(
                        name=f"fusion:{group.group_id}",
                        choices=choices,
                        metric_kind="units",
                        payload=group,
                    )
                )

        for member in self.analysis.singletons:
            if member.is_ladder and not strategy.supports(member.ladder_requirement()):
                # the ladder variable owns this member entirely: fused with
                # an operand gather, or unfused -- measurement decides
                choices = [(False, DEFAULT_LIBRARY)] + [
                    (True, lib) for lib in self._libraries
                ]
                root.children.append(
                    AdaptiveVariable(
                        name=f"ladder:{member.mm_ids[0]}",
                        choices=choices,
                        metric_kind="units",
                        payload=member,
                    )
                )
            else:
                kernel_shapes.update(self._member_shape_keys(member, strategy))

        if len(self._libraries) > 1:
            for key in sorted(kernel_shapes):
                root.children.append(
                    AdaptiveVariable(
                        name=f"kernel:{key}",
                        choices=list(self._libraries),
                        metric_kind="units",
                    )
                )
        root.initialize()
        return root

    def _member_shape_keys(
        self, member: FusionMember, strategy: AllocationStrategy
    ) -> list[tuple]:
        """Profile-key identities of the GEMM launches a member lowers to
        when executed outside any group (fused ladder, or raw GEMMs)."""
        if member.is_ladder and strategy.supports(member.ladder_requirement()):
            return [(provenance(member.scope), member.pass_tag, member.m, member.k_total, member.n)]
        return [self._gemm_key(mm_id) for mm_id in member.mm_ids]

    def _gemm_key(self, node_id: int) -> tuple:
        """Profile key of one GEMM node launched on its own."""
        key = self._gemm_keys.get(node_id)
        if key is None:
            node = self.graph.node(node_id)
            kernel = graph_lowering(self.graph).kernel(node_id)
            key = self._gemm_keys[node_id] = (
                provenance(node.scope), node.pass_tag, kernel.m, kernel.k, kernel.n
            )
        return key

    def _gemm_var(self, node_id: int) -> str:
        """The ``kernel:*`` variable name of one GEMM node's shape key."""
        name = self._gemm_vars.get(node_id)
        if name is None:
            name = self._gemm_vars[node_id] = f"kernel:{self._gemm_key(node_id)}"
        return name

    def _kernel_var_members(self, strategy: AllocationStrategy) -> dict[str, list[FusionMember]]:
        """The shape index: ``kernel:*`` variable name -> the singleton
        members whose launches it sets, in singleton order."""
        index = self._shape_index.get(strategy.strategy_id)
        if index is None:
            index = self._shape_index[strategy.strategy_id] = {}
            for member in self.analysis.singletons:
                if member.is_ladder and not strategy.supports(member.ladder_requirement()):
                    continue  # owned by a ladder variable
                names = dict.fromkeys(
                    f"kernel:{key}" for key in self._member_shape_keys(member, strategy)
                )
                for name in names:
                    index.setdefault(name, []).append(member)
        return index

    def _tensors_are_params(self, tensors) -> bool:
        return all(self.graph.node(t).role == "param" for t in tensors)

    # ------------------------------------------------------------------
    # Emissions and plan building
    # ------------------------------------------------------------------

    def _emissions(self) -> dict:
        """This enumerator's emissions and layouts, kept in the graph's
        memo: shared inside a :meth:`Graph.memoized
        <repro.ir.graph.Graph.memoized>` block (an ``optimize`` call) and
        dropped with it, a fresh dict outside one."""
        return self.graph.memo("emissions", lambda graph: {}).setdefault(self, {})

    def _layout(self, strategy: AllocationStrategy) -> list[tuple]:
        """``(kind, name, payload)`` of every emitter in emission order:
        the fusion groups, then the singleton members (a ladder variable's,
        or ``member:*`` for a member no variable owns), then, with fusion
        analysis disabled, ``gemms`` for every GEMM launched alone."""
        memo = self._emissions()
        layout = memo.get(strategy.strategy_id)
        if layout is None:
            layout = memo[strategy.strategy_id] = []
            if self.features.fusion:
                for group in self.analysis.groups:
                    layout.append(("fusion", f"fusion:{group.group_id}", group))
            for member in self.analysis.singletons:
                if member.is_ladder and not strategy.supports(member.ladder_requirement()):
                    layout.append(("ladder", f"ladder:{member.mm_ids[0]}", member))
                else:
                    layout.append((None, f"member:{member.mm_ids[0]}", member))
            if not self.features.fusion:
                layout.append((None, "gemms", None))
        return layout

    def _emission(self, strategy: AllocationStrategy, name: str, payload, shape):
        """The slots of one emitter at one shape -- a fusion group's
        chunking, a ladder's fuse flag, None otherwise -- emitted once and
        shared by every choice and plan that uses it."""
        memo = self._emissions()
        key = (strategy.strategy_id, name, shape)
        slots = memo.get(key)
        if slots is None:
            emitter = _Emitter(self, strategy)
            kind = name.partition(":")[0]
            if kind == "fusion":
                if shape == 1:
                    # members execute individually (for unsupported groups
                    # this is the paper's "restrict the adaptation"
                    # fallback); the group variable owns the member units so
                    # the measurement can compare chunk=1 against real fusion
                    for member in payload.members:
                        emitter.emit_member(member, owner=name, choice_lib=True)
                else:
                    emitter.emit_group(payload, shape, name)
            elif kind == "ladder":
                emitter.emit_member(payload, force_fuse=shape, owner=name, choice_lib=shape)
            elif kind == "member":
                emitter.emit_member(payload)
            else:  # fusion analysis disabled: GEMMs were never members
                for node in self.graph.gemm_nodes():
                    emitter.emit_gemm(node.node_id)
            slots = memo[key] = tuple(emitter.slots)
            self.fresh_units += len(slots)
        return slots

    def _place(self, slots, units: list[Unit], var_units: dict[str, list[int]],
               lib: str, library_for) -> None:
        """Number ``slots`` onto ``units`` (a unit's id is its position),
        binding GEMM libraries: ``lib`` for the emitting choice's own,
        ``library_for(variable, default)`` for a ``kernel:*`` variable's."""
        lowering = graph_lowering(self.graph)
        for slot in slots:
            kernel = slot.kernel
            if kernel is None:
                var = slot.lib_var
                kernel = slot.launch(
                    lowering, lib if var is None else library_for(var, DEFAULT_LIBRARY)
                )
            uid = len(units)
            units.append(Unit(uid, kernel, slot.node_ids, label=slot.label or kernel.name,
                              pre_copies=slot.pre_copies))
            if slot.owner is not None:
                var_units.setdefault(slot.owner, []).append(uid)

    def _build_units(
        self, strategy: AllocationStrategy, assignment: dict[str, object]
    ) -> tuple[list[Unit], dict[str, list[int]]]:
        """Assemble the assignment-determined unit list (no streams or
        profile) from the emissions its choices select, then sweep the
        elementwise remainder."""
        get = assignment.get
        units: list[Unit] = []
        var_units: dict[str, list[int]] = {}
        for kind, name, payload in self._layout(strategy):
            if kind == "fusion":
                shape, lib = get(name, (1, DEFAULT_LIBRARY))
            elif kind == "ladder":
                choice = get(name, (False, DEFAULT_LIBRARY))
                shape, lib = bool(choice[0]), choice[1]
            else:
                shape, lib = None, DEFAULT_LIBRARY
            self._place(self._emission(strategy, name, payload, shape),
                        units, var_units, lib, get)

        # elementwise / reduction chains over everything not yet covered
        lowering = graph_lowering(self.graph)
        covered: set[int] = set()
        for unit in units:
            covered.update(unit.node_ids)
        remaining = lowering.compute_ids - covered
        for kernel in lowering.sweep(remaining, self.features.elementwise_fusion):
            label = kernel.label if len(kernel.node_ids) > 1 else kernel.name
            units.append(Unit(len(units), kernel, kernel.node_ids, label=label))
        return units, var_units

    def _built_units(
        self, strategy: AllocationStrategy, assignment: dict[str, object]
    ) -> tuple[list[Unit], dict[str, list[int]]]:
        """Unit template for an assignment, through the template cache.

        Cached units are shared, not copied: every plan-specific
        coordinate (streams, epochs) lives in the plan's side tables, so
        no plan ever writes to a unit.  Only the containers are fresh.
        """
        if not self.cache_units:
            return self._build_units(strategy, assignment)
        # only fusion/ladder/kernel keys shape the units; stream or
        # allocation keys in the assignment must not fragment the cache
        key = (
            strategy.strategy_id,
            tuple(sorted(
                (name, value) for name, value in assignment.items()
                if name.partition(":")[0] in ("fusion", "ladder", "kernel")
            )),
        )
        cached = self._template_cache.get(key)
        if cached is None:
            self.observer.count("perf.cache.units_misses")
            cached = self._build_units(strategy, assignment)
            self._template_cache[key] = cached
            if len(self._template_cache) > self._template_capacity:
                self._template_cache.popitem(last=False)
                self.observer.count("perf.cache.units_evictions")
        else:
            self._template_cache.move_to_end(key)
            self.observer.count("perf.cache.units_hits")
        units, var_units = cached
        return list(units), {k: list(v) for k, v in var_units.items()}

    def units_for_choice(
        self, strategy: AllocationStrategy, var: AdaptiveVariable, choice
    ) -> list[Unit]:
        """The units one variable's choice emits, in isolation.

        Places the same emissions :meth:`build_plan` assembles, numbered
        from 0, so the returned units are exactly the units the
        variable's ``"units"`` measurement would cover in a full plan --
        the property the fast-path pre-ranker's exactness rests on.
        Libraries the choice does not set are the default.
        """
        name = var.name
        units: list[Unit] = []
        var_units: dict[str, list[int]] = {}
        if name.startswith("fusion:"):
            chunk, lib = choice
            slots = self._emission(strategy, name, var.payload, chunk)
            self._place(slots, units, var_units, lib, _default_library)
        elif name.startswith("ladder:"):
            fuse, lib = bool(choice[0]), choice[1]
            slots = self._emission(strategy, name, var.payload, fuse)
            self._place(slots, units, var_units, lib, _default_library)
        elif name.startswith("kernel:"):
            # a kernel variable owns every singleton-emitted launch of its
            # shape key; replay those emitters with the candidate library
            # bound to this key only
            def library_for(lib_var: str, default: str) -> str:
                return choice if lib_var == name else default

            if self.features.fusion:
                emitters = [
                    (f"member:{member.mm_ids[0]}", member)
                    for member in self._kernel_var_members(strategy).get(name, ())
                ]
            else:
                emitters = [("gemms", None)]
            for emitter, payload in emitters:
                slots = self._emission(strategy, emitter, payload, None)
                self._place(slots, units, var_units, DEFAULT_LIBRARY, library_for)
        else:
            raise ValueError(f"no unit emission for variable {name!r}")
        owned = set(var_units.get(name, ()))
        return [u for u in units if u.unit_id in owned]

    def member_unfused_kernel_vars(self, member: FusionMember) -> set[str]:
        """``kernel:*`` variable names that would set the libraries of this
        member's *unfused* GEMM launches.  A ladder variable whose unfused
        choice shares a shape key with a live kernel variable measures
        under that variable's concurrent choice -- the pre-ranker must not
        prune it, because its analytic estimate assumes the default
        library."""
        return {self._gemm_var(mm_id) for mm_id in member.mm_ids}

    def build_plan(
        self,
        strategy: AllocationStrategy,
        assignment: dict[str, object],
        stream_options: dict[int, dict[int, int]] | None = None,
        partition: EpochPartition | None = None,
        profile: bool = True,
        profile_vars: set[str] | None = None,
        label: str = "astra",
    ) -> BuiltPlan:
        """Instantiate an assignment of the adaptive variables as a plan.

        ``stream_options`` maps epoch ordinal -> (unit id -> stream); when
        given, ``partition`` supplies barriers and the plan's ``epoch_of``
        coordinates.
        Stream assignment keys units by *position* (units are rebuilt each
        call but deterministically, so positions are stable for a fixed
        FK assignment).
        """
        units, var_units = self._built_units(strategy, assignment)

        # 4. streams
        stream_of: dict[int, int] = {}
        epoch_of: dict[int, tuple[int, int]] = {}
        barriers: frozenset[int] = frozenset()
        if stream_options is not None and partition is not None:
            for epoch_ordinal, option in stream_options.items():
                stream_of.update(option)
            barriers = partition.barrier_units()
            coordinates = partition.coordinates
            epoch_of = {
                unit.unit_id: coordinates[unit.unit_id]
                for unit in units if unit.unit_id in coordinates
            }

        # profile only the regions of interest (section 5.2): units owned
        # by *live* adaptive variables (all variables when unrestricted),
        # plus one event per epoch for the stream-completion metric
        profile_ids: set[int] = set()
        for var_name, unit_ids in var_units.items():
            if profile_vars is None or var_name in profile_vars:
                profile_ids.update(unit_ids)
        if partition is not None and profile_vars is None:
            last_in_epoch: dict[tuple[int, int], int] = {}
            for unit in units:
                coord = partition.coordinates.get(unit.unit_id)
                if coord is not None:
                    last_in_epoch[coord] = max(last_in_epoch.get(coord, -1), unit.unit_id)
            profile_ids.update(last_in_epoch.values())

        plan = ExecutionPlan(
            units=units,
            allocation=self.arena_plan(strategy),
            stream_of=stream_of,
            epoch_of=epoch_of,
            barriers_after=barriers,
            profile=profile,
            profile_unit_ids=frozenset(profile_ids) if profile else frozenset(),
            label=label,
        )
        return BuiltPlan(plan=plan, var_units=var_units)

    # ------------------------------------------------------------------
    # Phase 2 tree: stream assignment per epoch
    # ------------------------------------------------------------------

    def prepare_stream_phase(
        self, strategy: AllocationStrategy, fk_assignment: dict[str, object]
    ) -> tuple[EpochPartition, UpdateNode]:
        """Partition the (frozen-FK) unit list into epochs/super-epochs and
        build the stream update tree: parallel across super-epochs (barrier
        exploration), prefix across epochs within one (history-aware)."""
        built = self.build_plan(strategy, fk_assignment, profile=True)
        dispatcher = Dispatcher(self.graph)
        deps = dispatcher.unit_dependencies(built.plan)
        partition = partition_epochs(
            built.plan.units, deps, self.device, num_streams=self.features.num_streams
        )

        super_nodes: dict[int, UpdateNode] = {}
        for ordinal, epoch in enumerate(partition.epochs):
            if len(epoch.options) <= 1:
                continue
            var = AdaptiveVariable(
                name=f"stream:se{epoch.super_epoch}/e{epoch.index}",
                choices=list(range(len(epoch.options))),
                metric_kind="epoch",
                payload=(ordinal, epoch),
            )
            node = super_nodes.setdefault(
                epoch.super_epoch,
                UpdateNode(name=f"se{epoch.super_epoch}", mode=MODE_PREFIX),
            )
            node.children.append(var)

        root = UpdateNode(
            name="streams",
            mode=MODE_PARALLEL,
            children=[super_nodes[k] for k in sorted(super_nodes)],
        )
        root.initialize()
        return partition, root

