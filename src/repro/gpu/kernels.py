"""Kernel launch descriptors understood by the GPU simulator.

A kernel is the unit the dispatcher schedules (paper section 2.2: nodes of
the DFG map to kernel implementations in cuBLAS etc.).  Every kernel
answers two questions for the discrete-event engine:

* ``duration_us(device)`` -- execution time when running *alone*;
* ``parallelism(device)`` -- how many SM slots it can occupy, which bounds
  how much it benefits from (or yields to) concurrent kernels on other
  streams.

Costs are pure functions of shapes and the device spec -- never of tensor
values -- which is the predictability property Astra's online profiling
relies on (section 4.1).  ``cost_key()`` names exactly the fields those
functions read, so equal keys cost the same on every device and a cost
can be computed once per key.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .device import GPUSpec
from .libraries import GEMM_LIBRARIES, GemmKernel


class Kernel:
    """Base class for schedulable device work."""

    name: str = "kernel"
    #: classification used by profiling keys and schedule dumps
    kind: str = "generic"

    def duration_us(self, device: GPUSpec) -> float:
        raise NotImplementedError

    def parallelism(self, device: GPUSpec) -> int:
        return device.sm_slots

    def cost_key(self) -> tuple | None:
        """What ``duration_us`` and ``parallelism`` read, or None when the
        cost must be computed every time.  A subclass that changes what
        its cost reads overrides this."""
        return None

    def flops(self) -> int:
        return 0

    def describe(self) -> str:
        return self.name


@dataclass
class GemmLaunch(Kernel):
    """One GEMM (possibly a fused group lowered to a single larger GEMM).

    ``library`` selects among the simulated kernel libraries -- the
    adaptation dimension of section 3.1.
    """

    m: int
    k: int
    n: int
    library: str
    #: ids of the DFG nodes this launch computes (1 for plain, >1 for fused)
    node_ids: tuple[int, ...] = ()
    kind: str = field(default="gemm", init=False)

    def __post_init__(self) -> None:
        if self.library not in GEMM_LIBRARIES:
            raise ValueError(f"unknown GEMM library {self.library!r}")
        self.name = f"gemm[{self.m}x{self.k}x{self.n}]@{self.library}"

    @property
    def impl(self) -> GemmKernel:
        return GEMM_LIBRARIES[self.library]

    def duration_us(self, device: GPUSpec) -> float:
        return self.impl.duration_us(self.m, self.k, self.n, device)

    def parallelism(self, device: GPUSpec) -> int:
        return self.impl.max_parallel_blocks(self.m, self.n, device, k=self.k)

    def cost_key(self) -> tuple:
        return (type(self), self.m, self.k, self.n, self.library)

    def flops(self) -> int:
        return 2 * self.m * self.k * self.n


@dataclass
class ElementwiseLaunch(Kernel):
    """A (possibly JIT-fused) elementwise / reduction kernel.

    ``fused_ops`` counts the DFG ops folded into this launch; fusing avoids
    repeated launches and intermediate memory traffic (section 5.3).
    """

    num_elements: int
    fused_ops: int = 1
    flops_per_element: float = 1.0
    bytes_per_element: float = 8.0
    node_ids: tuple[int, ...] = ()
    label: str = "eltwise"
    kind: str = field(default="elementwise", init=False)

    def __post_init__(self) -> None:
        if self.num_elements <= 0:
            raise ValueError("num_elements must be positive")
        self.name = f"{self.label}[{self.num_elements}x{self.fused_ops}]"

    def duration_us(self, device: GPUSpec) -> float:
        total_flops = self.num_elements * self.flops_per_element * self.fused_ops
        # fused ops stream the data once; unfused pay traffic per op
        traffic = self.num_elements * self.bytes_per_element * (1 + 0.25 * (self.fused_ops - 1))
        startup = 1.0
        return startup + max(
            total_flops / (0.5 * device.peak_flops_per_us),
            traffic / device.mem_bw_bytes_per_us,
        )

    def parallelism(self, device: GPUSpec) -> int:
        blocks = max(1, self.num_elements // 1024)
        return min(blocks, device.sm_slots)

    def cost_key(self) -> tuple:
        return (type(self), self.num_elements, self.fused_ops,
                self.flops_per_element, self.bytes_per_element)

    def flops(self) -> int:
        return int(self.num_elements * self.flops_per_element * self.fused_ops)


@dataclass
class CopyLaunch(Kernel):
    """Device-to-device gather/scatter copy (e.g. compacting non-contiguous
    operands before a fused GEMM -- the cost fusion tries to avoid, 3.2)."""

    bytes_moved: int
    label: str = "copy"
    node_ids: tuple[int, ...] = ()
    kind: str = field(default="copy", init=False)

    def __post_init__(self) -> None:
        self.name = f"{self.label}[{self.bytes_moved}B]"

    def duration_us(self, device: GPUSpec) -> float:
        return 1.0 + 2 * self.bytes_moved / device.mem_bw_bytes_per_us

    def parallelism(self, device: GPUSpec) -> int:
        blocks = max(1, self.bytes_moved // 4096)
        return min(blocks, device.sm_slots)

    def cost_key(self) -> tuple:
        return (type(self), self.bytes_moved)


@dataclass
class CompoundLaunch(Kernel):
    """A hand-optimized accelerator kernel (the cuDNN model, section 2.4).

    Executes a whole layer step-group with near-peak efficiency in a single
    launch; only available for the "popular" structures the accelerator
    supports.  ``rows`` is the mini-batch dimension: below
    ``saturation_rows`` even hand-tuned kernels cannot fill the device, so
    sustained efficiency decays gently (cuDNN's small-batch LSTM kernels
    are latency-bound too).
    """

    total_flops: int
    efficiency: float = 0.72
    rows: int = 64
    saturation_rows: int = 64
    saturation_exp: float = 0.21
    label: str = "cudnn"
    node_ids: tuple[int, ...] = ()
    kind: str = field(default="compound", init=False)

    def __post_init__(self) -> None:
        self.name = f"{self.label}[{self.total_flops}f]"

    def _effective_efficiency(self) -> float:
        occupancy = min(1.0, self.rows / self.saturation_rows) ** self.saturation_exp
        return self.efficiency * occupancy

    def duration_us(self, device: GPUSpec) -> float:
        return 2.0 + self.total_flops / (
            device.peak_flops_per_us * self._effective_efficiency()
        )

    def cost_key(self) -> tuple:
        return (type(self), self.total_flops, self.efficiency, self.rows,
                self.saturation_rows, self.saturation_exp)

    def flops(self) -> int:
        return self.total_flops


@dataclass
class HostTransfer(Kernel):
    """Host<->device copy over PCIe (the XLA embedding pathology inserts
    these around lookups, section 6.6)."""

    bytes_moved: int
    direction: str = "h2d"
    node_ids: tuple[int, ...] = ()
    kind: str = field(default="transfer", init=False)

    def __post_init__(self) -> None:
        if self.direction not in ("h2d", "d2h"):
            raise ValueError(f"bad transfer direction {self.direction!r}")
        self.name = f"{self.direction}[{self.bytes_moved}B]"

    def duration_us(self, device: GPUSpec) -> float:
        return device.pcie_latency_us + self.bytes_moved / device.pcie_bw_bytes_per_us

    def parallelism(self, device: GPUSpec) -> int:
        return 0  # uses the copy engine, not SMs

    def cost_key(self) -> tuple:
        return (type(self), self.bytes_moved, self.direction)
