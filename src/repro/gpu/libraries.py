"""Simulated low-level GEMM kernel libraries.

The paper's Table 1 observes that the best GEMM library depends on the
operand shapes (and GPU generation) in ways that are hard to predict
statically -- which is exactly why Astra adapts the kernel choice online.
We model three libraries in the spirit of cuBLAS, OpenAI-GEMM and Neon:
each owns a menu of tile geometries with different sustained efficiencies
and different behaviour over the K (reduction) dimension, so wave
quantization over the SM slots makes the winner shape-dependent.

These are *performance models*, not numerics: the executed values are
identical for every library (all Astra optimizations are value-preserving,
section 6.7).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .device import GPUSpec


@dataclass(frozen=True)
class TileVariant:
    """One tile geometry a library can instantiate, with its efficiency
    multiplier (bigger tiles amortize register/shared-memory staging
    better; small tiles avoid padding waste on skinny operands)."""

    tile_m: int
    tile_n: int
    efficiency: float


@dataclass(frozen=True)
class GemmPlan:
    """The library's chosen execution plan for a shape: used both for the
    duration and for the parallelism cap the stream engine applies."""

    duration_us: float
    tiles: int
    variant: TileVariant
    split_k: int


@dataclass(frozen=True)
class GemmKernel:
    """One library's GEMM implementation.

    ``k_ramp`` models pipeline fill (efficiency ramps ~K/k_ramp below it);
    ``k_decay`` models shared-memory thrashing above a K threshold.
    Libraries with ``max_split_k > 1`` can split the reduction dimension to
    fill SM slots on skinny shapes, paying a combine penalty.
    """

    library: str
    variants: tuple[TileVariant, ...]
    base_efficiency: float
    k_ramp: int
    k_decay: int
    startup_us: float
    k_decay_strength: float = 0.8
    max_split_k: int = 1
    split_k_penalty: float = 0.25

    def efficiency(self, k: int, variant: TileVariant) -> float:
        eff = self.base_efficiency * variant.efficiency
        if k < self.k_ramp:
            eff *= k / self.k_ramp
        if self.k_decay and k > self.k_decay:
            eff /= 1.0 + self.k_decay_strength * math.log2(k / self.k_decay)
        return eff

    def plan(self, m: int, k: int, n: int, device: GPUSpec) -> GemmPlan:
        """Pick the fastest (variant, split-K) plan for a shape.

        Tiles are issued in waves over the SM slots; a partially-filled
        last wave still costs a full wave -- the performance-cliff
        behaviour of section 3.1.

        The result is a pure function of (library, shape, device physics)
        and a training job re-asks for the same few dozen shapes every
        mini-batch, so plans are memoized process-wide (both the simulator
        and the fast-path pre-ranker hit this on their hot paths).
        """
        # key on the exact physics inputs the computation reads, so a
        # modified device spec (tests build them freely) never aliases.
        # The library is keyed by name -- hashing the frozen dataclass
        # would walk its variant tuple on every call -- and each entry
        # holds the library it was planned by, so a test-built library
        # of the same name never reads another's plan
        memo_key = (
            self.library, m, k, n,
            device.sm_slots, device.peak_flops_per_us, device.mem_bw_bytes_per_us,
        )
        cached = _PLAN_MEMO.get(memo_key)
        if cached is not None and cached[0] is self:
            return cached[1]
        plan = self._plan_uncached(m, k, n, device)
        if len(_PLAN_MEMO) >= _PLAN_MEMO_CAP:
            _PLAN_MEMO.clear()  # unbounded shape churn is not a real workload
        _PLAN_MEMO[memo_key] = (self, plan)
        return plan

    def _plan_uncached(self, m: int, k: int, n: int, device: GPUSpec) -> GemmPlan:
        slots = device.sm_slots
        per_slot_throughput = device.peak_flops_per_us / slots
        best: GemmPlan | None = None
        for variant in self.variants:
            base_tiles = math.ceil(m / variant.tile_m) * math.ceil(n / variant.tile_n)
            for split in range(1, self.max_split_k + 1):
                tiles = base_tiles * split
                waves = math.ceil(tiles / slots)
                k_part = max(1, math.ceil(k / split))
                flops_per_tile = 2.0 * variant.tile_m * variant.tile_n * k_part
                eff = self.efficiency(k_part, variant)
                tile_time = flops_per_tile / (per_slot_throughput * eff)
                overhead = 1.0 + (self.split_k_penalty if split > 1 else 0.0)
                compute = waves * tile_time * overhead
                bytes_touched = 4 * (m * k + k * n + m * n)
                mem_floor = bytes_touched / device.mem_bw_bytes_per_us
                duration = self.startup_us + max(compute, mem_floor)
                if best is None or duration < best.duration_us:
                    best = GemmPlan(duration, tiles, variant, split)
        assert best is not None
        return best

    def duration_us(self, m: int, k: int, n: int, device: GPUSpec) -> float:
        """Time for this GEMM to run *alone* on the device."""
        return self.plan(m, k, n, device).duration_us

    def max_parallel_blocks(self, m: int, n: int, device: GPUSpec, k: int = 1024) -> int:
        """SM slots the chosen plan can occupy at once: bounds how much the
        kernel benefits from -- or yields to -- concurrent streams."""
        return min(self.plan(m, k, n, device).tiles, device.sm_slots)


# Library catalogue.  Calibrated (see tests/gpu/test_libraries.py) so that:
#  * cuBLAS is the robust all-rounder with a broad tile menu: the default
#    library of the native baseline, and the Table 1 winner at large K;
#  * OAI_1 peaks higher but ramps slowly in K and decays beyond ~1.5k:
#    wins skinny-M / large-N / mid-K shapes (Table 1 row 1), loses at
#    small K (common at small hidden sizes) and at very large K (row 2);
#  * OAI_2 only has a deep-K tile: near-cuBLAS at K=4096, catastrophic
#    (several-fold slower) on large-N mid-K shapes -- the 0.938 ms outlier.
CUBLAS = GemmKernel(
    library="cublas",
    variants=(
        TileVariant(128, 64, 1.00),
        TileVariant(64, 128, 0.95),
        TileVariant(64, 64, 0.90),
        TileVariant(32, 128, 0.88),
        TileVariant(16, 128, 0.68),
        TileVariant(8, 128, 0.62),
        TileVariant(32, 32, 0.52),
    ),
    base_efficiency=0.84,
    k_ramp=64,
    k_decay=0,
    startup_us=2.2,
    max_split_k=2,
    split_k_penalty=0.25,
)

OAI_1 = GemmKernel(
    library="oai_1",
    variants=(
        TileVariant(32, 128, 1.00),
        TileVariant(64, 128, 0.92),
        TileVariant(16, 128, 0.85),
        TileVariant(8, 128, 0.80),
    ),
    base_efficiency=0.92,
    k_ramp=1024,
    k_decay=1536,
    startup_us=1.6,
    k_decay_strength=0.8,
    max_split_k=2,
    split_k_penalty=0.25,
)

OAI_2 = GemmKernel(
    library="oai_2",
    variants=(TileVariant(64, 32, 1.00),),
    base_efficiency=0.82,
    k_ramp=5632,
    k_decay=0,
    startup_us=1.2,
)

GEMM_LIBRARIES: dict[str, GemmKernel] = {
    kernel.library: kernel for kernel in (CUBLAS, OAI_1, OAI_2)
}

#: process-wide GemmPlan memo (see :meth:`GemmKernel.plan`), values
#: ``(library, plan)``; bounded by a flush-on-full cap because real jobs
#: reuse a few dozen shapes
_PLAN_MEMO: dict[tuple, tuple] = {}
_PLAN_MEMO_CAP = 4096

#: the library the native (unadapted) baseline always uses
DEFAULT_LIBRARY = "cublas"


def best_library(m: int, k: int, n: int, device: GPUSpec) -> str:
    """Oracle: the fastest library for a shape (used only by tests; Astra
    itself discovers this by measurement, never by consulting the model)."""
    return min(GEMM_LIBRARIES, key=lambda lib: GEMM_LIBRARIES[lib].duration_us(m, k, n, device))
