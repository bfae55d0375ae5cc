"""Fleet descriptions: named devices over a shared fabric.

A fleet is a small, fixed set of simulated accelerators
(:class:`~repro.gpu.device.GPUSpec` instances -- mixed P100s and V100s
with their own clocks and memory) connected by one shared
:class:`Interconnect`.  Placement strategies name device *classes*
(``"P100"``, ``"V100"``); the fleet supplies how many of each class
exist and what the fabric between them costs, including contention when
several boundary transfers overlap (``Interconnect.contended_us``).  A
homogeneous cluster is the degenerate fleet (:func:`uniform_fleet`).

The fabric prices communication the way the GPU cost model prices
kernels: deterministically in what Astra can observe (bytes, fabric,
world size), so measured step times repeat and the adaptive choice of
degree and partitioning is sound (section 3.4).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..gpu.device import DEVICES, GPUSpec, P100, V100


@dataclass(frozen=True)
class Interconnect:
    """A GPU-to-GPU fabric."""

    name: str
    #: per-link bandwidth, bytes per microsecond
    link_bw_bytes_per_us: float
    #: per-message latency, microseconds
    latency_us: float

    def allreduce_us(self, bytes_per_replica: int, world: int) -> float:
        """Ring all-reduce: 2(N-1)/N of the data crosses each link, in
        2(N-1) latency-bound steps."""
        if world <= 1:
            return 0.0
        steps = 2 * (world - 1)
        volume = 2.0 * (world - 1) / world * bytes_per_replica
        return steps * self.latency_us + volume / self.link_bw_bytes_per_us

    def contended_us(self, nbytes: int, concurrent: int = 1) -> float:
        """One point-to-point transfer while ``concurrent`` transfers share
        the fabric.

        The links are a shared medium: when several boundary transfers
        overlap (every adjacent stage pair of a busy pipeline hands off at
        the same beat), each sees ``1/concurrent`` of the link bandwidth.
        Latency is per-message and does not stretch under contention.
        Monotone in both arguments, and ``contended_us(b, 1)`` is the
        uncontended transfer -- the lower bound the fleet pre-ranker uses.
        """
        if nbytes <= 0:
            return 0.0
        share = self.link_bw_bytes_per_us / max(1, concurrent)
        return self.latency_us + nbytes / share


#: PCIe 3.0 x16-ish fabric: what the paper's Azure VMs had
PCIE = Interconnect(name="pcie", link_bw_bytes_per_us=12e3, latency_us=12.0)

#: NVLink-connected DGX-style fabric
NVLINK = Interconnect(name="nvlink", link_bw_bytes_per_us=45e3, latency_us=6.0)


@dataclass(frozen=True)
class FleetDevice:
    """One accelerator in the fleet: a stable name plus its spec."""

    name: str  # e.g. "gpu0"
    spec: GPUSpec

    @property
    def device_class(self) -> str:
        return self.spec.name


@dataclass(frozen=True)
class FleetSpec:
    """A named fleet: devices plus the fabric that connects them."""

    name: str
    devices: tuple[FleetDevice, ...]
    interconnect: Interconnect

    def __post_init__(self) -> None:
        if not self.devices:
            raise ValueError(f"fleet {self.name!r} has no devices")
        seen = set()
        for dev in self.devices:
            if dev.name in seen:
                raise ValueError(f"duplicate device name {dev.name!r}")
            seen.add(dev.name)

    @property
    def world(self) -> int:
        return len(self.devices)

    def class_counts(self) -> dict[str, int]:
        """Device-class availability, e.g. ``{"P100": 2, "V100": 2}``."""
        counts: dict[str, int] = {}
        for dev in self.devices:
            counts[dev.device_class] = counts.get(dev.device_class, 0) + 1
        return counts

    def class_specs(self) -> dict[str, GPUSpec]:
        """One representative :class:`GPUSpec` per device class."""
        specs: dict[str, GPUSpec] = {}
        for dev in self.devices:
            specs.setdefault(dev.device_class, dev.spec)
        return specs

    @property
    def heterogeneous(self) -> bool:
        return len(self.class_counts()) > 1

    def clock_modes(self) -> set[str]:
        return {dev.spec.clock_mode for dev in self.devices}

    def assign_devices(self, placement: tuple[str, ...]) -> tuple[str, ...]:
        """Concrete device names for a class placement, first-free order.

        Deterministic: replicas/stages claim devices of their class in
        fleet order, so the same placement always lands on the same
        hardware (trace tracks and keys stay stable across runs).
        """
        free: dict[str, list[str]] = {}
        for dev in self.devices:
            free.setdefault(dev.device_class, []).append(dev.name)
        names = []
        for cls in placement:
            pool = free.get(cls)
            if not pool:
                raise ValueError(
                    f"placement {placement!r} exceeds fleet {self.name!r} "
                    f"availability {self.class_counts()!r}"
                )
            names.append(pool.pop(0))
        return tuple(names)

    def describe(self) -> str:
        counts = self.class_counts()
        mix = "+".join(f"{n}x{cls}" for cls, n in sorted(counts.items()))
        return f"{self.name} ({mix}, {self.interconnect.name})"


def _mixed(name: str, interconnect: Interconnect) -> FleetSpec:
    return FleetSpec(
        name=name,
        devices=(
            FleetDevice("gpu0", P100),
            FleetDevice("gpu1", P100),
            FleetDevice("gpu2", V100),
            FleetDevice("gpu3", V100),
        ),
        interconnect=interconnect,
    )


def uniform_fleet(name: str, spec: GPUSpec, count: int,
                  interconnect: Interconnect) -> FleetSpec:
    """``count`` identical devices: the homogeneous cluster as a fleet."""
    return FleetSpec(
        name=name,
        devices=tuple(
            FleetDevice(f"gpu{i}", spec) for i in range(count)
        ),
        interconnect=interconnect,
    )


#: the default search fleet: the paper's P100s plus a newer pair of V100s
#: on an NVLink-class fabric, where scaling past the fast homogeneous
#: pair actually pays and the weighted hetero placement can win
DEFAULT_FLEET = _mixed("hetero", NVLINK)

FLEETS: dict[str, FleetSpec] = {
    "hetero": DEFAULT_FLEET,
    "hetero_pcie": _mixed("hetero_pcie", PCIE),
    "p100x4": uniform_fleet("p100x4", P100, 4, PCIE),
    "v100x4": uniform_fleet("v100x4", V100, 4, NVLINK),
}


def get_fleet(name: str) -> FleetSpec:
    try:
        return FLEETS[name]
    except KeyError:
        raise ValueError(
            f"unknown fleet {name!r}; have {sorted(FLEETS)}"
        ) from None


def with_clock(fleet: FleetSpec, mode: str) -> FleetSpec:
    """The same fleet with every device's clock switched to ``mode``."""
    return FleetSpec(
        name=fleet.name,
        devices=tuple(
            FleetDevice(d.name, d.spec.with_clock(mode)) for d in fleet.devices
        ),
        interconnect=fleet.interconnect,
    )


__all__ = [
    "Interconnect", "PCIE", "NVLINK",
    "FleetDevice", "FleetSpec", "DEFAULT_FLEET", "FLEETS",
    "get_fleet", "uniform_fleet", "with_clock",
    "DEVICES",
]
