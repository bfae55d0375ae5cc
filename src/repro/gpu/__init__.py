"""GPU simulator substrate: device model, kernels, streams, memory.

Substitutes for the P100 the paper evaluates on (DESIGN.md section 2): a
deterministic discrete-event model of kernel launches, FIFO streams with
processor sharing, cudaEvent timestamps, GEMM kernel libraries with
shape-dependent winners, and an arena allocator with contiguity queries.
"""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "device": ("CLOCK_AUTOBOOST", "CLOCK_BASE", "DEVICES", "GPUSpec", "P100", "V100"),
    "events": ("EventId", "EventNamespace", "ProfileRange"),
    "kernels": (
        "CompoundLaunch", "CopyLaunch", "ElementwiseLaunch", "GemmLaunch",
        "HostTransfer", "Kernel",
    ),
    "libraries": ("DEFAULT_LIBRARY", "GEMM_LIBRARIES", "GemmKernel", "best_library"),
    "memory": ("AllocationPlan", "ContiguityGroup"),
    "streams": (
        "DispatchItem", "ExecutionResult", "HostComputeItem", "HostSyncItem",
        "KernelRecord", "LaunchItem", "RecordEventItem", "StreamSimulator",
    ),
    "cost_model": (
        "Roofline", "achieved_fraction", "device_utilization",
        "gemm_roofline", "launch_bound_fraction", "roofline",
    ),
})
