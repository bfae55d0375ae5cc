"""Runtime layer: execution plans, the dispatcher Astra interposes on, and
the executor that runs plans on the simulated GPU (paper Figure 3)."""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "dispatcher": ("Dispatcher", "LoweredSchedule"),
    "executor": ("Executor", "MiniBatchResult"),
    "lowering": (
        "build_units", "elementwise_chains", "fused_elementwise_kernel",
        "kernel_for_node",
    ),
    "plan": ("ExecutionPlan", "Unit"),
})
