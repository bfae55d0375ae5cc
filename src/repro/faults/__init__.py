"""Fault injection and resilience: the hostile-fleet half of the repro.

The paper hedges its "predictable execution" requirement against real
fleets (base clocks via nvidia-smi, a profile index designed to survive
restarts); this subsystem reproduces the hostility and proves the runtime
half survives it:

* :mod:`repro.faults.events` -- the typed fault taxonomy
  (:class:`FaultError` aborts, :class:`FaultEvent` taints);
* :mod:`repro.faults.plan` -- declarative, seeded :class:`FaultPlan`
  (per-class rates, factors, mini-batch windows);
* :mod:`repro.faults.injector` -- the stateful, deterministic
  :class:`FaultInjector` the simulator and executor consult, with the
  ledger that makes every injected fault accountable;
* :mod:`repro.faults.checkpoint` -- :class:`ExplorationCheckpoint`
  save/restore so a preempted exploration resumes instead of re-exploring;
* :mod:`repro.faults.chaos` -- the chaos harness behind ``repro chaos``:
  sweep a fault matrix, assert the degradation invariant, print a
  resilience report.

See ``docs/robustness.md`` for the taxonomy and the recovery policies.
"""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "events": (
        "FAULT_KINDS",
        "FAULT_SLOWDOWN", "FAULT_THROTTLE", "FAULT_LAUNCH",
        "FAULT_EVENT_DROP", "FAULT_EVENT_CORRUPT", "FAULT_OOM", "FAULT_PREEMPT",
        "FaultError", "FaultEvent", "FaultRecord", "MinibatchFaultLog",
        "KernelLaunchError", "DeviceOOMError", "PreemptionError",
    ),
    "plan": ("FaultPlan", "FaultSpec", "FaultWindow"),
    "injector": ("FaultInjector",),
    "checkpoint": ("ExplorationCheckpoint",),
    "chaos": ("ChaosCell", "ChaosReport", "default_matrix", "run_chaos"),
})
