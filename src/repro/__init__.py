"""repro: a full reproduction of *Astra: Exploiting Predictability to
Optimize Deep Learning* (Sivathanu et al., ASPLOS 2019).

Layers (bottom-up):

* :mod:`repro.ir` -- shape-typed tensor IR, tracing, reverse-mode autodiff;
* :mod:`repro.gpu` -- deterministic discrete-event GPU simulator (streams,
  launch overhead, cudaEvents, GEMM kernel libraries, memory arenas);
* :mod:`repro.runtime` -- execution plans, dispatcher, executor;
* :mod:`repro.models` -- the paper's five evaluation models;
* :mod:`repro.baselines` -- native framework, cuDNN-style, XLA-style;
* :mod:`repro.core` -- Astra itself: enumerator, adaptive variables,
  profile index, custom-wirer, public session API;
* :mod:`repro.obs` -- observability: one observer event stream whose
  views are the phase table, the host trace, metrics, run reports and
  provenance, plus Chrome-trace export (all zero-cost when disabled);
* :mod:`repro.check` -- schedule-correctness validation: static
  race/liveness/layout checking of lowered schedules, the oracle behind
  ``Executor(validate=True)`` and ``repro check``.

The names re-exported here resolve lazily (:mod:`repro._lazy`), so
``import repro`` imports no submodule until one of them is used.
"""

from ._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "core.enumerator": ("AstraFeatures",),
    "core.session": ("AstraSession", "SessionReport"),
    "gpu.device": ("P100", "V100", "GPUSpec"),
    "check.violations": ("ScheduleValidationError", "ValidationReport"),
    "check.validate": ("validate_schedule",),
    "core.measurement": ("MeasurementPolicy", "TRUSTING", "ROBUST"),
    "faults.plan": ("FaultPlan", "FaultSpec", "FaultWindow"),
    "faults.checkpoint": ("ExplorationCheckpoint",),
})

__version__ = "1.0.0"
