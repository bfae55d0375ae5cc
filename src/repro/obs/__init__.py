"""Observability: tracing, metrics, and structured run reports.

The subsystem that turns every benchmark run into an inspectable
artifact (see ``docs/observability.md``):

* :mod:`repro.obs.trace` -- host-side span recording and a Chrome
  trace-event (Perfetto-compatible) exporter for executed mini-batches;
* :mod:`repro.obs.metrics` -- counter/gauge/histogram/series registry
  fed by the custom-wirer and the profile index;
* :mod:`repro.obs.report` -- JSON-lines per-mini-batch run reports plus
  a machine-readable summary document.

Everything is zero-cost when disabled: the default hooks are null
objects, and the trace exporter is a pure function of data the simulator
already produces -- enabling observability never changes what gets
dispatched to the (simulated) GPU.
"""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "analysis": (
        "AnalysisReport", "TimelineGraph",
        "analyze", "analyze_execution", "analyze_trace",
    ),
    "metrics": (
        "Counter", "Gauge", "Histogram", "Series",
        "MetricsRegistry", "NullRegistry", "NULL_REGISTRY",
    ),
    "report": (
        "MiniBatchRecord", "RunReporter", "NullReporter", "NULL_REPORTER",
        "KIND_EXPLORE", "KIND_COMPARE", "KIND_PRODUCTION",
        "KIND_VIOLATION", "KIND_FAULT",
    ),
    "provenance": ("ProvenanceLog", "VariableDecision", "NULL_PROVENANCE"),
    "whatif": (
        "Projection", "WhatIfChange",
        "project", "remove_kernel", "scale_kernel", "swap_libraries", "swap_library",
    ),
    "trace": (
        "Tracer", "NULL_TRACER",
        "chrome_trace", "kernel_args", "merge_host_trace",
        "validate_chrome_trace", "write_chrome_trace",
    ),
})
