"""Observability: one event stream and the views over it.

The subsystem that turns every benchmark run into an inspectable
artifact (see ``docs/observability.md``):

* :mod:`repro.obs.observer` -- the :class:`Observer`: spans, instants,
  metric updates and exploration decisions appended to one event list,
  with the phase table, host trace, metrics, run report and provenance
  log as views over it;
* :mod:`repro.obs.trace` -- the Chrome trace-event (Perfetto-compatible)
  exporter for executed mini-batches and fleet winners;
* :mod:`repro.obs.metrics` -- the counter/gauge/histogram/series
  registry the metrics view folds into;
* :mod:`repro.obs.report` -- JSON-lines per-mini-batch run reports plus
  a machine-readable summary document;
* :mod:`repro.obs.provenance` -- why each adaptive variable's winner won;
* :mod:`repro.obs.analysis` / :mod:`repro.obs.whatif` -- critical-path
  attribution of a simulated mini-batch and what-if projections, both
  views over the mini-batch's Chrome trace document.

Everything is zero-cost when disabled: :data:`NULL_OBSERVER` is the
default everywhere, and no observer ever changes what gets dispatched to
the (simulated) GPU.
"""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "analysis": (
        "AnalysisReport", "TimelineGraph",
        "analyze", "analyze_trace",
    ),
    "observer": ("Observer", "NULL_OBSERVER"),
    "metrics": ("Counter", "Gauge", "Histogram", "Series", "MetricsRegistry"),
    "report": (
        "MiniBatchRecord", "RunReporter",
        "KIND_EXPLORE", "KIND_COMPARE", "KIND_PRODUCTION",
        "KIND_VIOLATION", "KIND_FAULT",
    ),
    "provenance": ("ProvenanceLog", "VariableDecision"),
    "whatif": (
        "Projection", "WhatIfChange",
        "project", "scale_kernel", "swap_libraries", "swap_library",
    ),
    "trace": (
        "chrome_trace", "kernel_args", "merge_host_trace",
        "validate_chrome_trace",
    ),
})
