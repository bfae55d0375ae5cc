"""Astra core: the paper's contribution.

Enumerator (static analysis -> update tree of adaptive variables),
custom-wirer (one configuration per training mini-batch, fine-grained
profiling, profile-index-driven pruning), and the public AstraSession API.
"""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "adaptive": (
        "AdaptiveVariable", "MODE_EXHAUSTIVE", "MODE_PARALLEL", "MODE_PREFIX",
        "UpdateNode", "count_configurations",
    ),
    "allocation": ("AllocationStrategy", "enumerate_strategies", "build_arena_plan"),
    "enumerator": ("AstraFeatures", "BuiltPlan", "Enumerator"),
    "epochs": ("Epoch", "EpochPartition", "partition_epochs"),
    "fusion": (
        "FusionAnalysis", "FusionGroup", "FusionMember", "Requirement",
        "analyse_fusion", "detect_ladders", "provenance",
    ),
    "profile_index": ("ProfileIndex", "mangle"),
    "session": ("AstraSession", "SessionReport"),
    "wirer": ("AstraReport", "CustomWirer", "PhaseStats", "Amortization"),
    "bucketing": ("BucketedReport", "run_bucketed"),
    "recompute": (
        "BatchDecision", "RecomputePlan", "RecomputePlanner", "Segment",
        "best_batch_under_budget", "estimate_memory",
    ),
    "measurement": (
        "MeasurementPolicy", "TRUSTING", "ROBUST", "QUARANTINED_US",
        "median", "mad", "reject_outliers", "robust_min",
    ),
})
