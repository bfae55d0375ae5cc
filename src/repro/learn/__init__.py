"""Learned cost model over the profile-index corpus (docs/learning.md).

The FK pre-ranker (``repro.perf.ranker``) prunes choices it can price
*exactly*; this package goes further in the AutoTVM direction: a
dependency-free regression model trained on the measurements the fleet
has already paid for (``ProfileIndex`` / ``ProfileStore`` corpora),
with calibrated per-prediction uncertainty so exploration measures only
the model's top-k plus an uncertainty band -- and falls back to
exhaustive exploration whenever the model is stale, unconfident, or
contradicted by a Daydream-style what-if replay of the collected trace.

Two model families share the machinery: the per-choice fk model
(:class:`LearnedCostModel`) and the per-strategy fleet model
(:class:`FleetStrategyModel`, cut applied by
:class:`FleetStrategyRanker` -- see ``docs/distributed.md``).
"""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "features": (
        "FEATURE_NAMES", "FLEET_FEATURE_NAMES", "choice_features",
        "feature_digest", "fleet_feature_digest", "fleet_strategy_features",
    ),
    "harvest": ("TrainingRecord", "harvest_fleet", "harvest_index", "harvest_run"),
    "model": (
        "ARTIFACT_VERSION", "FLEET_ARTIFACT_KIND", "FleetStrategyModel",
        "LearnedCostModel", "ModelArtifactError", "StaleModelError",
        "artifact_fingerprint",
    ),
    "ranker": ("FleetStrategyRanker", "LearnedGate", "LearnedRanker"),
})
