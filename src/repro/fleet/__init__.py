"""Multi-GPU strategy search over homogeneous and mixed fleets.

The paper's section 3.4 asks that the data-parallel degree be chosen by
measurement, and section 6.7 extends measured adaptation to
"model-partitioning and data partitioning in multi-GPU jobs"; the 2025
hetero-Astra paper (PAPERS.md) extends the search space to *mixed*
device fleets, with the homogeneous cluster as the degenerate case.
This subpackage makes the partitioning strategy -- data-parallel degree,
contiguous pipeline stage cuts, per-stage/per-replica device placement,
and the batch-split mode -- a first-class adaptive variable explored by
the wave engine, with per-device profile-index mangling so measurements
are shared across every strategy that places the same subgraph on the
same device class.  See ``docs/distributed.md``.
"""

from .spec import (
    DEFAULT_FLEET, FLEETS, NVLINK, PCIE, FleetDevice, FleetSpec, Interconnect,
    get_fleet, uniform_fleet, with_clock,
)
from .strategy import Strategy, enumerate_strategies, resolve_weighted_shards
from .measure import STRATEGY_VAR, FleetMeasurer, StrategyOutcome, strategy_profile_key
from .search import FleetSearchReport, run_fleet_search

__all__ = [
    "DEFAULT_FLEET", "FLEETS", "FleetDevice", "FleetSpec",
    "Interconnect", "NVLINK", "PCIE",
    "get_fleet", "uniform_fleet", "with_clock",
    "Strategy", "enumerate_strategies", "resolve_weighted_shards",
    "STRATEGY_VAR", "FleetMeasurer", "StrategyOutcome", "strategy_profile_key",
    "FleetSearchReport", "run_fleet_search",
]
