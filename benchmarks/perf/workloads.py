"""The benchmark's workloads: which job each sample optimizes, and how often.

Every workload drives the public API with the CLI's defaults (fast path
with cache and pruning, budget 3000, P100).  ``samples`` and
``setup_samples`` are the counts of a count-based run; a time-bounded run
(``--seconds``) repeats the same mix until its time is up.  BENCHMARK.json
states each default workload's counts in its ``why``, and a test holds the
two to the same numbers.  README.md says why each workload was chosen.
"""

from __future__ import annotations

from dataclasses import dataclass

#: ``repro optimize`` / ``repro fleet`` defaults
BUDGET = 3000
DEVICE = "P100"


@dataclass(frozen=True)
class Workload:
    name: str
    model: str
    batch: int
    seq_len: int
    features: str = "all"
    #: fleet name: the sample runs ``run_fleet_search`` instead of a session
    fleet: str | None = None
    workers: int | None = None
    #: workload whose cold run fills the ProfileStore this one warm-starts from
    warm_from: str | None = None
    #: full samples (set-up plus optimize) in a count-based run
    samples: int = 5
    #: extra set-up-only samples, so ``setup_s`` has enough samples
    setup_samples: int = 0

    @property
    def traced_samples(self) -> int:
        """Traced samples added to a ``--trace`` run."""
        return max(1, self.samples // 2)


WORKLOADS = {
    w.name: w
    for w in (
        Workload("milstm-all", "milstm", 16, 1, "all",
                 samples=12, setup_samples=8),
        Workload("gnmt-fk", "gnmt", 16, 6, "FK",
                 samples=15, setup_samples=5),
        Workload("milstm-warm", "milstm", 16, 1, "all",
                 warm_from="milstm-all", samples=30),
        Workload("fleet-milstm-w2", "milstm", 256, 2, fleet="hetero",
                 workers=2, samples=16, setup_samples=4),
        # smoke workload for the tests; not part of a default run
        Workload("quick", "scrnn", 4, 2, "all", samples=2),
        # milstm-all at Table 3's sequence length, which the tests check
        # against the committed table; too slow for a timed workload
        Workload("milstm-table3", "milstm", 16, 5, "all", samples=1),
    )
}

#: what a run measures when no ``--workload`` is named
DEFAULT_WORKLOADS = ("milstm-all", "gnmt-fk", "milstm-warm", "fleet-milstm-w2")
