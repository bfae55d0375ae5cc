"""Structured run reports: JSON-lines per-mini-batch records + summary.

Every exploration mini-batch becomes one machine-readable record (phase,
context key, assignment delta, measured time, best-so-far), so a run can
be diffed against another seed or plotted as a convergence curve without
re-running anything.  The summary document bundles the convergence
curve, per-phase profile-index hit rates and (optionally) the full
serialized :class:`~repro.core.wirer.AstraReport`, following the
same versioned-JSON conventions as :mod:`repro.serialize`.

The records are the :meth:`~repro.obs.observer.Observer.report` view of
a run's mini-batch, fault and violation decisions.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (serialize -> wirer)
    from ..core.wirer import AstraReport

#: record kinds, in the order they appear in a run
KIND_EXPLORE = "explore"
KIND_COMPARE = "compare"
KIND_PRODUCTION = "production"
#: a schedule-validation failure surfaced by repro.check (validated mode)
KIND_VIOLATION = "violation"
#: an injected/surfaced fault or recovery action (see repro.faults)
KIND_FAULT = "fault"

#: record kinds that carry no mini-batch measurement and must never
#: contribute to the running best or the convergence curve
_EVENT_KINDS = (KIND_VIOLATION, KIND_FAULT)


@dataclass
class MiniBatchRecord:
    """One exploration mini-batch, as logged by the custom-wirer."""

    seq: int
    phase: str
    kind: str
    #: context-mangled prefix the measurements were indexed under
    context: tuple
    #: adaptive variables whose choice changed since the previous record
    assignment_delta: dict[str, str]
    time_us: float
    best_so_far_us: float

    def to_dict(self) -> dict:
        return {
            "seq": self.seq,
            "phase": self.phase,
            "kind": self.kind,
            "context": list(self.context),
            "assignment_delta": dict(self.assignment_delta),
            "time_us": self.time_us,
            "best_so_far_us": self.best_so_far_us,
        }


@dataclass
class RunReporter:
    """Per-mini-batch records of one optimization run."""

    records: list[MiniBatchRecord] = field(default_factory=list)

    def minibatch(
        self,
        phase: str,
        time_us: float,
        context: tuple = (),
        assignment_delta: dict[str, Any] | None = None,
        kind: str = KIND_EXPLORE,
    ) -> None:
        best = min(self.best_so_far(), time_us)
        self.records.append(MiniBatchRecord(
            seq=len(self.records),
            phase=phase,
            kind=kind,
            context=tuple(context),
            # repr keeps arbitrary choice objects JSON-safe, matching the
            # assignment encoding in serialize.report_to_dict
            assignment_delta={k: repr(v) for k, v in (assignment_delta or {}).items()},
            time_us=time_us,
            best_so_far_us=best,
        ))

    def violation(
        self,
        phase: str,
        kind: str,
        message: str,
        context: tuple = (),
    ) -> None:
        """One schedule-correctness violation (see :mod:`repro.check`).

        Violations carry no mini-batch time -- the schedule was rejected
        before (or instead of) execution -- so ``time_us`` is zero and
        the violation kind travels in ``assignment_delta``.
        """
        best = self.best_so_far()
        self.records.append(MiniBatchRecord(
            seq=len(self.records),
            phase=phase,
            kind=KIND_VIOLATION,
            context=tuple(context),
            assignment_delta={"violation": kind, "message": message},
            time_us=0.0,
            best_so_far_us=best if not math.isinf(best) else 0.0,
        ))

    def fault(
        self,
        phase: str,
        kind: str,
        message: str,
        context: tuple = (),
    ) -> None:
        """One fault surfaced to (or recovery action taken by) the wirer.

        Like violations, fault records carry no mini-batch time; the
        fault class and message travel in ``assignment_delta``.
        """
        best = self.best_so_far()
        self.records.append(MiniBatchRecord(
            seq=len(self.records),
            phase=phase,
            kind=KIND_FAULT,
            context=tuple(context),
            assignment_delta={"fault": kind, "message": message},
            time_us=0.0,
            best_so_far_us=best if not math.isinf(best) else 0.0,
        ))

    def violations(self) -> list[MiniBatchRecord]:
        return [r for r in self.records if r.kind == KIND_VIOLATION]

    def faults(self) -> list[MiniBatchRecord]:
        return [r for r in self.records if r.kind == KIND_FAULT]

    def best_so_far(self) -> float:
        # violation/fault records carry a placeholder 0.0 when nothing
        # has run yet; they must not reset the running best
        for record in reversed(self.records):
            if record.kind not in _EVENT_KINDS:
                return record.best_so_far_us
        return math.inf

    def convergence_curve(self) -> list[tuple[int, float]]:
        """(seq, best-so-far end-to-end time) for every logged mini-batch."""
        return [
            (r.seq, r.best_so_far_us)
            for r in self.records
            if r.kind not in _EVENT_KINDS
        ]

    # -- serialization ------------------------------------------------------

    def jsonl(self) -> str:
        """One JSON object per line, one line per mini-batch."""
        return "\n".join(json.dumps(r.to_dict()) for r in self.records)

    def write_jsonl(self, path) -> None:
        with open(path, "w") as fh:
            fh.write(self.jsonl())
            if self.records:
                fh.write("\n")

    def summary(
        self,
        report: "AstraReport | None" = None,
        native_time_us: float | None = None,
        metrics=None,
    ) -> dict:
        """Machine-readable summary of the run.

        Includes the convergence curve and, when an ``AstraReport`` is
        supplied, per-phase profile-index hit rates and the fully
        serialized report (via :mod:`repro.serialize`).
        """
        from .. import serialize  # deferred: serialize imports core.wirer

        doc: dict = {
            "version": serialize.FORMAT_VERSION,
            "minibatches": len(self.records),
            "convergence_curve": [[s, v] for s, v in self.convergence_curve()],
            "records": [r.to_dict() for r in self.records],
        }
        if native_time_us is not None:
            doc["native_time_us"] = native_time_us
        fault_records = self.faults()
        if fault_records:
            by_kind: dict[str, int] = {}
            for record in fault_records:
                fk = record.assignment_delta.get("fault", "unknown")
                by_kind[fk] = by_kind.get(fk, 0) + 1
            doc["faults"] = by_kind
        if report is not None:
            doc["astra"] = serialize.report_to_dict(report)
            if getattr(report, "memory", None):
                doc["memory"] = dict(report.memory)
            if getattr(report, "degraded", False):
                doc["degraded"] = True
            doc["phases"] = [
                {
                    "name": p.name,
                    "minibatches": p.minibatches,
                    "index_hits": p.index_hits,
                    "index_hit_rate": p.index_hit_rate,
                }
                for p in report.phases
            ]
            if native_time_us is not None and report.best_time_us > 0:
                doc["speedup_over_native"] = native_time_us / report.best_time_us
        if metrics is not None:
            doc["metrics"] = metrics.snapshot()
        return doc
