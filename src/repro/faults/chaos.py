"""Chaos harness: sweep a fault matrix and prove the runtime survives it.

Behind ``repro chaos <model>``: run the Astra exploration under each cell
of a fault matrix (one fault class armed per cell, plus a clean control
and an everything-at-once storm), assert the degradation invariant on
every cell, and cross-check the fault accounting:

* **termination** -- every cell produces a report (a preempted cell must
  checkpoint, resume, and then produce a report);
* **degradation invariant** -- the returned plan, measured on a clean
  executor, is never slower than native;
* **accounting** -- every injected fault appears in the injector ledger,
  the ``fault.injected.*`` metrics gauges, and (for surfaced faults) the
  run-report fault records; the three views must agree.

The harness is deliberately deterministic: cells derive their seeds from
the base seed, so a chaos run is exactly reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .events import (
    FAULT_EVENT_CORRUPT,
    FAULT_EVENT_DROP,
    FAULT_LAUNCH,
    FAULT_OOM,
    FAULT_PREEMPT,
    FAULT_SLOWDOWN,
    FAULT_THROTTLE,
    PreemptionError,
)
from .plan import FaultPlan, FaultSpec, FaultWindow


@dataclass(frozen=True)
class ChaosCell:
    """One cell of the fault matrix: a named fault plan to survive."""

    name: str
    plan: FaultPlan


@dataclass
class CellResult:
    """What happened when one cell ran."""

    name: str
    ok: bool
    best_time_us: float
    native_time_us: float
    speedup: float
    degraded: bool
    resumed: bool
    #: injected-fault counts from the injector ledger (kind -> count)
    injected: dict = field(default_factory=dict)
    #: problems found by the invariant checks (empty when ok)
    problems: list = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "ok": self.ok,
            "best_time_us": self.best_time_us,
            "native_time_us": self.native_time_us,
            "speedup": self.speedup,
            "degraded": self.degraded,
            "resumed": self.resumed,
            "injected": dict(self.injected),
            "problems": list(self.problems),
        }


@dataclass
class ChaosReport:
    """Resilience report for one model's chaos sweep."""

    model: str
    cells: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(cell.ok for cell in self.cells)

    def to_dict(self) -> dict:
        return {
            "version": 1,
            "model": self.model,
            "ok": self.ok,
            "cells": [cell.to_dict() for cell in self.cells],
        }

    def render(self) -> str:
        lines = [
            f"chaos sweep: {self.model}",
            f"{'cell':<16} {'verdict':<8} {'astra(ms)':>10} {'native(ms)':>11} "
            f"{'speedup':>8}  notes",
        ]
        for cell in self.cells:
            notes = []
            if cell.degraded:
                notes.append("degraded->native")
            if cell.resumed:
                notes.append("preempted+resumed")
            if cell.injected:
                injected = ",".join(
                    f"{k}:{v}" for k, v in sorted(cell.injected.items())
                )
                notes.append(f"injected[{injected}]")
            notes.extend(cell.problems)
            lines.append(
                f"{cell.name:<16} {'ok' if cell.ok else 'FAIL':<8} "
                f"{cell.best_time_us / 1000:>10.3f} "
                f"{cell.native_time_us / 1000:>11.3f} "
                f"{cell.speedup:>8.2f}  {'; '.join(notes)}"
            )
        lines.append(f"chaos {self.model}: {'OK' if self.ok else 'FAILED'}")
        return "\n".join(lines)


def default_matrix(seed: int = 0, preempt_at: int = 6) -> list[ChaosCell]:
    """The standard fault matrix: a clean control, one cell per fault
    class, and a storm with everything armed at once."""
    cells = [
        ChaosCell("clean", FaultPlan.none()),
        ChaosCell(
            "slowdown",
            FaultPlan.single(FAULT_SLOWDOWN, rate=0.3, seed=seed, factor=6.0),
        ),
        ChaosCell(
            "throttle",
            FaultPlan.single(
                FAULT_THROTTLE, seed=seed, factor=2.5,
                window=FaultWindow(2, 10),
            ),
        ),
        # rates are per-opportunity (per kernel launch / per profiled
        # timestamp), so small numbers still fault a large fraction of
        # mini-batches; these are set where retry + robust measurement
        # usually recovers, leaving the degradation path to oom/storm
        ChaosCell(
            "launch_fail",
            FaultPlan.single(FAULT_LAUNCH, rate=0.004, seed=seed),
        ),
        ChaosCell(
            "event_drop",
            FaultPlan.single(FAULT_EVENT_DROP, rate=0.05, seed=seed),
        ),
        ChaosCell(
            "event_corrupt",
            FaultPlan.single(FAULT_EVENT_CORRUPT, rate=0.2, seed=seed, factor=3.0),
        ),
        ChaosCell(
            "oom",
            # cap usable memory hard enough that arena-backed strategies
            # are pruned and exploration must cope (or degrade)
            FaultPlan.single(
                FAULT_OOM, seed=seed, mem_limit_bytes=1,
                window=FaultWindow(0, None),
            ),
        ),
        ChaosCell(
            "preempt",
            FaultPlan.single(FAULT_PREEMPT, seed=seed, at=preempt_at),
        ),
        ChaosCell(
            "storm",
            FaultPlan(
                specs=(
                    FaultSpec(FAULT_SLOWDOWN, rate=0.2, factor=4.0),
                    FaultSpec(FAULT_THROTTLE, rate=1.0, factor=2.0,
                              window=FaultWindow(3, 9)),
                    FaultSpec(FAULT_LAUNCH, rate=0.03),
                    FaultSpec(FAULT_EVENT_DROP, rate=0.1),
                    FaultSpec(FAULT_EVENT_CORRUPT, rate=0.1, factor=3.0),
                ),
                seed=seed,
            ),
        ),
    ]
    return cells


def _run_cell(
    model,
    cell: ChaosCell,
    budget: int,
    seed: int,
    device=None,
    features="all",
    checkpoint_path=None,
):
    """Run one cell to completion, resuming across preemptions.

    Returns (session_report, wirer, resumed_flag)."""
    # deferred: repro.core imports repro.faults at module level
    from ..core.measurement import ROBUST
    from ..core.session import AstraSession
    from ..obs.observer import Observer

    resumed = False
    attempts = 0
    while True:
        session = AstraSession(
            model,
            **({"device": device} if device is not None else {}),
            features=features,
            seed=seed,
            policy=ROBUST if cell.plan.specs else None,
            faults=cell.plan if cell.plan.specs else None,
            checkpoint_path=checkpoint_path,
            observer=Observer(),
        )
        try:
            return session.optimize(max_minibatches=budget), session, resumed
        except PreemptionError:
            # the scheduler took the device; the wirer checkpointed (when
            # a path is configured).  A preempt plan fires once, so the
            # restarted session runs to completion.
            if checkpoint_path is None:
                raise
            resumed = True
            attempts += 1
            if attempts > 3:
                raise


def run_chaos(
    model,
    model_name: str = "model",
    budget: int = 60,
    seed: int = 0,
    device=None,
    features: str = "all",
    cells: list[ChaosCell] | None = None,
    checkpoint_dir: str | None = None,
) -> ChaosReport:
    """Sweep the fault matrix over one traced model.

    Every cell is checked for the degradation invariant (final plan no
    slower than native on a clean device) and for fault accounting
    (injector ledger == ``fault.injected.*`` gauges == report summary).
    """
    import os
    import tempfile

    report = ChaosReport(model=model_name)
    cells = cells if cells is not None else default_matrix(seed=seed)
    tmpdir = None
    if checkpoint_dir is None:
        tmpdir = tempfile.TemporaryDirectory(prefix="repro-chaos-")
        checkpoint_dir = tmpdir.name
    try:
        for cell in cells:
            ckpt = os.path.join(checkpoint_dir, f"{model_name}-{cell.name}.ckpt")
            session_report, session, resumed = _run_cell(
                model, cell, budget, seed,
                device=device, features=features, checkpoint_path=ckpt,
            )
            report.cells.append(
                _check_cell(cell, session_report, session, resumed)
            )
    finally:
        if tmpdir is not None:
            tmpdir.cleanup()
    return report


def _check_cell(cell: ChaosCell, session_report, session, resumed) -> CellResult:
    problems: list[str] = []
    wirer = session.wirer
    astra = session_report.astra

    # degradation invariant: the shipped plan is never slower than native
    # on a clean device (small tolerance for float accumulation order)
    clean_time = session.measure_clean(astra.best_plan)
    native_time = session_report.native_time_us
    if clean_time > native_time * 1.0001:
        problems.append(
            f"degradation violated: plan {clean_time:.1f}us > "
            f"native {native_time:.1f}us"
        )

    injected: dict = {}
    if wirer.injector is not None:
        summary = wirer.injector.summary()
        injected = dict(summary["injected"])
        # accounting view 1: report.fault_summary mirrors the ledger
        if astra.fault_summary.get("injected", {}) != injected:
            problems.append("fault_summary does not match injector ledger")
        # accounting view 2: fault.injected.* gauges mirror the ledger
        snapshot = wirer.observer.metrics().snapshot()
        for kind, count in injected.items():
            gauge = snapshot.get(f"fault.injected.{kind}", {}).get("value")
            if gauge != count:
                problems.append(
                    f"gauge fault.injected.{kind}={gauge} != ledger {count}"
                )
        # accounting view 3: injected fault classes appear among the
        # run-report fault records (summary records are always written)
        recorded = {
            r.assignment_delta.get("fault")
            for r in wirer.observer.report().faults()
        }
        for kind in injected:
            if injected[kind] and kind not in recorded:
                problems.append(f"injected {kind} missing from run report")

    return CellResult(
        name=cell.name,
        ok=not problems,
        best_time_us=astra.best_time_us,
        native_time_us=native_time,
        speedup=session_report.speedup_over_native,
        degraded=astra.degraded,
        resumed=resumed,
        injected=injected,
        problems=problems,
    )
