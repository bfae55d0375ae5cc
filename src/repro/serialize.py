"""JSON serialization of plans, reports and lowered schedules.

Dumps what Astra found -- the custom-wired execution plan and the
optimization report (including the full adaptive-variable assignment)
-- for ``repro optimize --json``, and a lowered schedule's dispatch
items for the golden-schedule tests.  There is no reload path:
re-wiring a job without measuring goes through the profile store's
warm start (docs/serving.md).
"""

from __future__ import annotations

from .core.wirer import AstraReport
from .core.session import SessionReport
from .gpu.kernels import (
    CompoundLaunch,
    CopyLaunch,
    ElementwiseLaunch,
    GemmLaunch,
    HostTransfer,
    Kernel,
)
from .runtime.plan import ExecutionPlan

FORMAT_VERSION = 1


# ---------------------------------------------------------------------------
# kernels / plans
# ---------------------------------------------------------------------------


def kernel_to_dict(kernel: Kernel) -> dict:
    if isinstance(kernel, GemmLaunch):
        return {"kind": "gemm", "m": kernel.m, "k": kernel.k, "n": kernel.n,
                "library": kernel.library, "node_ids": list(kernel.node_ids)}
    if isinstance(kernel, ElementwiseLaunch):
        return {"kind": "elementwise", "num_elements": kernel.num_elements,
                "fused_ops": kernel.fused_ops,
                "flops_per_element": kernel.flops_per_element,
                "bytes_per_element": kernel.bytes_per_element,
                "label": kernel.label, "node_ids": list(kernel.node_ids)}
    if isinstance(kernel, CopyLaunch):
        return {"kind": "copy", "bytes_moved": kernel.bytes_moved,
                "label": kernel.label, "node_ids": list(kernel.node_ids)}
    if isinstance(kernel, CompoundLaunch):
        return {"kind": "compound", "total_flops": kernel.total_flops,
                "efficiency": kernel.efficiency, "rows": kernel.rows,
                "label": kernel.label, "node_ids": list(kernel.node_ids)}
    if isinstance(kernel, HostTransfer):
        return {"kind": "transfer", "bytes_moved": kernel.bytes_moved,
                "direction": kernel.direction, "node_ids": list(kernel.node_ids)}
    raise TypeError(f"cannot serialize kernel {kernel!r}")


def plan_to_dict(plan: ExecutionPlan) -> dict:
    return {
        "version": FORMAT_VERSION,
        "label": plan.label,
        "profile": plan.profile,
        "stream_of": {str(k): v for k, v in plan.stream_of.items()},
        "barriers_after": sorted(plan.barriers_after),
        "units": [
            {
                "id": unit.unit_id,
                "kernel": kernel_to_dict(unit.kernel) if unit.kernel else None,
                "node_ids": list(unit.node_ids),
                "label": unit.label,
                "pre_copies": [kernel_to_dict(k) for k in unit.pre_copies],
                "host_us": unit.host_us,
                "epoch": plan.epoch(unit.unit_id)[1],
                "super_epoch": plan.epoch(unit.unit_id)[0],
            }
            for unit in plan.units
        ],
    }


# ---------------------------------------------------------------------------
# lowered schedules (golden-schedule regression tests)
# ---------------------------------------------------------------------------


def schedule_to_dict(lowered) -> dict:
    """Structural dump of a lowered schedule's dispatch-item list.

    Events are encoded by index (their identity within one lowering),
    kernels by name/kind; together with per-item unit attribution this
    pins down exactly what the dispatcher emitted, which is what the
    golden-schedule tests under ``tests/data/`` compare against.
    """
    from .gpu.streams import (
        HostComputeItem,
        HostSyncItem,
        LaunchItem,
        RecordEventItem,
    )

    items = []
    for idx, item in enumerate(lowered.items):
        if isinstance(item, LaunchItem):
            items.append({
                "type": "launch",
                "stream": item.stream,
                "kernel": item.kernel.name,
                "kind": item.kernel.kind,
                "waits": [ev.index for ev in item.waits],
                "record": item.record.index if item.record is not None else None,
                "profiling": item.record_is_profiling,
                "unit": lowered.item_units.get(idx),
            })
        elif isinstance(item, RecordEventItem):
            items.append({
                "type": "record", "stream": item.stream, "event": item.event.index,
            })
        elif isinstance(item, HostSyncItem):
            items.append({
                "type": "sync",
                "event": item.event.index if item.event is not None else None,
            })
        elif isinstance(item, HostComputeItem):
            items.append({
                "type": "host",
                "duration_us": item.duration_us,
                "label": item.label,
                "unit": lowered.item_units.get(idx),
            })
        else:  # pragma: no cover - defensive
            raise TypeError(f"cannot serialize dispatch item {item!r}")
    return {
        "version": FORMAT_VERSION,
        "label": lowered.plan.label,
        "items": items,
        "unit_stream": {str(k): v for k, v in sorted(lowered.unit_stream.items())},
    }


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------


def report_to_dict(report: AstraReport | SessionReport) -> dict:
    if isinstance(report, SessionReport):
        return {
            "version": FORMAT_VERSION,
            "native_time_us": report.native_time_us,
            "speedup_over_native": report.speedup_over_native,
            "astra": report_to_dict(report.astra),
        }
    provenance = getattr(report, "provenance", None)
    provenance_doc = provenance.to_dict() if provenance is not None else None
    return {
        "version": FORMAT_VERSION,
        "best_time_us": report.best_time_us,
        "configs_explored": report.configs_explored,
        "profiling_overhead": report.profiling_overhead,
        "profile_entries": report.profile_entries,
        "best_strategy": report.best_strategy.label,
        "strategy_times": {str(k): v for k, v in report.strategy_times.items()},
        "phases": [
            {"name": p.name, "minibatches": p.minibatches, "index_hits": p.index_hits,
             "index_hit_rate": p.index_hit_rate}
            for p in report.phases
        ],
        "timeline": [[phase, t] for phase, t in report.timeline],
        "assignment": {k: repr(v) for k, v in report.assignment.items()},
        "plan": plan_to_dict(report.best_plan),
        "degraded": report.degraded,
        "fault_summary": dict(report.fault_summary),
        "memory": dict(report.memory),
        "fast_path": dict(report.fast_path),
        "warm": dict(getattr(report, "warm", {}) or {}),
        "provenance": provenance_doc,
    }
