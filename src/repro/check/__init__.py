"""Schedule-correctness subsystem: static race/liveness validation.

Astra's exploration is only trustworthy if every configuration it tries
-- stream assignments, dispatch orders, fusion ladders, allocation
strategies -- still respects the DFG's data dependencies and memory
lifetimes.  This package is the oracle: it reconstructs the simulator's
happens-before guarantees from a lowered schedule
(:class:`~repro.check.hb.HappensBefore`), checks every dependency edge
and allocation decision against them, and reports typed
:class:`~repro.check.violations.Violation`\\ s.

Entry points: :func:`validate_schedule` / :func:`assert_valid` for one
lowered schedule, ``Executor(validate=True)`` for validated execution,
and the ``repro check <model>`` CLI command.  See ``docs/validation.md``.
"""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "violations": (
        "ALL_KINDS", "DEADLOCK", "DOUBLE_FREE", "GROUP_BROKEN", "GROUP_OVERLAP",
        "MISSING_EVENT", "RAW_RACE", "USE_WHILE_FREED", "WAR_RACE",
        "ScheduleValidationError", "ValidationReport", "Violation",
    ),
    "hb": ("HappensBefore",),
    "memory": (
        "FreeEvent", "check_arena_layout", "check_frees", "check_reuse_plan",
        "derive_frees", "schedule_node_order", "tensor_accessors",
    ),
    "races": ("check_races", "dependency_edges", "unit_item_spans"),
    "validate": ("assert_valid", "validate_schedule"),
})
