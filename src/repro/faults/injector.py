"""The stateful fault injector: one per run, consulted by the simulator
and the executor at every fault opportunity.

Determinism contract: the injector draws from its own seeded RNG in the
order opportunities arise, and the simulator visits opportunities in a
deterministic order, so a fixed ``(FaultPlan, workload, seed)`` triple
always injects the same faults -- chaos results are exactly reproducible
and recovery tests can assert exact outcomes.  The RNG is built on the
first rate-fault draw, so an injector that never draws (the run-level
one the custom-wirer keeps beside its per-measurement injectors) holds
no RNG state at all.

The injector also keeps the *ledger*: every injected fault becomes a
:class:`~repro.faults.events.FaultRecord` and a ``fault.injected.<kind>``
counter, which is what lets a chaos run prove that no injected fault went
unaccounted for.
"""

from __future__ import annotations

from ..gpu.device import GPUSpec
from .events import (
    FAULT_EVENT_CORRUPT,
    FAULT_EVENT_DROP,
    FAULT_LAUNCH,
    FAULT_OOM,
    FAULT_PREEMPT,
    FAULT_SLOWDOWN,
    FAULT_THROTTLE,
    FaultRecord,
    MinibatchFaultLog,
    PreemptionError,
)
from .plan import FaultPlan

#: domain-separation tag for per-candidate injector substreams: keeps
#: candidate streams disjoint from the run-level stream seeded with the
#: bare plan seed
_CANDIDATE_STREAM_TAG = 0xFA17


class FaultInjector:
    """Stateful decision-maker for one :class:`~repro.faults.plan.FaultPlan`.

    The executor calls :meth:`begin_minibatch` before dispatching each
    mini-batch (which is where scheduled preemption fires, so state is
    never torn mid-batch), and the simulator consults the per-kernel and
    per-event hooks while it runs.
    """

    def __init__(self, plan: FaultPlan):
        self.plan = plan
        #: the RNG is built from ``_seed`` (the plan's seed, or a
        #: candidate's substream key) on the first draw
        self._seed = plan.seed
        self._rng = None
        self.minibatch = -1  # incremented by begin_minibatch
        self.ledger: list[FaultRecord] = []
        self.counts: dict[str, int] = {}
        #: whether the plan's preemption has fired (it fires once per run)
        self.preempted = False
        self._log = MinibatchFaultLog()

    @property
    def rng(self):
        if self._rng is None:
            import numpy as np

            self._rng = np.random.default_rng(self._seed)
        return self._rng

    # -- per-candidate sub-states ----------------------------------------

    @classmethod
    def for_candidate(
        cls, plan: FaultPlan, base_minibatch: int, preempted: bool = False
    ) -> "FaultInjector":
        """A derived injector for one exploration candidate.

        The sub-state is keyed by the candidate's *global mini-batch
        ordinal* (the budget already spent when its first sample runs),
        so a resumed run re-derives identical sub-states from the
        checkpointed spent count.  Windowed faults (throttle, OOM,
        preemption) see the true global cursor; rate faults draw from the
        candidate's own substream.
        """
        child = cls(plan)
        child._seed = (plan.seed, _CANDIDATE_STREAM_TAG, base_minibatch)
        child.minibatch = base_minibatch - 1  # begin_minibatch increments
        child.preempted = preempted
        return child

    def absorb(self, child: "FaultInjector") -> None:
        """Merge a candidate sub-state's side effects back into this one.

        Called by the wirer after each candidate, in candidate order.
        The cursor only moves forward: sequential phases that
        follow (stream, compare, production) must see every fault window
        the exploration already passed through.
        """
        for record in child.ledger:
            self.ledger.append(record)
            self.counts[record.kind] = self.counts.get(record.kind, 0) + 1
        self.minibatch = max(self.minibatch, child.minibatch)
        if child.preempted:
            self.preempted = True

    # -- bookkeeping ------------------------------------------------------

    def record(self, kind: str, detail: str = "") -> None:
        self.ledger.append(FaultRecord(kind, self.minibatch, detail))
        self.counts[kind] = self.counts.get(kind, 0) + 1

    def observe_into(self, observer) -> None:
        """Record cumulative ``fault.injected.<kind>`` counts as gauges.

        Gauges, not counters: the injector is the source of truth and this
        may be called repeatedly (idempotent publication)."""
        for kind, count in sorted(self.counts.items()):
            observer.gauge(f"fault.injected.{kind}", count)
        observer.gauge("fault.injected.total", len(self.ledger))

    def summary(self) -> dict:
        return {
            "minibatches": self.minibatch + 1,
            "injected": dict(sorted(self.counts.items())),
            "total": len(self.ledger),
        }

    # -- lifecycle hooks (executor) ---------------------------------------

    def begin_minibatch(self) -> MinibatchFaultLog:
        """Advance the mini-batch cursor; fire scheduled preemption.

        Raises :class:`PreemptionError` exactly once when the cursor
        reaches the plan's preemption point."""
        self.minibatch += 1
        self._log = MinibatchFaultLog(minibatch=self.minibatch)
        spec = self.plan.spec(FAULT_PREEMPT)
        if (
            spec is not None
            and not self.preempted
            and spec.at is not None
            and self.minibatch >= spec.at
        ):
            self.preempted = True
            self.record(FAULT_PREEMPT, f"at mini-batch {self.minibatch}")
            raise PreemptionError(self.minibatch)
        return self._log

    @property
    def current_log(self) -> MinibatchFaultLog:
        return self._log

    def effective_memory_bytes(self, device: GPUSpec) -> int:
        """Usable device memory this mini-batch (co-tenant OOM window)."""
        spec = self.plan.spec(FAULT_OOM)
        if (
            spec is not None
            and spec.mem_limit_bytes is not None
            and spec.window.contains(max(0, self.minibatch))
        ):
            return min(device.memory_bytes, spec.mem_limit_bytes)
        return device.memory_bytes

    # -- per-kernel hooks (simulator) -------------------------------------

    def kernel_multiplier(self, label: str = "") -> float:
        """Composed slowdown for one kernel execution: throttle window
        times transient straggler, on top of any autoboost jitter the
        simulator already applies."""
        multiplier = 1.0
        throttle = self.plan.spec(FAULT_THROTTLE)
        if throttle is not None and throttle.window.contains(self.minibatch):
            multiplier *= throttle.factor
            if not self._log.throttled:
                self._log.throttled = True
                self.record(FAULT_THROTTLE, f"x{throttle.factor:g}")
        slow = self.plan.spec(FAULT_SLOWDOWN)
        if (
            slow is not None
            and slow.rate > 0
            and slow.window.contains(self.minibatch)
            and self.rng.random() < slow.rate
        ):
            multiplier *= slow.factor
            self._log.slowdowns += 1
            self.record(FAULT_SLOWDOWN, label or f"x{slow.factor:g}")
        return multiplier

    def launch_fails(self, label: str = "") -> bool:
        spec = self.plan.spec(FAULT_LAUNCH)
        if (
            spec is not None
            and spec.rate > 0
            and spec.window.contains(self.minibatch)
            and self.rng.random() < spec.rate
        ):
            self.record(FAULT_LAUNCH, label)
            return True
        return False

    def event_fault(self, record_index: int) -> None:
        """Decide drop/corruption for one profiled timestamp.

        Marks the fault in the current mini-batch log; the executor reads
        the log back and withholds or sanity-checks the measurement."""
        drop = self.plan.spec(FAULT_EVENT_DROP)
        if (
            drop is not None
            and drop.rate > 0
            and drop.window.contains(self.minibatch)
            and self.rng.random() < drop.rate
        ):
            self._log.dropped_records.add(record_index)
            self.record(FAULT_EVENT_DROP, f"record {record_index}")
            return
        corrupt = self.plan.spec(FAULT_EVENT_CORRUPT)
        if (
            corrupt is not None
            and corrupt.rate > 0
            and corrupt.window.contains(self.minibatch)
            and self.rng.random() < corrupt.rate
        ):
            # a corrupted timestamp inflates or deflates the apparent
            # duration by up to `factor`; large errors are detectably
            # absurd (executor plausibility check), small ones survive as
            # plausible-but-wrong samples for MAD rejection to catch
            factor = float(self.rng.uniform(1.0, max(1.0, corrupt.factor)))
            if self.rng.random() < 0.5:
                factor = 1.0 / factor
            self._log.corrupted_records[record_index] = factor
            self.record(FAULT_EVENT_CORRUPT, f"record {record_index} x{factor:.3f}")

    # -- persistence (checkpointing) --------------------------------------

    def state(self) -> dict:
        """What a resumed run reads: the cursor, the preempted flag and
        the ledger.  No RNG: every draw comes from a per-measurement
        substream keyed by the mini-batch ordinal."""
        return {
            "minibatch": self.minibatch,
            "preempted": self.preempted,
            "counts": dict(self.counts),
            "ledger": [
                {"kind": r.kind, "minibatch": r.minibatch, "detail": r.detail}
                for r in self.ledger
            ],
        }

    def restore(self, state: dict) -> None:
        self.minibatch = state["minibatch"]
        self.preempted = state["preempted"]
        self.counts = dict(state["counts"])
        self.ledger = [
            FaultRecord(r["kind"], r["minibatch"], r["detail"])
            for r in state["ledger"]
        ]
