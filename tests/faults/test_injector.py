"""Tests for the stateful fault injector: determinism, windows, ledger,
and checkpointable state."""

import pytest

from repro.faults import (
    FAULT_EVENT_CORRUPT,
    FAULT_EVENT_DROP,
    FAULT_OOM,
    FAULT_PREEMPT,
    FAULT_SLOWDOWN,
    FAULT_THROTTLE,
    FaultInjector,
    FaultPlan,
    FaultSpec,
    FaultWindow,
    PreemptionError,
)
from repro.gpu import P100


def drive(injector, minibatches=10, kernels=20):
    """Deterministically exercise an injector: the opportunity stream a
    simulator would produce."""
    outcomes = []
    for _ in range(minibatches):
        injector.begin_minibatch()
        for k in range(kernels):
            outcomes.append(injector.kernel_multiplier(f"k{k}"))
            outcomes.append(injector.launch_fails(f"k{k}"))
            injector.event_fault(k)
        log = injector.current_log
        outcomes.append((frozenset(log.dropped_records),
                         tuple(sorted(log.corrupted_records.items()))))
    return outcomes


class TestDeterminism:
    def test_same_seed_same_faults(self):
        plan = FaultPlan(
            specs=(
                FaultSpec(FAULT_SLOWDOWN, rate=0.3, factor=2.0),
                FaultSpec(FAULT_EVENT_DROP, rate=0.2),
                FaultSpec(FAULT_EVENT_CORRUPT, rate=0.2, factor=3.0),
            ),
            seed=5,
        )
        a, b = plan.injector(), plan.injector()
        assert drive(a) == drive(b)
        assert a.counts == b.counts
        assert a.ledger == b.ledger

    def test_different_seed_different_faults(self):
        base = FaultPlan(specs=(FaultSpec(FAULT_SLOWDOWN, rate=0.3, factor=2.0),))
        a = drive(base.with_seed(1).injector())
        b = drive(base.with_seed(2).injector())
        assert a != b


class TestWindows:
    def test_throttle_only_inside_window(self):
        plan = FaultPlan(specs=(
            FaultSpec(FAULT_THROTTLE, factor=2.0, window=FaultWindow(2, 4)),
        ))
        inj = plan.injector()
        multipliers = []
        for _ in range(6):
            inj.begin_minibatch()
            multipliers.append(inj.kernel_multiplier())
        assert multipliers == [1.0, 1.0, 2.0, 2.0, 1.0, 1.0]
        # the ledger records the throttle once per affected mini-batch
        assert inj.counts[FAULT_THROTTLE] == 2

    def test_oom_window_caps_memory(self):
        plan = FaultPlan(specs=(
            FaultSpec(FAULT_OOM, mem_limit_bytes=1000, window=FaultWindow(1, 2)),
        ))
        inj = plan.injector()
        inj.begin_minibatch()  # mini-batch 0: outside window
        assert inj.effective_memory_bytes(P100) == P100.memory_bytes
        inj.begin_minibatch()  # mini-batch 1: capped
        assert inj.effective_memory_bytes(P100) == 1000
        inj.begin_minibatch()  # mini-batch 2: outside again
        assert inj.effective_memory_bytes(P100) == P100.memory_bytes


class TestPreemption:
    def test_fires_once_at_scheduled_minibatch(self):
        plan = FaultPlan(specs=(FaultSpec(FAULT_PREEMPT, at=3),))
        inj = plan.injector()
        for _ in range(3):
            inj.begin_minibatch()
        with pytest.raises(PreemptionError) as exc:
            inj.begin_minibatch()
        assert exc.value.minibatch == 3
        assert not exc.value.transient
        # once preempted, the (restored) injector never fires again
        inj.begin_minibatch()
        assert inj.counts[FAULT_PREEMPT] == 1


class TestLedger:
    def test_every_injection_recorded(self):
        plan = FaultPlan(specs=(
            FaultSpec(FAULT_EVENT_DROP, rate=1.0),
        ), seed=1)
        inj = plan.injector()
        inj.begin_minibatch()
        for k in range(5):
            inj.event_fault(k)
        assert inj.counts[FAULT_EVENT_DROP] == 5
        assert len(inj.ledger) == 5
        assert inj.summary()["total"] == 5

    def test_observe_into_is_idempotent(self):
        from repro.obs import Observer

        plan = FaultPlan(specs=(FaultSpec(FAULT_EVENT_DROP, rate=1.0),))
        inj = plan.injector()
        inj.begin_minibatch()
        inj.event_fault(0)
        observer = Observer()
        inj.observe_into(observer)
        inj.observe_into(observer)
        snap = observer.metrics().snapshot()
        assert snap[f"fault.injected.{FAULT_EVENT_DROP}"]["value"] == 1
        assert snap["fault.injected.total"]["value"] == 1


class TestStateRoundTrip:
    def test_restore_continues_exact_stream(self):
        """A restored injector produces bit-identical decisions to one that
        never stopped -- the checkpointing determinism contract.  The
        run-level injector draws nothing itself: each mini-batch draws
        from a candidate substream keyed by its ordinal, so the restored
        cursor, counts and ledger are all a resumed run needs."""
        plan = FaultPlan(
            specs=(
                FaultSpec(FAULT_SLOWDOWN, rate=0.4, factor=2.0),
                FaultSpec(FAULT_EVENT_CORRUPT, rate=0.3, factor=3.0),
            ),
            seed=9,
        )

        def run(injector, ordinals):
            outcomes = []
            for ordinal in ordinals:
                child = FaultInjector.for_candidate(
                    plan, ordinal, preempted=injector.preempted
                )
                outcomes += drive(child, minibatches=1)
                injector.absorb(child)
            return outcomes

        reference = plan.injector()
        full = run(reference, range(8))

        first = plan.injector()
        run(first, range(4))
        state = first.state()

        import json
        state = json.loads(json.dumps(state))  # must survive JSON
        assert "rng" not in state
        second = plan.injector()
        second.restore(state)
        tail = run(second, range(4, 8))
        assert tail == full[len(full) - len(tail):]
        assert second.counts == reference.counts
        assert second.ledger == reference.ledger
        assert second.minibatch == reference.minibatch == 7
