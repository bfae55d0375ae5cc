"""Wave planning and dispatch: the wirer's one exploration loop.

Every update tree the wirer explores goes through :func:`plan_wave`,
which lays out the configurations the tree visits -- current config,
advance, config, advance ... -- and the engine measures the planned
candidates.  How many candidates one wave may hold depends on the tree.

**The fk shape** (:func:`engine_supported`) can be batched:

* the fk tree is a single ``parallel``-mode node over independent
  ``"units"`` variables (:meth:`~repro.core.enumerator.Enumerator.build_fk_tree`),
  and a ``"units"`` measurement depends only on the variable's own choice
  (the units its choice emits), never on what the other variables chose;
* therefore the *keys* a candidate will add to the index are known at
  planning time, before the measurement exists -- only the values are
  pending.

For it, :func:`plan_wave` walks the tree speculatively against the union
of the real index and the pending key set.  The wave seals as soon as a
variable would need a pending *value* (its exhaustion ``finalize`` scans
measured values); the next wave resumes with a real advance after the
merge.  So every wave visits exactly the configurations one-at-a-time
exploration visits, with every variable at the position it would hold
there, and a phase dispatches as one wave per distinct choice count.

**Every other tree** (the prefix-mode stream phase, whose next child
depends on the previous child's measured best) plans one candidate per
wave and advances against the real index, after the merge.

Each planned candidate carries a tree snapshot so the wirer's merge can
replay its bookkeeping at the canonical position -- and rewind cleanly
when a candidate's samples all failed.  Index hits carry nothing: the
merge only counts them.  The wave is the same at every worker count, so
a run's results do not depend on how many processes measured it.
"""

from __future__ import annotations

import time

from ..core.adaptive import MODE_PARALLEL, AdaptiveVariable, UpdateNode
from ..obs.observer import NULL_OBSERVER

#: speculative advance results
ADV_LIVE = "live"          # stepped to a new unmeasured choice
ADV_DEFERRED = "deferred"  # cannot resolve without a pending value
ADV_DONE = "done"          # exhausted; finalized against real values
_FINALIZE = "finalize"     # one variable's choices ran out, all measured

#: wave statuses
STATUS_EXHAUSTED = "exhausted"  # tree fully explored; phase is over
STATUS_SEALED = "sealed"        # blocked on a pending value, or a
                                # sequential tree's one candidate; advance owed
STATUS_BUDGET = "budget"        # phase budget reached at the last config
STATUS_LIMIT = "limit"          # wave cap reached; advance owed


#: upper bound on candidates planned per wave.  A wave normally ends
#: when it seals (a variable needs a pending value to finalize); the cap
#: only bounds memory for degenerate spaces and is worker-count
#: independent so batching never shifts with fleet size.
MAX_WAVE = 32


def engine_supported(tree) -> bool:
    """Whether :func:`plan_wave` may batch several candidates per wave.

    Only the fk shape: a parallel root over plain adaptive variables.
    Everything else -- prefix stream phases (each child frozen at its
    best before the next starts), exhaustive subtrees (cartesian
    odometer) -- is sequential in the index, so it plans one candidate
    per wave.
    """
    return (
        isinstance(tree, UpdateNode)
        and tree.mode == MODE_PARALLEL
        and bool(tree.children)
        and all(isinstance(c, AdaptiveVariable) for c in tree.children)
    )


class WaveEntry:
    """One planned measurement candidate.

    ``snapshot`` captures the tree positions *at* this configuration, so
    the merge can restore them before replaying -- profile keys and the
    quarantine config-key both read variables' current values.  (A plain
    class: every run imports this module, and a dataclass costs import
    time.)
    """

    __slots__ = ("snapshot", "assignment", "live_names")

    def __init__(self, snapshot: tuple, assignment: dict, live_names: tuple):
        self.snapshot = snapshot
        self.assignment = assignment
        self.live_names = live_names


#: a planned configuration the index already answers; shared, because
#: the merge only counts it
HIT = None


def _step(var, index, context, pending):
    """Where :meth:`AdaptiveVariable.advance` would move ``var``.

    A side-effect-free mirror that treats pending keys as measured (their
    values are coming).  Returns the next unmeasured position;
    :data:`ADV_DONE` for a variable that is already exhausted;
    :data:`_FINALIZE` when it runs out of choices and every value is in
    the index; or :data:`ADV_DEFERRED` when it runs out with a value
    still pending -- finalize compares measured values, so the wave must
    seal before it.
    """
    if var._exhausted:
        return ADV_DONE
    for position in range(var._position + 1, len(var.choices)):
        key = var.profile_key(context, var.choices[position])
        if key not in index and key not in pending:
            return position
    for choice in var.choices:
        if var.profile_key(context, choice) in pending:
            return ADV_DEFERRED
    return _FINALIZE


def _advance_wave(root, index, context, pending) -> str:
    """Speculative mirror of the parallel-mode :meth:`UpdateNode.advance`.

    Returns :data:`ADV_DEFERRED`, leaving the tree untouched, when any
    variable would finalize through a pending value.  So no candidate
    ever carries a variable at a position the serial advance would not
    have left it at: every wave visits exactly the configurations
    one-at-a-time exploration visits.
    """
    steps = []
    for pos, child in enumerate(root.children):
        if root._done[pos]:
            continue
        step = _step(child, index, context, pending)
        if step == ADV_DEFERRED:
            return ADV_DEFERRED
        steps.append((pos, child, step))
    any_live = False
    for pos, child, step in steps:
        if step == _FINALIZE:
            child.finalize(index, context)  # against real values only
            root._done[pos] = True
        elif step == ADV_DONE:
            root._done[pos] = True
        else:
            child._position = step
            any_live = True
    return ADV_LIVE if any_live else ADV_DONE


def plan_wave(
    tree,
    index,
    context: tuple,
    *,
    samples: int,
    spent: int,
    budget: int,
    advance_first: bool,
    limit: int = MAX_WAVE,
) -> tuple[list, str]:
    """Enumerate the next wave of configurations from the tree's state.

    Returns a list of :class:`WaveEntry` candidates and :data:`HIT`
    markers in visiting order: current config, advance, config, advance
    ...  ``spent`` and ``budget`` are the phase-local counts the loop
    compares (every measurement candidate charges exactly ``samples``
    mini-batches, so the projection is exact).  ``advance_first``
    discharges the advance owed by a previous sealed/limit wave --
    performed against the real index, with nothing pending.

    Leaves the tree at the end-of-wave state; the caller re-restores
    entry snapshots while merging.
    """
    speculative = engine_supported(tree)
    entries: list = []
    pending: set = set()
    measures = 0
    if advance_first:
        if not tree.advance(index, context):
            return entries, STATUS_EXHAUSTED
    while True:
        live_names = []
        for var in tree.variables():
            key = var.profile_key(context)
            if key not in index and key not in pending:
                live_names.append(var.name)
                if speculative:
                    pending.add(key)
        if live_names:
            entries.append(WaveEntry(
                snapshot=tree.snapshot_state(),
                assignment=tree.assignment(),
                live_names=tuple(live_names),
            ))
            measures += 1
            if spent + measures * samples >= budget:
                return entries, STATUS_BUDGET
            if not speculative:
                return entries, STATUS_SEALED
            if measures >= limit:
                return entries, STATUS_LIMIT
        else:
            entries.append(HIT)
        if speculative:
            result = _advance_wave(tree, index, context, pending)
        else:
            result = ADV_LIVE if tree.advance(index, context) else ADV_DONE
        if result == ADV_DONE:
            return entries, STATUS_EXHAUSTED
        if result == ADV_DEFERRED:
            return entries, STATUS_SEALED


class EngineStats:
    def __init__(self) -> None:
        self.rounds = 0
        self.candidates = 0
        self.shards = 0
        self.estimate_shards = 0
        self.discarded = 0
        self.busy_s = 0.0
        self.dispatch_s = 0.0
        self.inline_fallbacks = 0
        self.pool_startup_s = 0.0


class ParallelEngine:
    """Dispatches planned waves onto a worker pool and accounts for it.

    Owns no exploration semantics: the wirer (and the fleet search) plan
    waves and merge outcomes; the engine turns candidates into shards,
    gathers :class:`~repro.parallel.wire.CandidateOutcome` lists in
    canonical (ordinal) order, and records ``parallel.*`` telemetry.
    Outcomes carry the events their workers observed; the caller replays
    them as it merges.
    """

    def __init__(self, pool, observer=NULL_OBSERVER):
        self.pool = pool
        self.observer = observer
        self.stats = EngineStats()
        self._fallback = None

    @property
    def workers(self) -> int:
        return self.pool.workers

    def prewarm(self) -> None:
        start = time.perf_counter()
        self.pool.prewarm()
        self.stats.pool_startup_s += time.perf_counter() - start

    # -- dispatch ---------------------------------------------------------

    def measure_wave(self, tasks: list) -> list:
        """Run one wave's candidates; outcomes return in ordinal order.

        Shards are contiguous runs of ordinals, so concatenating shard
        results in shard order *is* the canonical order -- no sorting,
        no ties to break.
        """
        if not tasks:
            return []
        start = time.perf_counter()
        shards = _shard(tasks, self.pool.workers)
        futures = [self.pool.run_shard(shard) for shard in shards]
        outcomes: list = []
        for shard, future in zip(shards, futures):
            outcomes.extend(self._collect(shard, future))
        wall = time.perf_counter() - start
        busy = sum(o.busy_s for o in outcomes)
        self.stats.rounds += 1
        self.stats.candidates += len(tasks)
        self.stats.shards += len(shards)
        self.stats.busy_s += busy
        self.stats.dispatch_s += wall
        observer = self.observer
        observer.count("parallel.rounds")
        observer.count("parallel.candidates", len(tasks))
        for shard in shards:
            observer.histogram("parallel.shard_size", len(shard))
        observer.histogram("parallel.dispatch_us", wall * 1e6)
        utilization = (
            busy / (wall * self.pool.workers) if wall > 0 else 0.0
        )
        observer.series("parallel.utilization", utilization)
        observer.instant(
            "parallel/round",
            candidates=len(tasks), shards=len(shards),
            wall_us=wall * 1e6, utilization=round(utilization, 3),
        )
        return outcomes

    def gather_estimates(self, strategy_id: int, names: list) -> dict:
        """Sharded cost-model pre-ranking: name -> per-choice estimates."""
        from .worker import run_estimates

        if not names:
            return {}
        shards = _shard(list(names), self.pool.workers)
        futures = [
            self.pool.call(run_estimates, strategy_id, shard)
            for shard in shards
        ]
        estimates: dict = {}
        for shard, future in zip(shards, futures):
            try:
                rows = future.result()
            except Exception:
                # a failed estimate shard costs nothing: the pruner
                # recomputes missing entries in-process
                self.stats.inline_fallbacks += 1
                continue
            estimates.update(zip(shard, rows))
        self.stats.estimate_shards += len(shards)
        self.observer.count("parallel.estimate_jobs", len(names))
        return estimates

    def _collect(self, shard, future) -> list:
        """Resolve one shard, degrading to in-caller execution if the
        process pool broke (worker killed, pipe torn): slower, never
        wrong -- the outcome log is identical by the determinism
        contract.  An inline pool's error is the caller's own."""
        try:
            return future.result()
        except Exception:
            if self.pool.kind == "inline":
                raise
            self.stats.inline_fallbacks += 1
            self.observer.count("parallel.inline_fallbacks")
            if self._fallback is None:
                from .pool import InlinePool

                self._fallback = InlinePool(
                    self.pool.state_cls, self.pool.shard_fn, self.pool.spec
                )
            return self._fallback.run_shard(shard).result()

    def summary(self) -> dict:
        s = self.stats
        return {
            "workers": self.pool.workers,
            "pool": getattr(self.pool, "kind", "unknown"),
            "rounds": s.rounds,
            "candidates": s.candidates,
            "shards": s.shards,
            "discarded": s.discarded,
            "worker_busy_s": round(s.busy_s, 6),
            "dispatch_s": round(s.dispatch_s, 6),
            "pool_startup_s": round(s.pool_startup_s, 6),
            "inline_fallbacks": s.inline_fallbacks,
        }

    def close(self) -> None:
        self.pool.close()


def _shard(items: list, workers: int) -> list[list]:
    """Contiguous, balanced partition of ``items`` into ≤ ``workers`` runs."""
    if not items:
        return []
    count = min(max(1, workers), len(items))
    base, extra = divmod(len(items), count)
    shards = []
    start = 0
    for i in range(count):
        size = base + (1 if i < extra else 0)
        shards.append(items[start:start + size])
        start += size
    return shards
