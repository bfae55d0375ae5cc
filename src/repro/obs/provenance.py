"""Exploration provenance: the decision history behind a wired schedule.

The wirer picks every adaptive variable's winner from first-writer-wins
profile-index measurements; once `finalize` has run, the report only says
*what* won.  A :class:`ProvenanceLog` records *why*: per variable, the
candidates considered (post-prune), the decisive measurement for each
candidate (exactly the value the index merged), FK-prune verdicts with
their cost-model estimates, quarantine events, and the compare-phase
numbers.  ``repro profile`` renders it as "winner vs runner-up, per
variable, with the measurements that decided it".

Determinism: events are recorded by the wirer's one exploration loop
(`_explore`) as it records each measured configuration, with no
wall-clock timestamps -- so two runs of the same exploration produce
bit-identical logs.

The wirer records the events as decisions on its
:class:`~repro.obs.observer.Observer`; the log is that observer's
:meth:`~repro.obs.observer.Observer.provenance` view, replayed through
the same hooks :meth:`ProvenanceLog.from_dict` uses.
"""

from __future__ import annotations

from dataclasses import dataclass, field


def _quarantine_sentinel() -> float:
    # deferred: repro.core sits above obs in the layering
    from ..core.measurement import QUARANTINED_US
    return QUARANTINED_US


@dataclass
class VariableDecision:
    """Everything recorded about one adaptive variable in one context."""

    name: str
    context: tuple
    candidates: list = field(default_factory=list)
    #: choice -> decisive measurement (first write wins, like the index)
    measurements: dict = field(default_factory=dict)
    #: (choice, cost-model estimate) pairs removed by FK pruning
    pruned: list = field(default_factory=list)
    #: choices written as quarantined sentinels
    quarantined: list = field(default_factory=list)

    def ranked(self) -> list[tuple[object, float]]:
        """(choice, value) pairs in decision order: exactly the iteration
        ``AdaptiveVariable.finalize`` performs (choice order, strict <,
        first minimum wins), so index 0 is the winner."""
        measured = [(c, self.measurements[c]) for c in self.candidates
                    if c in self.measurements]
        best: list[tuple[object, float]] = []
        for choice, value in measured:
            if not best or value < best[0][1]:
                best.insert(0, (choice, value))
            else:
                best.append((choice, value))
        # keep winner at 0, remaining sorted by value for readability
        return best[:1] + sorted(best[1:], key=lambda cv: (cv[1], str(cv[0])))

    @property
    def winner(self):
        ranked = self.ranked()
        return ranked[0][0] if ranked else None

    @property
    def winner_us(self):
        ranked = self.ranked()
        return ranked[0][1] if ranked else None

    @property
    def runner_up(self):
        ranked = self.ranked()
        return ranked[1][0] if len(ranked) > 1 else None

    @property
    def runner_up_us(self):
        ranked = self.ranked()
        return ranked[1][1] if len(ranked) > 1 else None

    @property
    def margin_us(self):
        ranked = self.ranked()
        if len(ranked) < 2:
            return None
        return ranked[1][1] - ranked[0][1]


class ProvenanceLog:
    """Append-only, queryable record of exploration decisions."""

    def __init__(self) -> None:
        self.events: list[dict] = []
        self._decisions: dict[tuple, VariableDecision] = {}
        self._seen: set = set()

    # -- recording hooks (called by the wirer) ------------------------------

    def _decision(self, context: tuple, name: str) -> VariableDecision:
        key = (context, name)
        decision = self._decisions.get(key)
        if decision is None:
            decision = VariableDecision(name=name, context=context)
            self._decisions[key] = decision
        return decision

    def candidates(self, context: tuple, name: str, choices) -> None:
        """The candidate list a variable entered measurement with
        (post-prune); recorded once per (context, variable)."""
        decision = self._decision(context, name)
        if decision.candidates:
            return
        decision.candidates = list(choices)
        self.events.append({"event": "candidates", "context": context,
                            "name": name, "choices": list(choices)})

    def measured(self, context: tuple, name: str, choice, value: float) -> None:
        """The decisive (first-merged) measurement for one candidate."""
        key = (context, name, choice)
        if key in self._seen:
            return
        self._seen.add(key)
        self._decision(context, name).measurements[choice] = value
        self.events.append({"event": "measure", "context": context,
                            "name": name, "choice": choice, "value": value})

    def pruned(self, context: tuple, name: str, choice,
               estimate_us: float | None = None) -> None:
        self._decision(context, name).pruned.append((choice, estimate_us))
        self.events.append({"event": "prune", "context": context,
                            "name": name, "choice": choice,
                            "estimate_us": estimate_us})

    def quarantined(self, context: tuple, name: str, choice) -> None:
        decision = self._decision(context, name)
        decision.quarantined.append(choice)
        decision.measurements.setdefault(choice, _quarantine_sentinel())
        self.events.append({"event": "quarantine", "context": context,
                            "name": name, "choice": choice})

    def compared(self, context: tuple, label: str, value: float,
                 cached: bool = False) -> None:
        """An end-to-end compare-phase measurement (fk vs streams)."""
        self.events.append({"event": "compare", "context": context,
                            "label": label, "value": value, "cached": cached})

    def warm_seeded(self, source: str, entries: int,
                    digest: str | None = None) -> None:
        """Profile-index entries seeded from a profile store before
        exploration began (see docs/serving.md).  Recorded ahead
        of every exploration event, so warm and cold runs of the same
        job stay distinguishable in the log."""
        self.events.append({"event": "warm", "source": source,
                            "entries": entries, "digest": digest})

    def warm_events(self) -> list[dict]:
        return [e for e in self.events if e["event"] == "warm"]

    # -- queries ------------------------------------------------------------

    def decisions(self) -> list[VariableDecision]:
        return list(self._decisions.values())

    def decision(self, name: str, context: tuple | None = None):
        for (ctx, var_name), decision in self._decisions.items():
            if var_name == name and (context is None or ctx == context):
                return decision
        return None

    def compares(self) -> list[dict]:
        return [e for e in self.events if e["event"] == "compare"]

    def decisive(self) -> dict:
        """Per-variable winner/runner-up with the measurements that decided
        it -- the payload the bit-identity acceptance test compares."""
        out = {}
        for decision in self.decisions():
            out[decision.name] = {
                "context": decision.context,
                "winner": decision.winner,
                "winner_us": decision.winner_us,
                "runner_up": decision.runner_up,
                "runner_up_us": decision.runner_up_us,
            }
        return out

    # -- serialization ------------------------------------------------------

    def to_dict(self) -> dict:
        return {"version": 1, "events": list(self.events)}

    @classmethod
    def from_dict(cls, data: dict) -> "ProvenanceLog":
        """Rebuild by replaying events; tuples survive the JSON round-trip
        via :func:`~repro.core.profile_index.untuple`."""
        from ..core.profile_index import untuple

        return cls().replay(data.get("events", ()), decode=untuple)

    def replay(self, events, decode=lambda value: value) -> "ProvenanceLog":
        """Feed event dicts through the recording hooks, in order;
        ``decode`` restores contexts and choices."""
        for raw in events:
            ev = raw["event"]
            ctx = decode(raw.get("context"))
            if ev == "candidates":
                self.candidates(ctx, raw["name"],
                                [decode(c) for c in raw["choices"]])
            elif ev == "measure":
                self.measured(ctx, raw["name"], decode(raw["choice"]),
                              raw["value"])
            elif ev == "prune":
                self.pruned(ctx, raw["name"], decode(raw["choice"]),
                            raw.get("estimate_us"))
            elif ev == "quarantine":
                self.quarantined(ctx, raw["name"], decode(raw["choice"]))
            elif ev == "compare":
                self.compared(ctx, raw["label"], raw["value"],
                              raw.get("cached", False))
            elif ev == "warm":
                self.warm_seeded(raw.get("source"), raw.get("entries", 0),
                                 raw.get("digest"))
        return self

    # -- rendering ----------------------------------------------------------

    def render(self, assignment: dict | None = None, top: int = 4) -> str:
        """The ``why`` section of ``repro profile``: per variable, winner
        vs runner-up and the measurements that decided it."""
        quarantined_us = _quarantine_sentinel()
        lines = []
        for ev in self.warm_events():
            digest = ev.get("digest")
            suffix = f" (job {digest[:12]})" if digest else ""
            lines.append(f"warm-start: {ev['entries']} entries seeded from "
                         f"{ev['source']}{suffix}")
        if not self._decisions:
            lines.append("(no exploration decisions recorded)")
        for decision in self.decisions():
            ranked = decision.ranked()
            marker = ""
            if assignment is not None and decision.name in assignment:
                final = assignment[decision.name]
                marker = "" if final == decision.winner else \
                    f"  [!] final assignment {final!r} differs"
            lines.append(f"{decision.name}{marker}")
            if not ranked:
                lines.append("    (no measurements recorded)")
            for rank, (choice, value) in enumerate(ranked[:top]):
                tag = "winner    " if rank == 0 else \
                      "runner-up " if rank == 1 else "          "
                quarantined = " (quarantined)" if value >= quarantined_us else ""
                lines.append(f"    {tag}{_fmt_choice(choice):<28} "
                             f"{value:>12.3f} us{quarantined}")
            if len(ranked) > top:
                lines.append(f"    ... {len(ranked) - top} more measured")
            if decision.margin_us is not None and decision.runner_up_us is not None \
                    and decision.runner_up_us < quarantined_us:
                lines.append(f"    margin    {decision.margin_us:+.3f} us")
            for choice, estimate in decision.pruned:
                est = f" (est {estimate:.2f} us)" if estimate is not None else ""
                lines.append(f"    pruned    {_fmt_choice(choice):<28}{est}")
        comps = self.compares()
        if comps:
            lines.append("strategy compare (end-to-end):")
            for ev in comps:
                cached = " [cached]" if ev.get("cached") else ""
                lines.append(f"    {ev['label']:<28} "
                             f"{ev['value']:>12.3f} us{cached}")
        return "\n".join(lines)


def _fmt_choice(choice) -> str:
    text = repr(choice)
    return text if len(text) <= 28 else text[:25] + "..."
