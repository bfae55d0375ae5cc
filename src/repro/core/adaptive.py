"""Adaptive variables and the update tree.

Section 4.4.2: "the information extracted during static analysis is
organised as a set of adaptive variables ... organised into an update tree
[whose] modes of exploration are annotated by the enumerator":

* **parallel** -- children explore simultaneously and independently, which
  is what fine-grained profiling makes sound (section 4.5.1): the state
  space becomes *additive* in the number of children;
* **exhaustive** -- brute-force cartesian product over the children (used
  only for small, interacting choice sets, e.g. chunk x library within one
  fusion group);
* **prefix** -- children explored one at a time in order, each frozen at
  its best before the next starts (section 4.5.4, history-aware stream
  epochs).

Every variable's measurements live in the shared
:class:`~repro.core.profile_index.ProfileIndex` under context-mangled
keys; a choice whose key is already present is skipped (no mini-batch is
spent re-measuring it).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

from .profile_index import Key, ProfileIndex, mangle

MODE_PARALLEL = "parallel"
MODE_EXHAUSTIVE = "exhaustive"
MODE_PREFIX = "prefix"


class Explorable:
    """Common protocol for variables and composite tree nodes.

    Subclasses provide a ``name`` attribute (declared there rather than
    here so dataclass field ordering stays correct).
    """

    def initialize(self) -> None:
        raise NotImplementedError

    def assignment(self) -> dict[str, object]:
        """Current choice of every variable in this subtree."""
        raise NotImplementedError

    def advance(self, index: ProfileIndex, context: Key) -> bool:
        """Move to the next unmeasured configuration.

        Returns False when the subtree's exploration is complete (every
        variable then holds its best-known choice).
        """
        raise NotImplementedError

    def finalize(self, index: ProfileIndex, context: Key) -> None:
        """Set every variable in the subtree to its best measured choice."""
        raise NotImplementedError

    def variables(self) -> Iterable["AdaptiveVariable"]:
        raise NotImplementedError


@dataclass
class AdaptiveVariable(Explorable):
    """One unit of adaptation: a named, finite choice list.

    ``metric_kind`` tells the custom-wirer which measurement feeds this
    variable (section 4.7): ``"units"`` sums the execution times of the
    schedule units the variable controlled this mini-batch; ``"epoch"``
    reads the stream-completion metric of the variable's epoch;
    ``"end_to_end"`` reads whole-mini-batch time.
    """

    name: str
    choices: list
    metric_kind: str = "units"
    #: opaque payload the plan builder uses (e.g. fusion group object)
    payload: object = None

    def __post_init__(self) -> None:
        if not self.choices:
            raise ValueError(f"variable {self.name!r} has no choices")
        self._position = 0
        self._exhausted = len(self.choices) == 1

    # -- Explorable ----------------------------------------------------------

    def initialize(self) -> None:
        self._position = 0
        self._exhausted = len(self.choices) == 1

    @property
    def value(self):
        return self.choices[self._position]

    def set_value(self, choice) -> None:
        self._position = self.choices.index(choice)

    def assignment(self) -> dict[str, object]:
        return {self.name: self.value}

    def profile_key(self, context: Key, choice=None) -> Key:
        if choice is None:
            choice = self.value
        return mangle(context, (self.name, choice))

    def get_profile_value(self, index: ProfileIndex, context: Key, choice=None) -> float | None:
        """The paper's get_profile_value interface (section 4.4.2)."""
        return index.get(self.profile_key(context, choice))

    def measured(self, index: ProfileIndex, context: Key, choice=None) -> bool:
        return self.profile_key(context, choice) in index

    def advance(self, index: ProfileIndex, context: Key) -> bool:
        """Step to the next choice whose measurement is missing."""
        if self._exhausted:
            return False
        position = self._position
        while True:
            position += 1
            if position >= len(self.choices):
                self._exhausted = True
                self.finalize(index, context)
                return False
            if not self.measured(index, context, self.choices[position]):
                self._position = position
                return True

    def finalize(self, index: ProfileIndex, context: Key) -> None:
        best_choice, best_value = None, None
        for choice in self.choices:
            value = index.get(self.profile_key(context, choice))
            if value is not None and (best_value is None or value < best_value):
                best_choice, best_value = choice, value
        if best_choice is not None:
            self.set_value(best_choice)
        self._exhausted = True

    def variables(self) -> Iterable["AdaptiveVariable"]:
        yield self

    @property
    def exhausted(self) -> bool:
        return self._exhausted


@dataclass
class UpdateNode(Explorable):
    """Composite tree node with an exploration-mode annotation."""

    name: str
    mode: str
    children: list[Explorable] = field(default_factory=list)

    def __post_init__(self) -> None:
        if self.mode not in (MODE_PARALLEL, MODE_EXHAUSTIVE, MODE_PREFIX):
            raise ValueError(f"unknown exploration mode {self.mode!r}")
        self._prefix_cursor = 0
        self._done: list[bool] = []

    def initialize(self) -> None:
        self._prefix_cursor = 0
        self._done = [False] * len(self.children)
        for child in self.children:
            child.initialize()

    def assignment(self) -> dict[str, object]:
        merged: dict[str, object] = {}
        for child in self.children:
            merged.update(child.assignment())
        return merged

    def variables(self) -> Iterable[AdaptiveVariable]:
        for child in self.children:
            yield from child.variables()

    # -- mode semantics --------------------------------------------------

    def advance(self, index: ProfileIndex, context: Key) -> bool:
        if not self.children:
            return False
        if self.mode == MODE_PARALLEL:
            any_live = False
            for pos, child in enumerate(self.children):
                if self._done[pos]:
                    continue
                if child.advance(index, context):
                    any_live = True
                else:
                    self._done[pos] = True
            return any_live
        if self.mode == MODE_EXHAUSTIVE:
            # odometer: advance the first child; on wrap, reset it and carry
            for pos, child in enumerate(self.children):
                if child.advance(index, context):
                    for earlier in self.children[:pos]:
                        earlier.initialize()
                    return True
            self.finalize(index, context)
            return False
        # MODE_PREFIX
        while self._prefix_cursor < len(self.children):
            child = self.children[self._prefix_cursor]
            if child.advance(index, context):
                return True
            child.finalize(index, context)
            self._prefix_cursor += 1
        return False

    def finalize(self, index: ProfileIndex, context: Key) -> None:
        for child in self.children:
            child.finalize(index, context)


def count_configurations(node: Explorable) -> int:
    """Upper bound on mini-batches this subtree needs (before index hits).

    Parallel composes with max, prefix/leaf with sum, exhaustive with
    product -- the arithmetic behind the paper's section 4.5.1 example
    (``3 * 2 = 6 trials`` instead of ``(3*2)^5``).
    """
    if isinstance(node, AdaptiveVariable):
        return len(node.choices)
    assert isinstance(node, UpdateNode)
    if not node.children:
        return 0
    sizes = [count_configurations(child) for child in node.children]
    if node.mode == MODE_PARALLEL:
        return max(sizes)
    if node.mode == MODE_EXHAUSTIVE:
        product = 1
        for size in sizes:
            product *= max(1, size)
        return product
    return sum(sizes)
