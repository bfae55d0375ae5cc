"""The cost-model pre-ranker: estimate exactness and pruning invariants.

The admissibility argument (see ``repro/perf/ranker.py``): at base clock
with no fault injector, the ``"units"`` metric the wirer measures for a
choice is computable analytically -- so the test demands the estimate
match the *actually recorded* profile value to float precision, and the
pruner must refuse to run whenever that argument does not apply.
"""

import pytest

from repro.core.session import AstraSession
from repro.gpu import P100
from repro.gpu.device import CLOCK_AUTOBOOST
from repro.obs import Observer
from repro.perf import FastPath, estimate_choices_us, prune_fk_tree, ranker


def _explored_wirer(model, budget=400):
    """Run an exhaustive (no-prune) exploration and hand back the wirer,
    whose profile index now holds every choice's measured value."""
    session = AstraSession(
        model, features="FK", seed=0, fast=FastPath(cache=True, prune=False)
    )
    session.optimize(max_minibatches=budget)
    return session.wirer


def _coupled(enum, tree):
    names = {v.name for v in tree.variables()}
    return {
        v.name
        for v in tree.variables()
        if v.name.startswith("ladder:")
        and enum.member_unfused_kernel_vars(v.payload) & names
    }


class TestEstimateExactness:
    @pytest.mark.parametrize("fixture", ["tiny_scrnn", "tiny_sublstm"])
    def test_estimate_equals_measured(self, fixture, request):
        model = request.getfixturevalue(fixture)
        wirer = _explored_wirer(model)
        enum = wirer.enumerator
        strategy = enum.strategies[0]
        context = wirer.base_context + strategy.context_key()
        tree = enum.build_fk_tree(strategy)
        tree.initialize()
        coupled = _coupled(enum, tree)
        checked = 0
        for var in tree.variables():
            if var.metric_kind != "units" or var.name in coupled:
                continue
            for choice in var.choices:
                measured = var.get_profile_value(wirer.index, context, choice)
                if measured is None:
                    continue
                (estimate,) = estimate_choices_us(
                    enum, strategy, var, P100, choices=[choice]
                )
                assert estimate == pytest.approx(measured, rel=1e-9), (
                    f"{var.name}={choice!r}: estimate {estimate} "
                    f"vs measured {measured}"
                )
                checked += 1
        assert checked > 10  # the exploration must actually cover choices


class TestPruneInvariants:
    def _tree(self, model):
        from repro.core import AstraFeatures, Enumerator

        enum = Enumerator(model.graph, P100, AstraFeatures.preset("FK"))
        strategy = enum.strategies[0]
        tree = enum.build_fk_tree(strategy)
        tree.initialize()
        return enum, strategy, tree

    def test_argmin_survives_and_order_preserved(self, tiny_scrnn):
        enum, strategy, tree = self._tree(tiny_scrnn)
        originals = {v.name: list(v.choices) for v in tree.variables()}
        estimates = {
            v.name: estimate_choices_us(enum, strategy, v, P100)
            for v in tree.variables()
            if v.metric_kind == "units"
        }
        pruned = prune_fk_tree(enum, strategy, tree, P100)
        assert pruned > 0
        total_removed = 0
        for var in tree.variables():
            before = originals[var.name]
            total_removed += len(before) - len(var.choices)
            # survivors are a subsequence of the original choice order
            it = iter(before)
            assert all(any(c == x for x in it) for c in var.choices)
            if var.name in estimates:
                best = before[min(
                    range(len(before)), key=lambda i: estimates[var.name][i]
                )]
                assert best in var.choices, f"argmin pruned from {var.name}"
        assert total_removed == pruned

    def test_keep_floor_bounds_pruning(self, tiny_scrnn, monkeypatch):
        enum, strategy, tree = self._tree(tiny_scrnn)
        originals = {v.name: len(v.choices) for v in tree.variables()}
        # a pathological margin that would prune everything but the argmin
        monkeypatch.setattr(ranker, "PRUNE_FRACTION", 0.5)
        monkeypatch.setattr(ranker, "PRUNE_MARGIN", 0.0)
        prune_fk_tree(enum, strategy, tree, P100)
        for var in tree.variables():
            n = originals[var.name]
            keep_floor = max(1, n - int(0.5 * n))
            assert len(var.choices) >= keep_floor

    def test_injector_disables_pruning(self, tiny_scrnn):
        enum, strategy, tree = self._tree(tiny_scrnn)
        before = {v.name: list(v.choices) for v in tree.variables()}
        observer = Observer()
        pruned = prune_fk_tree(
            enum, strategy, tree, P100,
            observer=observer, injector=object(),
        )
        assert pruned == 0
        assert {v.name: list(v.choices) for v in tree.variables()} == before
        assert observer.metrics().counter("perf.prune.skipped_inexact").value == 1

    def test_autoboost_clock_disables_pruning(self, tiny_scrnn):
        enum, strategy, tree = self._tree(tiny_scrnn)
        observer = Observer()
        boosted = P100.with_clock(CLOCK_AUTOBOOST)
        pruned = prune_fk_tree(
            enum, strategy, tree, boosted, observer=observer
        )
        assert pruned == 0
        assert observer.metrics().counter("perf.prune.skipped_inexact").value == 1

    def test_coupled_ladder_vars_never_pruned(self, tiny_sublstm):
        """A ladder whose unfused GEMM library is decided by a concurrent
        kernel variable has no exact analytic estimate: its choices must
        come through pruning untouched."""
        enum, strategy, tree = self._tree(tiny_sublstm)
        coupled = _coupled(enum, tree)
        assert coupled  # sublstm is known to exhibit the coupling
        before = {name: list(v.choices) for name in coupled
                  for v in tree.variables() if v.name == name}
        observer = Observer()
        prune_fk_tree(
            enum, strategy, tree, P100, observer=observer
        )
        for var in tree.variables():
            if var.name in coupled:
                assert list(var.choices) == before[var.name]
        skipped = observer.metrics().counter("perf.prune.skipped_coupled")
        assert skipped.value == len(coupled)

    def test_tree_reinitialized_after_prune(self, tiny_scrnn):
        enum, strategy, tree = self._tree(tiny_scrnn)
        prune_fk_tree(enum, strategy, tree, P100)
        # the pruned tree must still produce a complete assignment
        assignment = tree.assignment()
        assert assignment
        for var in tree.variables():
            assert var.value in var.choices
