"""Tests for allocation strategies (the section 4.5.2 fork)."""

import pytest

from repro.core import analyse_fusion, build_arena_plan, enumerate_strategies
from repro.core.fusion import resolve_static_conflicts


class TestStrategyEnumeration:
    def test_sublstm_has_multiple_strategies(self, tiny_sublstm):
        analysis = resolve_static_conflicts(analyse_fusion(tiny_sublstm.graph))
        strategies = enumerate_strategies(analysis)
        assert len(strategies) >= 2
        assert strategies[0].strategy_id == 0

    def test_strategies_internally_consistent(self, tiny_sublstm):
        """No strategy may satisfy two conflicting requirements."""
        analysis = resolve_static_conflicts(analyse_fusion(tiny_sublstm.graph))
        for strategy in enumerate_strategies(analysis):
            satisfied = list(strategy.satisfied)
            for i, a in enumerate(satisfied):
                for b in satisfied[i + 1:]:
                    assert not a.conflicts_with(b), (strategy.label, a.label, b.label)

    def test_strategies_are_maximal(self, tiny_sublstm):
        """Greedy strategies can't be extended by any unsatisfied req."""
        analysis = resolve_static_conflicts(analyse_fusion(tiny_sublstm.graph))
        all_reqs = {g.requirement for g in analysis.groups if g.requirement}
        all_reqs.update(analysis.ladder_requirements)
        for strategy in enumerate_strategies(analysis):
            for req in all_reqs - strategy.satisfied:
                assert any(req.conflicts_with(s) for s in strategy.satisfied), (
                    f"{strategy.label} could also satisfy {req.label}"
                )

    def test_forward_first_satisfies_gate_blocks(self, tiny_sublstm):
        analysis = resolve_static_conflicts(analyse_fusion(tiny_sublstm.graph))
        strategies = enumerate_strategies(analysis)
        fwd = strategies[0]
        blocks = [
            g.requirement for g in analysis.groups
            if g.pass_tag == "forward" and g.requirement and g.requirement.tag == "block"
        ]
        assert blocks
        assert all(fwd.supports(r) for r in blocks)

    def test_strategies_differ(self, tiny_sublstm):
        analysis = resolve_static_conflicts(analyse_fusion(tiny_sublstm.graph))
        strategies = enumerate_strategies(analysis)
        sets = [s.satisfied for s in strategies]
        assert len(set(sets)) == len(sets)

    def test_no_requirements_yields_default(self):
        from repro.core.fusion import FusionAnalysis

        strategies = enumerate_strategies(FusionAnalysis([], [], []))
        assert len(strategies) == 1
        assert strategies[0].supports(None)

    def test_context_key_distinct(self, tiny_sublstm):
        analysis = resolve_static_conflicts(analyse_fusion(tiny_sublstm.graph))
        strategies = enumerate_strategies(analysis)
        keys = {s.context_key() for s in strategies}
        assert len(keys) == len(strategies)


class TestArenaPlans:
    def test_satisfied_rows_become_contiguity_groups(self, tiny_sublstm):
        analysis = resolve_static_conflicts(analyse_fusion(tiny_sublstm.graph))
        strategies = enumerate_strategies(analysis)
        plan = build_arena_plan(tiny_sublstm.graph, strategies[0])
        assert plan.arena_size_bytes > 0

    def test_overlapping_groups_skipped_not_raised(self, tiny_sublstm):
        analysis = resolve_static_conflicts(analyse_fusion(tiny_sublstm.graph))
        for strategy in enumerate_strategies(analysis):
            build_arena_plan(tiny_sublstm.graph, strategy)  # must not raise
