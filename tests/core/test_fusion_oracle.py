"""The indexed static analysis changes no output.

``resolve_static_conflicts`` visits only the owner pairs that share a
tensor, and ``enumerate_strategies`` tests each requirement against the
union of tensors already claimed.  Both must equal the pairwise code kept
in ``_reference_fusion``: the same groups, singletons and ladder
requirements, with the same labels and member order, and every strategy
satisfying the same requirements in the same iteration order.  The
offender sets must fill in the same order too, since a ladder losing two
or more tensors shrinks in that order.
"""

import importlib
import itertools

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.core.allocation import enumerate_strategies, group_flops
from repro.core.fusion import (
    FusionAnalysis,
    FusionGroup,
    FusionMember,
    Requirement,
    analyse_fusion,
    resolve_static_conflicts,
)
from repro.models import MODEL_BUILDERS

from ._reference_fusion import (
    reference_enumerate_strategies,
    reference_resolve_static_conflicts,
)

#: (batch, seq_len): a short graph, and gnmt-fk's size
SIZES = [(4, 2), (16, 6)]


def assert_matches_reference(analysis: FusionAnalysis) -> None:
    resolved = resolve_static_conflicts(analysis)
    expected = reference_resolve_static_conflicts(analysis)
    # dataclass reprs carry every field, labels and member order included
    assert repr(resolved.groups) == repr(expected.groups)
    assert repr(resolved.singletons) == repr(expected.singletons)
    assert repr(resolved.ladder_requirements) == repr(expected.ladder_requirements)
    # each satisfied set's repr lists its requirements in iteration order
    for flops in ({}, group_flops(resolved)):
        assert repr(enumerate_strategies(resolved, flops)) == repr(
            reference_enumerate_strategies(expected, flops)
        )


@pytest.mark.parametrize("batch,seq_len", SIZES)
@pytest.mark.parametrize("name", sorted(MODEL_BUILDERS))
def test_models_match_reference(name, batch, seq_len):
    config = importlib.import_module(f"repro.models.{name}").DEFAULT_CONFIG
    model = MODEL_BUILDERS[name](
        config.scaled(batch_size=batch, seq_len=seq_len, use_embedding=True)
    )
    assert_matches_reference(analyse_fusion(model.graph))


# -- random owners ------------------------------------------------------------

#: small tensor ids, so owners overlap often and several ids share a
#: bucket of a small set (3, 11, 19, ...), whose iteration order then
#: depends on insertion order
TENSOR = st.integers(0, 24)
LADDER = st.lists(TENSOR, min_size=2, max_size=5)
OWNER = st.one_of(
    st.tuples(st.just("ladder"), LADDER),
    st.tuples(st.just("plain"), TENSOR),
    st.tuples(st.just("n"), st.lists(st.lists(TENSOR, min_size=1, max_size=3),
                                     min_size=2, max_size=4)),
    st.tuples(st.just("m"), st.lists(TENSOR, min_size=2, max_size=4)),
)


def make_analysis(owners: list) -> FusionAnalysis:
    """Groups and singletons from ``(kind, tensors)`` specs: a lone
    ``ladder`` over B tensors, a ``plain`` GEMM, a common-A ``n`` group
    of members over B tensors, or a common-B ``m`` group of members over
    A tensors."""
    ids = itertools.count(1000)

    def member(b_nodes, a_nodes=None) -> FusionMember:
        mm_ids = tuple(next(ids) for _ in b_nodes)
        return FusionMember(
            mm_ids=mm_ids,
            absorbed_ids=tuple(next(ids) for _ in mm_ids[1:]),
            a_signature=tuple((a, False) for a in (a_nodes or [next(ids)] * len(b_nodes))),
            b_nodes=tuple(b_nodes),
            b_transposed=False,
            m=4, ks=tuple(8 for _ in b_nodes), n=16,
            scope=f"s{mm_ids[0]}/step0", pass_tag="forward",
        )

    groups, singletons = [], []
    for index, (kind, tensors) in enumerate(owners):
        if kind == "ladder":
            singletons.append(member(tensors))
        elif kind == "plain":
            singletons.append(member([tensors]))
        else:
            if kind == "n":
                members = [member(b) for b in tensors]
                req_tensors = tuple(mb.b_nodes for mb in members)
            else:
                shared_b = next(ids)
                members = [member([shared_b], [a]) for a in tensors]
                req_tensors = tuple((a,) for a in tensors)
            groups.append(FusionGroup(
                group_id=f"g{index}", members=members, axis=kind,
                requirement=Requirement(req_tensors, "rows", label=f"g{index}"),
                pass_tag="backward" if index % 2 else "forward",
                scope=f"g{index}",
            ))
    ladder_reqs = [r for mb in singletons if (r := mb.ladder_requirement()) is not None]
    return FusionAnalysis(groups, singletons, ladder_reqs)


@settings(max_examples=300, deadline=None)
@given(st.lists(OWNER, min_size=1, max_size=12))
# a ladder losing 3, then 11: filled in that order, the offender set
# iterates 11 first, so the ladder does not shrink in sorted order
@example([("n", [[3], [30]]), ("ladder", [3, 11, 7]), ("n", [[11], [31]])])
# a ladder losing three tensors, one of them shared with another ladder
@example([("ladder", [19, 3, 5, 11]), ("m", [3, 40]), ("n", [[11], [41]]),
          ("ladder", [19, 50])])
def test_random_owners_match_reference(owners):
    assert_matches_reference(make_analysis(owners))


def test_offenders_shrink_in_insertion_order():
    """The first pinned example really drops two tensors from one ladder,
    11 before 3: the ladder sheds 11, then dissolves on 3.  Shrinking 3
    first would leave (11,), (7,), (3,)."""
    analysis = make_analysis(
        [("n", [[3], [30]]), ("ladder", [3, 11, 7]), ("n", [[11], [31]])]
    )
    resolved = resolve_static_conflicts(analysis)
    assert [mb.b_nodes for mb in resolved.singletons[-3:]] == [(3,), (7,), (11,)]
