"""Boolean-subalgebra search and mutual compatibility."""

from itertools import combinations

import pytest

from oracles import boolean_meet
from qlogic.builders import mo_logic
from qlogic.compat import (
    _compatibility_search,
    closure,
    is_boolean_subalgebra,
    is_compatible_subset,
    mutually_compatible,
)
from qlogic.core import validate_logic
from qlogic.errors import SearchBudgetExceeded


# ---------------------------------------------------------------------------
# oracle: exhaustive enumeration of closed subsets of a small logic
# ---------------------------------------------------------------------------

def compatible_by_exhaustion(logic, members):
    """Check every subset of the logic for being an enclosing Boolean
    subalgebra; feasible only for tiny logics."""
    members = set(members)
    elems = list(range(logic.n))
    for size in range(len(elems) + 1):
        for cand in combinations(elems, size):
            cand = set(cand) | {logic.zero, logic.one}
            if not members <= cand:
                continue
            closed = all(logic.orthocomplement(e) in cand for e in cand)
            if closed:
                for e in cand:
                    for f in cand:
                        if logic.orthogonal(e, f):
                            s = logic.sup_or_none(e, f)
                            if s is not None and s not in cand:
                                closed = False
            if closed and is_boolean_subalgebra(logic, frozenset(cand)):
                return True
    return False


def test_pairwise_orthogonal_subsets_compatible(b3, mo2):
    for logic in (b3, mo2):
        for size in (1, 2, 3):
            for sub in combinations(logic.atoms, size):
                if all(logic.orthogonal(a, b) or a == b
                       for a in sub for b in sub):
                    assert is_compatible_subset(logic, sub).compatible


def test_mo2_cross_block_pair_incompatible(mo2):
    a, b = mo2.index("a"), mo2.index("b")
    verdict = is_compatible_subset(mo2, {a, b})
    assert not verdict.compatible
    # oracle: brute force over all 64 subsets of MO2
    assert not compatible_by_exhaustion(mo2, {a, b})


def test_exhaustive_oracle_agrees_on_mo2(mo2):
    for size in (0, 1, 2):
        for sub in combinations(range(mo2.n), size):
            got = is_compatible_subset(mo2, sub).compatible
            assert got == compatible_by_exhaustion(mo2, sub)


def test_singleton_witness_is_four_element_algebra(mo2):
    e = mo2.index("a")
    verdict = is_compatible_subset(mo2, {e})
    assert verdict.compatible
    assert verdict.witness == frozenset(
        {mo2.zero, e, mo2.orthocomplement(e), mo2.one}
    )


def test_every_subset_of_boolean_logic_compatible(b3):
    for size in (0, 1, 2, 3):
        for sub in combinations(range(b3.n), size):
            assert is_compatible_subset(b3, sub).compatible


def test_monotonicity(mo2):
    mo3 = validate_logic(mo_logic(3))
    for logic in (mo2, mo3):
        for size in (2, 3):
            for sub in combinations(logic.atoms, size):
                if is_compatible_subset(logic, sub).compatible:
                    for smaller in combinations(sub, size - 1):
                        assert is_compatible_subset(logic, smaller).compatible


def test_closure_contains_generators_and_is_closed(mo2):
    a = mo2.index("a")
    cl = closure(mo2, {a})
    assert {a, mo2.zero, mo2.one, mo2.orthocomplement(a)} <= cl
    for e in cl:
        assert mo2.orthocomplement(e) in cl


def test_boolean_meet_in_witness(b3):
    x, y = b3.index("x"), b3.index("y")
    verdict = is_compatible_subset(b3, {x, y})
    xy_join = b3.sup(x, y)
    assert boolean_meet(b3, verdict.witness, xy_join, x) == x


def test_mutual_compatibility_examples(b3, mo2):
    # one Boolean subalgebra with itself
    sub = closure(b3, {b3.index("x")})
    assert mutually_compatible(b3, sub, sub)
    # MO2 singletons from different blocks: each compatible, union is not
    assert not mutually_compatible(mo2, {mo2.index("a")}, {mo2.index("b")})


def test_mutual_compatibility_symmetric(mo2, b3):
    cases = [
        (mo2, {mo2.index("a")}, {mo2.index("b")}),
        (mo2, {mo2.index("a"), mo2.index("a'")}, {mo2.index("b")}),
        (b3, {b3.index("x")}, {b3.index("y")}),
    ]
    for logic, s1, s2 in cases:
        assert (mutually_compatible(logic, s1, s2)
                == mutually_compatible(logic, s2, s1))


def test_mutual_compatibility_within_whole_mo2(mo2):
    # MO2 itself is incompatible with itself across blocks
    all_atoms = set(mo2.atoms)
    assert not mutually_compatible(mo2, all_atoms, all_atoms)
    # within one block everything is fine
    block = {mo2.index("a"), mo2.index("a'")}
    assert mutually_compatible(mo2, block, block)


def test_budget_exceeded_is_distinct_from_incompatible(mo2):
    members = {mo2.index("a"), mo2.index("b")}
    assert not is_compatible_subset(mo2, members).compatible
    # the stored verdict does not answer a call with a smaller budget
    with pytest.raises(SearchBudgetExceeded):
        is_compatible_subset(mo2, members, budget=0)


def test_member_sets_with_one_closure_share_one_verdict():
    logic = validate_logic(mo_logic(3))
    a, a_ = logic.index("a"), logic.index("a'")
    assert closure(logic, {a}) == closure(logic, {a_, logic.one})
    first = is_compatible_subset(logic, {a})
    second = is_compatible_subset(logic, {a_, logic.one})
    entries = [key for key in logic._cache
               if key[0] is _compatibility_search.__wrapped__]
    assert len(entries) == 1
    assert first.compatible and first.witness == second.witness
