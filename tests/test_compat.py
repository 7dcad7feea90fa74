"""Boolean-subalgebra witnesses and mutual compatibility."""

from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    boolean_meet,
    compatibility_search_unpruned,
    is_boolean_lattice,
    maximal_orthogonal_atom_sets,
    mutually_compatible_by_subsets,
)
from qlogic.builders import boolean_algebra, greechie, mo_logic
from qlogic.compat import (
    CompatibilityVerdict,
    blocks,
    closure,
    is_boolean_subalgebra,
    is_compatible_subset,
    mutually_compatible,
)
from qlogic.core import LogicDescription, validate_logic
from qlogic.fixtures import load_fixture
from strategies import loose_pastings, pastings


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


_MO3 = validate_logic(mo_logic(3))


def _labelled(logic, labels):
    return {logic.index(lbl) for lbl in labels.split()}


# (logic, s1, s2, condition I holds); the first two MO3 cases are the
# images of make_composite(MO3, MO3, identity, identity) and of two
# different embeddings of MO2 into MO3
_MUTUAL_CASES = [
    ("b3", "0 x x' 1", "0 x x' 1", True),
    ("b3", "x", "y", True),
    ("mo2", "a", "b", False),
    ("mo2", "a a'", "b", False),
    ("mo3", " ".join(_MO3.labels), " ".join(_MO3.labels), False),
    ("mo3", "0 a a' b b' 1", "0 b b' c c' 1", False),
    ("mo3", "0 a a' 1", "a'", True),
]


@pytest.mark.parametrize("case", _MUTUAL_CASES)
def test_mutual_compatibility_examples(b3, mo2, case):
    name, s1, s2, holds = case
    logic = {"b3": b3, "mo2": mo2, "mo3": _MO3}[name]
    s1, s2 = _labelled(logic, s1), _labelled(logic, s2)
    assert mutually_compatible(logic, s1, s2) is holds
    assert mutually_compatible_by_subsets(logic, s1, s2) is holds


@pytest.mark.parametrize("case", _MUTUAL_CASES)
def test_mutual_compatibility_symmetric(b3, mo2, case):
    name, s1, s2, _ = case
    logic = {"b3": b3, "mo2": mo2, "mo3": _MO3}[name]
    s1, s2 = _labelled(logic, s1), _labelled(logic, s2)
    assert (mutually_compatible(logic, s1, s2)
            == mutually_compatible(logic, s2, s1))


def test_mutual_compatibility_within_whole_mo2(mo2):
    # MO2 itself is incompatible with itself across blocks
    all_atoms = set(mo2.atoms)
    assert not mutually_compatible(mo2, all_atoms, all_atoms)
    # within one block everything is fine
    block = {mo2.index("a"), mo2.index("a'")}
    assert mutually_compatible(mo2, block, block)


def test_member_sets_with_one_closure_share_one_verdict():
    logic = validate_logic(mo_logic(3))
    a, a_ = logic.index("a"), logic.index("a'")
    assert closure(logic, {a}) == closure(logic, {a_, logic.one})
    first = is_compatible_subset(logic, {a})
    second = is_compatible_subset(logic, {a_, logic.one})
    assert first.compatible and first.witness == second.witness


def _count_boolean_tests(monkeypatch):
    calls = []

    def counted(logic, subset):
        calls.append(subset)
        return is_boolean_subalgebra(logic, subset)

    monkeypatch.setattr("qlogic.compat.is_boolean_subalgebra", counted)
    return calls


def test_incompatible_pair_is_answered_within_one_candidate(monkeypatch):
    # no maximal orthogonal atom set splits both members, so only their
    # closure is tested; the unpruned search examines over 2,000 sets here
    logic = load_fixture("nonfaithful").logic()
    members = {logic.index("x"), logic.index("yu1")}
    calls = _count_boolean_tests(monkeypatch)
    verdict = is_compatible_subset(logic, members)
    assert verdict == CompatibilityVerdict(False, None)
    assert len(calls) == 1


def test_witness_is_read_off_the_first_splitting_block(monkeypatch):
    # the closure of {x v y, y v p} is not Boolean; the block xypq splits
    # both, and the index-order search examines 57 closed sets to reach
    # the same 16-element algebra
    logic = load_fixture("nonfaithful").logic()
    members = {logic.index("x+y"), logic.index("y+p")}
    calls = _count_boolean_tests(monkeypatch)
    verdict = is_compatible_subset(logic, members)
    assert len(calls) == 1
    block = closure(logic, {logic.index(a) for a in "xypq"})
    assert len(block) == 16
    assert verdict == CompatibilityVerdict(True, block)


def _horizontal_sum_b5_b2():
    """B5 with atoms a-e and the pair u, u' pasted at 0 and 1."""
    b5 = boolean_algebra(5, list("abcde"))
    zero, one = b5.zero_index, b5.one_index
    u, u_ = len(b5.labels), len(b5.labels) + 1
    return validate_logic(LogicDescription(
        b5.labels + ("u", "u'"),
        b5.le_pairs + ((zero, u), (u, one), (zero, u_), (u_, one)),
        b5.ortho + (u_, u), zero, one))


_B5_B2 = _horizontal_sum_b5_b2()


def test_five_atom_block_gives_its_whole_algebra():
    # the one input with a block of five atoms, where the witness is the
    # block's 32-element algebra although the index-order search stops
    # at a 16-element one first; the verdicts agree
    logic = _B5_B2
    members = {logic.index(lbl) for lbl in ("{c,d}", "{c,e}", "{d,e}")}
    assert not is_boolean_subalgebra(logic, closure(logic, members))
    verdict = is_compatible_subset(logic, members)
    b5 = frozenset(range(logic.n)) - {logic.index("u"), logic.index("u'")}
    assert verdict == CompatibilityVerdict(True, b5)
    elems = sorted(verdict.witness)
    assert is_boolean_lattice(logic.leq[np.ix_(elems, elems)])
    searched = compatibility_search_unpruned(logic, members)
    assert searched.compatible and len(searched.witness) == 16


def test_five_atom_block_verdicts_follow_the_pasting():
    # a pair is compatible exactly when both lie in one summand
    logic = _B5_B2
    u_side = {logic.index("u"), logic.index("u'")}
    b5_side = set(range(logic.n)) - u_side - {logic.zero, logic.one}
    for e, f in combinations(range(logic.n), 2):
        mixed = bool({e, f} & u_side and {e, f} & b5_side)
        verdict = is_compatible_subset(logic, {e, f})
        assert verdict.compatible is not mixed
        if verdict.compatible:
            assert {e, f} <= verdict.witness
            assert is_boolean_subalgebra(logic, verdict.witness)


@pytest.mark.parametrize("name, count", [("nonfaithful", 40),
                                         ("stateless", 53)])
def test_blocks_are_maximal_orthogonal_atom_sets(name, count):
    # too many atoms for the subset oracle: each block is orthogonal and
    # no atom outside it is orthogonal to all of it
    logic = load_fixture(name).logic()
    atoms = logic.atoms
    found = blocks(logic)
    assert len(found) == len(set(found)) == count
    for m in found:
        inside = [a for i, a in enumerate(atoms) if m >> i & 1]
        assert all(logic.orthogonal(a, b) for a, b in combinations(inside, 2))
        assert not any(all(logic.orthogonal(c, a) for a in inside)
                       for i, c in enumerate(atoms) if not m >> i & 1)


def test_search_grows_past_a_closure_that_is_not_boolean():
    # {a v b, b v c} lies in the block abcd, yet its closure, 0, 1, a v b,
    # c v d, b v c and a v d, is not Boolean; the block def does not
    # split it, so the witness is the algebra of abcd
    logic = validate_logic(greechie([("a", "b", "c", "d"), ("d", "e", "f")]))
    a, b, c, d = (logic.index(x) for x in "abcd")
    members = {logic.sup(a, b), logic.sup(b, c)}
    assert not is_boolean_subalgebra(logic, closure(logic, members))
    verdict = is_compatible_subset(logic, members)
    assert verdict == compatibility_search_unpruned(logic, members)
    assert verdict.witness == closure(logic, {a, b, c, d})


_FIXTURES = {name: load_fixture(name).logic()
             for name in ("MO1", "MO2", "MO3", "boolean3")}


# pastings() also draws blocks of four atoms, where a compatible closure
# need not be Boolean
@given(st.one_of(loose_pastings(),
                 pastings().filter(lambda logic: logic is not None),
                 st.sampled_from(sorted(_FIXTURES)).map(_FIXTURES.get)),
       st.data())
@settings(max_examples=60, deadline=None)
def test_search_and_condition_I_match_the_oracles(logic, data):
    assert blocks(logic) == maximal_orthogonal_atom_sets(logic)
    elements = st.sets(st.integers(0, logic.n - 1), max_size=4)
    # members that one block splits are compatible
    block = data.draw(st.sampled_from(blocks(logic)), label="block")
    masks = logic.atom_masks
    inside = [e for e in range(logic.n)
              if not block & ~(masks[e] | masks[logic.ortho[e]])]
    for members in (data.draw(elements, label="members"),
                    data.draw(st.sets(st.sampled_from(inside), max_size=3),
                              label="members split by the block")):
        # the verdict and the first witness of the unpruned search
        assert (is_compatible_subset(logic, members)
                == compatibility_search_unpruned(logic, members))
    s1 = data.draw(elements, label="s1")
    s2 = data.draw(elements, label="s2")
    assert (mutually_compatible(logic, s1, s2)
            == mutually_compatible_by_subsets(logic, s1, s2))
