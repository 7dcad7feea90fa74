"""Validation, order queries and serialization of finite event logics."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import find_inf, find_sup, transitive_closure_matmul
from qlogic.builders import boolean_algebra, greechie, hexagon_o6, mo_logic
from qlogic.core import (
    LogicDescription,
    joins,
    meets,
    transitive_closure,
    validate_logic,
)
from qlogic.errors import (
    AxiomViolation,
    LogicInputError,
    NoBounds,
    NoInfimum,
    NoSupremum,
    NotAPartialOrder,
    OrthoNotInvolutive,
    QLogicError,
)


# ---------------------------------------------------------------------------
# independent oracles
# ---------------------------------------------------------------------------

def brute_force_orthomodular_witness(leq, ortho):
    """Scan all comparable pairs for a violation of f <= e implies
    e = f v (e ^ f'); independent of the validator's own scan."""
    n = len(leq)
    for e in range(n):
        for f in range(n):
            if not leq[f][e]:
                continue
            m = find_inf(np.array(leq, dtype=bool), e, ortho[f])
            if m is None:
                return (e, f)
            j = find_sup(np.array(leq, dtype=bool), f, m)
            if j != e:
                return (e, f)
    return None


def mo2_order_matrix():
    """Hand-built order of {0, a, a', b, b', 1}: only bounds relate blocks."""
    n = 6
    leq = [[i == j for j in range(n)] for i in range(n)]
    for e in range(n):
        leq[0][e] = True
        leq[e][5] = True
    return leq


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_validate_accepts_boolean_algebras(k):
    logic = validate_logic(boolean_algebra(k))
    assert logic.n == 2 ** k
    assert len(logic.atoms) == k
    assert logic.is_boolean


@pytest.mark.parametrize("n", [1, 2, 3])
def test_validate_accepts_lanterns(n):
    logic = validate_logic(mo_logic(n))
    assert logic.n == 2 * n + 2
    assert len(logic.atoms) == 2 * n
    assert logic.is_boolean == (n == 1)  # one block is the 4-element algebra


def test_hexagon_fails_orthomodular_law(o6_description):
    with pytest.raises(AxiomViolation) as err:
        validate_logic(o6_description)
    assert err.value.axiom == "E"
    labels = {o6_description.labels[i] for i in err.value.witness}
    assert labels == {"x", "y"}


def test_hexagon_witness_matches_brute_force(o6_description):
    leq = transitive_closure(6, o6_description.le_pairs)
    witness = brute_force_orthomodular_witness(
        leq.tolist(), list(o6_description.ortho)
    )
    labels = {o6_description.labels[i] for i in witness}
    assert labels == {"x", "y"}


def test_orthomodular_scan_agrees_with_validator(booleans, mo_logics):
    descriptions = (
        [boolean_algebra(k) for k in range(1, 5)]
        + [mo_logic(n) for n in range(1, 4)]
        + [hexagon_o6()]
    )
    for desc in descriptions:
        leq = transitive_closure(len(desc.labels), desc.le_pairs)
        witness = brute_force_orthomodular_witness(
            leq.tolist(), list(desc.ortho)
        )
        try:
            validate_logic(desc)
            validated = True
        except AxiomViolation:
            validated = False
        assert validated == (witness is None)


def test_self_inverse_complement_breaks_excluded_middle():
    # a' = a forces a v a' = a, not the unit
    desc = LogicDescription(
        labels=("0", "a", "1"),
        le_pairs=((0, 1), (1, 2)),
        ortho=(2, 1, 0),
        zero_index=0,
        one_index=2,
    )
    with pytest.raises(AxiomViolation) as err:
        validate_logic(desc)
    assert err.value.axiom == "D"


def test_non_involutive_complement_rejected():
    desc = LogicDescription(
        labels=("0", "a", "b", "1"),
        le_pairs=((0, 1), (0, 2), (1, 3), (2, 3)),
        ortho=(3, 2, 0, 1),  # not an involution: b -> 0 -> 3
        zero_index=0,
        one_index=3,
    )
    with pytest.raises(OrthoNotInvolutive):
        validate_logic(desc)


def test_order_cycle_rejected():
    desc = LogicDescription(
        labels=("0", "a", "b", "1"),
        le_pairs=((0, 1), (1, 2), (2, 1), (1, 3), (2, 3)),
        ortho=(3, 2, 1, 0),
        zero_index=0,
        one_index=3,
    )
    with pytest.raises(NotAPartialOrder):
        validate_logic(desc)


# ---------------------------------------------------------------------------
# the order closure
# ---------------------------------------------------------------------------

@st.composite
def _digraphs(draw):
    """n elements and up to 3n arcs, self-loops and cycles included."""
    n = draw(st.integers(1, 24))
    arc = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    return n, draw(st.lists(arc, max_size=3 * n))


@given(_digraphs())
@settings(max_examples=300, deadline=None)
def test_closure_matches_the_matmul_oracle(graph):
    n, pairs = graph
    leq = transitive_closure(n, pairs)
    assert leq.dtype == bool
    assert np.array_equal(leq, transitive_closure_matmul(n, pairs))


@given(_digraphs())
@settings(max_examples=100, deadline=None)
def test_cyclic_input_reports_the_oracle_pair(graph):
    n, pairs = graph
    leq = transitive_closure_matmul(n, pairs)
    sym = np.argwhere(leq & leq.T & ~np.eye(n, dtype=bool))
    desc = LogicDescription(
        labels=tuple(map(str, range(n))), le_pairs=tuple(pairs),
        ortho=tuple(range(n)), zero_index=0, one_index=n - 1,
    )
    try:
        validate_logic(desc)
        raised = None
    except QLogicError as exc:  # most of these are not orthomodular
        raised = exc
    if sym.size:
        assert isinstance(raised, NotAPartialOrder)
        assert raised.pair == tuple(sym[0].tolist())
    else:
        assert not isinstance(raised, NotAPartialOrder)


def test_long_cycle_and_reversed_chain_are_rejected():
    # the closure of a 1,024-element cycle is full; a chain listed
    # downwards puts the declared zero at the top
    n = 1024
    labels = tuple(map(str, range(n)))
    ortho = tuple(range(n - 1, -1, -1))
    cycle = LogicDescription(labels, tuple((i, (i + 1) % n) for i in range(n)),
                             ortho, 0, n - 1)
    with pytest.raises(NotAPartialOrder) as info:
        validate_logic(cycle)
    assert info.value.pair == (0, 1)
    chain = LogicDescription(labels, tuple((i + 1, i) for i in range(n - 1)),
                             ortho, 0, n - 1)
    with pytest.raises(NoBounds, match="'0' is not a minimum"):
        validate_logic(chain)


def test_missing_bounds_rejected():
    desc = LogicDescription(
        labels=("0", "a", "b", "1"),
        le_pairs=((0, 1), (1, 3)),  # b incomparable to everything
        ortho=(3, 2, 1, 0),
        zero_index=0,
        one_index=3,
    )
    with pytest.raises(NoBounds):
        validate_logic(desc)


def test_element_limit_is_configurable():
    desc = boolean_algebra(4)
    with pytest.raises(LogicInputError):
        validate_logic(desc, max_elements=8)
    assert validate_logic(desc, max_elements=16).n == 16


def test_bad_descriptions_rejected():
    with pytest.raises(LogicInputError):
        LogicDescription(("a", "a"), (), (0, 1), 0, 1)
    with pytest.raises(LogicInputError):
        LogicDescription(("a", "b"), ((0, 5),), (1, 0), 0, 1)
    with pytest.raises(LogicInputError):
        LogicDescription(("a", "b"), (), (1, 0, 1), 0, 1)


def _unpacking_message(pair):
    """What Python says when pair is unpacked into two names."""
    try:
        _, _ = pair
    except ValueError as exc:
        return f"malformed logic description: {exc}"
    raise AssertionError(f"{pair!r} unpacks into two")


_NOT_INT = "malformed le pair: not a list of int"
_B2 = {"labels": ["0", "x", "y", "1"], "le": [[0, 1], [0, 2], [1, 3], [2, 3]],
       "ortho": [3, 2, 1, 0], "zero": 0, "one": 3}


@pytest.mark.parametrize("changes, message", [
    ({"le": [[0, 1], [0, True]]}, _NOT_INT),
    ({"le": [[0, 1.0]]}, _NOT_INT),
    ({"le": [["0", 1]]}, _NOT_INT),
    ({"le": [[[0], 1]]}, _NOT_INT),
    ({"le": [[0, None]]}, _NOT_INT),
    ({"le": [(0, 1)]}, "malformed le: not a list of list"),
    ({"le": "01"}, "malformed le: not a list of list"),
    ({"le": [[0, 1, 2]]}, _unpacking_message([0, 1, 2])),
    ({"le": [[0]]}, _unpacking_message([0])),
    ({"le": [[]]}, _unpacking_message([])),
    # every entry is checked before any pair is unpacked, and the
    # unpacking comes after zero, one and the labels
    ({"le": [[0], [0, True]]}, _NOT_INT),
    ({"le": [[0, 1, 2]], "labels": "0xy1"},
     "malformed labels: not a list of str"),
    ({"le": [[0]], "zero": None}, "malformed zero and one: not a list of int"),
    ({"le": [[0, True]], "zero": None}, _NOT_INT),
    ({"le": [[0]], "ortho": [3, 2, 1, 0.0]}, _unpacking_message([0])),
])
def test_le_pair_messages(changes, message):
    with pytest.raises(LogicInputError) as info:
        LogicDescription.from_dict(dict(_B2, **changes))
    assert str(info.value) == message


def test_le_pairs_read_as_int_tuples():
    desc = LogicDescription.from_dict(_B2)
    assert desc.le_pairs == ((0, 1), (0, 2), (1, 3), (2, 3))
    assert all(type(v) is int for pair in desc.le_pairs for v in pair)
    assert LogicDescription.from_dict(dict(_B2, le=[])).le_pairs == ()


# ---------------------------------------------------------------------------
# orthogonality, suprema, atoms
# ---------------------------------------------------------------------------

def test_complement_pairs_are_orthogonal(booleans, mo_logics):
    for logic in list(booleans.values()) + list(mo_logics.values()):
        for e in range(logic.n):
            assert logic.orthogonal(e, logic.orthocomplement(e))
            assert logic.sup(e, logic.orthocomplement(e)) == logic.one


def test_distinct_boolean_atoms_are_orthogonal(b3):
    for a in b3.atoms:
        for b in b3.atoms:
            assert b3.orthogonal(a, b) == (a != b) or a == b3.zero


def test_mo2_cross_block_atoms_not_orthogonal(mo2):
    a, b = mo2.index("a"), mo2.index("b")
    assert not mo2.orthogonal(a, b)
    # oracle: the hand-built order matrix has no relation a <= b'
    leq = mo2_order_matrix()
    assert not leq[1][4]  # a vs b'
    assert np.array_equal(np.array(leq, dtype=bool), mo2.leq)


def test_mo2_cross_block_meet_is_zero(mo2):
    a, b = mo2.index("a"), mo2.index("b")
    assert mo2.inf(a, b) == mo2.zero
    # oracle: scan the hand matrix for common lower bounds
    leq = mo2_order_matrix()
    lower = [z for z in range(6) if leq[z][1] and leq[z][3]]
    assert lower == [0]


def test_no_supremum_on_raw_poset():
    # x, y below two incomparable upper bounds u, v; no least one
    n = 6
    leq = np.eye(n, dtype=bool)
    order = {(0, 1), (0, 2), (1, 3), (2, 3), (1, 4), (2, 4), (3, 5), (4, 5)}
    for i in range(n):
        leq[0, i] = True
        leq[i, 5] = True
    for i, j in order:
        leq[i, j] = True
    assert find_sup(leq, 1, 2) is None
    assert joins(leq, [1], [2]).tolist() == [-1]
    # an antichain: no bound at all
    antichain = np.eye(2, dtype=bool)
    assert joins(antichain, [0], [1]).tolist() == [-1]
    assert meets(antichain, [0], [1]).tolist() == [-1]


def test_no_supremum_in_valid_logic():
    # a four-block cycle pasting is orthomodular but not a lattice
    loop = greechie([("a", "b", "c"), ("c", "d", "e"),
                     ("e", "f", "g"), ("g", "h", "a")])
    logic = validate_logic(loop)
    a, e = logic.index("a"), logic.index("e")
    with pytest.raises(NoSupremum):
        logic.sup(a, e)
    with pytest.raises(NoInfimum):
        logic.inf(logic.orthocomplement(a), logic.orthocomplement(e))


def test_atoms_of_powerset(b3):
    assert sorted(b3.labels[a] for a in b3.atoms) == ["x", "y", "z"]


def test_atoms_of_mo2(mo2):
    assert sorted(mo2.labels[a] for a in mo2.atoms) == ["a", "a'", "b", "b'"]


def test_unit_is_atom_of_two_element_logic(booleans):
    logic = booleans[1]
    assert logic.is_atom(logic.one)
    assert not logic.is_atom(logic.zero)


# ---------------------------------------------------------------------------
# structural properties
# ---------------------------------------------------------------------------

def test_de_morgan_for_existing_suprema(booleans, mo_logics):
    for logic in list(booleans.values()) + list(mo_logics.values()):
        for e in range(logic.n):
            for f in range(logic.n):
                s = logic.sup_or_none(e, f)
                if s is None:
                    continue
                m = logic.inf_or_none(
                    logic.orthocomplement(e), logic.orthocomplement(f)
                )
                assert m == logic.orthocomplement(s)


def test_serialization_round_trip(booleans, mo_logics):
    for logic in list(booleans.values()) + list(mo_logics.values()):
        desc = LogicDescription.from_json(logic.to_json())
        again = validate_logic(desc)
        assert again.labels == logic.labels
        assert np.array_equal(again.leq, logic.leq)
        assert np.array_equal(again.ortho, logic.ortho)
        assert (again.zero, again.one) == (logic.zero, logic.one)


def test_interchange_key_order(b2):
    text = b2.to_json()
    keys = [line.split('"')[1] for line in text.splitlines()
            if line.startswith('  "')]
    assert keys == ["labels", "le", "ortho", "zero", "one"]


def test_greechie_rejects_malformed_blocks():
    with pytest.raises(LogicInputError):
        greechie([("a", "a", "b")])
    with pytest.raises(LogicInputError):
        greechie([("a", "b", "c"), ("a", "b", "d")])
    with pytest.raises(LogicInputError):
        greechie([("a", "b"), ("a", "c", "d")])
