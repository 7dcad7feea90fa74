"""The decomposition count matrix of the reduced state space, and the
state-layer paths that read it, against the slow references in
``oracles``."""

import functools
import random
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from qlogic.builders import boolean_algebra, greechie, mo_logic
from qlogic.core import LogicDescription, validate_logic
from qlogic.errors import (
    QLogicError,
    StateInvariantError,
    UndefinedTransition,
    ZeroCondition,
)
from qlogic.fixtures import fixture_names, load_fixture
from qlogic.states import (
    State,
    _uniqueness_gap,
    atomic_state,
    check_condition_F,
    check_condition_G,
    check_condition_H,
    conditional_probability,
    format_rational,
    reduced_space,
    state_polytope,
    transition_probability,
    transitions,
)
from test_join_table import _description, _pasting_blocks


# five 3-atom blocks pasted into a 20-element logic that fails (H)
PENTAGON_PASTING = [("b", "d", "a"), ("g", "c", "h"), ("e", "i", "f"),
                    ("b", "h", "i"), ("d", "c", "f")]


_LOGICS = {
    "boolean1": lambda: validate_logic(boolean_algebra(1)),
    "boolean2": lambda: validate_logic(boolean_algebra(2)),
    "boolean3": lambda: validate_logic(boolean_algebra(3)),
    "boolean4": lambda: validate_logic(boolean_algebra(4)),
    "MO2": lambda: validate_logic(mo_logic(2)),
    "MO3": lambda: validate_logic(mo_logic(3)),
    "prod22-ambient": lambda: load_fixture("prod22").composite().ambient,
    "prod33-ambient": lambda: load_fixture("prod33").composite().ambient,
    "pentagon-pasting": lambda: validate_logic(greechie(PENTAGON_PASTING)),
    "nonfaithful": lambda: load_fixture("nonfaithful").logic(),
}


@functools.cache
def _logic(name):
    return _LOGICS[name]()


@functools.cache
def _oracle_counts(name):
    return oracles.decompositions(_logic(name)).tolist()


def _assert_gap_and_H_match_oracles(logic):
    space = reduced_space(logic)
    for e in range(logic.n):
        assert _uniqueness_gap(space, e) == oracles.uniqueness_gap(space, e), e
    assert check_condition_H(logic) == oracles.strong_state_space(logic)


@pytest.mark.parametrize("name", ["boolean3", "boolean4", "MO2", "MO3",
                                  "prod22-ambient", "pentagon-pasting"])
def test_gap_and_H_match_oracles_on_fixtures(name):
    _assert_gap_and_H_match_oracles(_logic(name))


def test_H_comparison_covers_a_violation():
    report = check_condition_H(_logic("pentagon-pasting"))
    assert not report.holds and report.evidence is not None


def test_gap_oracle_finds_gaps():
    # MO2 and MO3 have gaps: the comparison is not between two Nones
    for n in (2, 3):
        logic = validate_logic(mo_logic(n))
        a = logic.index("a")
        w1, w2 = oracles.uniqueness_gap(reduced_space(logic), a)
        assert w1 != w2 and w1[a] == w2[a] == 1


@given(_pasting_blocks())
@settings(max_examples=25, deadline=None)
def test_gap_and_H_match_oracles_on_pastings(blocks):
    desc = _description(blocks)
    if desc is None:
        return
    try:
        logic = validate_logic(desc)
    except QLogicError:
        return
    _assert_gap_and_H_match_oracles(logic)


def _decomposition_sums(name, p):
    return [sum((x for x, c in zip(p, row) for _ in range(c)), F(0))
            for row in _oracle_counts(name)]


_atom_values = st.one_of(
    st.integers(0, 50),
    st.integers(2 ** 60, 2 ** 70),   # beyond int64 once summed or scaled
).flatmap(lambda num: st.integers(1, 2 ** 66).map(lambda den: F(num, den)))


@pytest.mark.parametrize("name", ["MO3", "prod22-ambient", "nonfaithful"])
@given(data=st.data())
@settings(max_examples=30, deadline=None)
def test_state_values_are_decomposition_sums(name, data):
    space = reduced_space(_logic(name))
    p = data.draw(st.lists(_atom_values, min_size=space.k, max_size=space.k))
    want = _decomposition_sums(name, p)
    assert list(space.state(p).values) == want
    assert all(type(v) is F for v in space.state(p).values)


def test_state_values_beyond_int64():
    space = reduced_space(_logic("prod22-ambient"))
    big = F(2 ** 64 + 1, 3)
    p = [big] + [F(1, 2 ** 63 + 5)] * (space.k - 1)
    assert list(space.state(p).values) == _decomposition_sums(
        "prod22-ambient", p)
    # over the common denominator, k times the largest numerator is just
    # below 2^63 (int64 sums) and just above it (Python-int sums)
    prime = 2 ** 89 - 1
    for num in ((2 ** 63 - 1) // space.k, (2 ** 63 - 1) // space.k + 1):
        p = [F(num, prime)] + [F(1, prime)] * (space.k - 1)
        assert list(space.state(p).values) == _decomposition_sums(
            "prod22-ambient", p)


def _oracle_check_message(name, vals):
    """The message of the first failing check after the bound checks:
    per-element decomposition sums in element order, then additivity."""
    logic = _logic(name)
    p = [vals[a] for a in logic.atoms]
    for e, want in enumerate(_decomposition_sums(name, p)):
        if vals[e] != want:
            return (f"value of {logic.labels[e]!r} is not the sum over its "
                    "orthogonal atom decomposition")
    return "additivity fails on an orthogonal pair"


@pytest.mark.parametrize("name", ["MO3", "prod22-ambient", "nonfaithful"])
def test_state_check_reports_first_failing_element(name):
    logic = _logic(name)
    space = reduced_space(logic)
    vertex = space.state(space.polyhedron().solve(space.norm).x)
    assert State(logic, vertex.values) == vertex
    for e in range(logic.n):
        if e in (logic.zero, logic.one):
            continue
        vals = list(vertex.values)
        vals[e] = F(1, 3) if vals[e] != F(1, 3) else F(2, 3)
        with pytest.raises(StateInvariantError) as info:
            State(logic, vals)
        assert str(info.value) == _oracle_check_message(name, vals), e


def _assert_transitions_match_per_call(logic, pairs):
    # every (f, e) with one condition e reads the one stored face
    # value(e) = 1 (or, on a powerset, the order matrix), so later
    # objectives run on a polyhedron earlier solves have used; the
    # array form ``transitions`` reads an empty face as the range [1, 0].
    # Returns how many of the transitions are defined
    defined = 0
    want_ranges = []
    for f, e in pairs:
        want = oracles.transition_per_call(logic, f, e)
        if want is None:
            with pytest.raises(UndefinedTransition):
                transition_probability(logic, f, e)
            want_ranges.append((1, 0))
        else:
            assert transition_probability(logic, f, e) == want, (f, e)
            want_ranges.append((want.low, want.high))
            defined += 1
    f, e = np.array(pairs, dtype=np.intp).reshape(-1, 2).T
    low, high = transitions(logic, f, e)
    assert list(zip(low.tolist(), high.tolist())) == want_ranges
    return defined


@pytest.mark.parametrize("name", ["MO3", "prod22-ambient", "boolean1",
                                  "boolean2", "boolean3", "boolean4"])
def test_stored_faces_match_per_call_faces_on_all_pairs(name):
    logic = _logic(name)
    _assert_transitions_match_per_call(
        logic, [(f, e) for e in range(logic.n) for f in range(logic.n)])


def test_stored_faces_match_per_call_faces_on_nonfaithful():
    logic = _logic("nonfaithful")
    rng = random.Random("nonfaithful-faces")
    # five conditions with states on their faces and one without any
    conditions = rng.sample(range(logic.n), 5) + [logic.index("x")]
    pairs = [(f, e) for e in conditions
             for f in rng.sample(range(logic.n), 5)]
    assert oracles.transition_per_call(logic, *pairs[-1]) is None
    assert _assert_transitions_match_per_call(logic, pairs) >= 5


@given(_pasting_blocks())
@settings(max_examples=25, deadline=None)
def test_stored_faces_match_per_call_faces_on_pastings(blocks):
    desc = _description(blocks)
    if desc is None:
        return
    try:
        logic = validate_logic(desc)
    except QLogicError:
        return
    _assert_transitions_match_per_call(
        logic, [(f, e) for e in range(logic.n) for f in range(logic.n)])


# ---------------------------------------------------------------------------
# powersets: transitions and atomic states read off the order
# ---------------------------------------------------------------------------

def _assert_point_masses_match_lp(logic):
    for a in logic.atoms:
        state = atomic_state(logic, a)
        assert state == oracles.atomic_state_per_call(logic, a), a
        assert all(type(v) is F for v in state.values)


def test_powerset_transitions_match_the_lp_on_prod33_sample():
    logic = _logic("prod33-ambient")
    assert logic.is_boolean
    rng = random.Random("prod33-transitions")
    pairs = [(rng.randrange(logic.n), rng.randrange(logic.n))
             for _ in range(2000)]
    pairs.append((logic.one, logic.zero))  # the empty face
    assert _assert_transitions_match_per_call(logic, pairs) > 0


@pytest.mark.parametrize("name", ["boolean1", "boolean2", "boolean3",
                                  "boolean4", "prod22-ambient",
                                  "prod33-ambient"])
def test_powerset_atomic_states_match_the_lp(name):
    _assert_point_masses_match_lp(_logic(name))


@st.composite
def _shuffled_boolean_algebra(draw, max_atoms=4):
    """``boolean_algebra(k)`` with its elements listed in a drawn order."""
    desc = boolean_algebra(draw(st.integers(1, max_atoms)))
    n = len(desc.labels)
    new = draw(st.permutations(range(n)))  # old index i -> new[i]
    labels, ortho = [None] * n, [None] * n
    for i in range(n):
        labels[new[i]] = desc.labels[i]
        ortho[new[i]] = new[desc.ortho[i]]
    return LogicDescription(
        labels=tuple(labels),
        le_pairs=tuple((new[i], new[j]) for i, j in desc.le_pairs),
        ortho=tuple(ortho),
        zero_index=new[desc.zero_index],
        one_index=new[desc.one_index],
    )


@given(_shuffled_boolean_algebra())
@settings(max_examples=20, deadline=None)
def test_powerset_paths_match_the_lp_in_any_element_order(desc):
    logic = validate_logic(desc)
    assert logic.is_boolean
    _assert_transitions_match_per_call(
        logic, [(f, e) for e in range(logic.n) for f in range(logic.n)])
    _assert_point_masses_match_lp(logic)


# ---------------------------------------------------------------------------
# powersets: the vertices, F, G, H and conditioning in closed form
# ---------------------------------------------------------------------------

def _outcome(call, *args):
    """What a call returns, or the type and text of what it raises."""
    try:
        return call(*args)
    except QLogicError as exc:
        return type(exc), str(exc)


def _assert_closed_forms_match_lp(logic, conditions):
    """The powerset answers against their LP paths in ``oracles``: the
    vertices and their order, the budget error at k - 1 candidate bases,
    F's witness to the byte, G, H's report, and the conditionals of
    three states on each of ``conditions``."""
    assert logic.is_boolean
    k = len(logic.atoms)
    verts = oracles.vertices_lp(logic)
    assert state_polytope(logic).vertices == verts
    assert len(verts) == k
    for budget in (k - 1, k):
        want = _outcome(oracles.vertices_lp, logic, budget)
        assert _outcome(lambda: state_polytope(logic, budget).vertices) == want
        if budget < k:
            for check in (check_condition_G, check_condition_H):
                assert _outcome(check, logic, budget) == want
    report = check_condition_F(logic)
    want = oracles.faithful_lp(logic)
    assert report == want
    assert ([format_rational(v) for v in report.witness.values]
            == [format_rational(v) for v in want.witness.values])
    assert check_condition_G(logic).holds
    assert check_condition_H(logic) == oracles.strong_state_space(
        logic, verts=verts)
    for base in (report.witness, verts[0], verts[0].mix(verts[-1], F(2, 7))):
        for e in conditions:
            if base[e] == 0:
                with pytest.raises(ZeroCondition):
                    conditional_probability(logic, base, e)
            else:
                got = conditional_probability(logic, base, e)
                assert got == oracles.conditional_lp(logic, base, e), e


def _fixture_powersets():
    """(name, logic) for every powerset among the fixtures' logics and
    their composites' factors and ambients."""
    out = []
    for name in fixture_names():
        fx = load_fixture(name)
        if fx.kind == "composite":
            comp = fx.composite()
            logics = [(f"{name}-factor", comp.factor),
                      (f"{name}-ambient", comp.ambient)]
        elif fx.kind == "logic" and fx.annotations["valid"]:
            logics = [(name, fx.logic())]
        else:
            continue
        out += [(label, logic) for label, logic in logics if logic.is_boolean]
    return out


@pytest.mark.parametrize("name, logic", _fixture_powersets(),
                         ids=[name for name, _ in _fixture_powersets()])
def test_powerset_closed_forms_match_the_lp_on_fixtures(name, logic):
    # fresh: the stored answers of a shared fixture prove nothing here
    logic = validate_logic(logic.describe())
    conditions = range(logic.n)
    if logic.n > 64:
        conditions = random.Random(name).sample(conditions, 24)
    _assert_closed_forms_match_lp(logic, conditions)


@given(_shuffled_boolean_algebra(6), st.data())
@settings(max_examples=25, deadline=None)
def test_powerset_closed_forms_match_the_lp_in_any_element_order(desc, data):
    logic = validate_logic(desc)
    conditions = data.draw(st.lists(st.integers(0, logic.n - 1),
                                    max_size=8, unique=True))
    _assert_closed_forms_match_lp(logic, conditions)
