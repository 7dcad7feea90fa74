"""State polytopes, the three state-space conditions, conditionals."""

import json
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    classical_cross_check,
    enumerate_vertices_dd,
    unique_conditionals_per_vertex,
)
from qlogic import cli
from qlogic import rational_lp as rlp
from qlogic.builders import (
    boolean_algebra,
    equality_gadget_blocks,
    greechie,
    mo_logic,
    nonfaithful_logic,
    stateless_logic,
)
from qlogic.core import validate_logic
from qlogic.errors import (
    EmptyStateSpace,
    NotAnAtom,
    NotUnique,
    StateInvariantError,
    UndefinedTransition,
    ZeroCondition,
)
from qlogic.states import (
    State,
    atom_equivalences,
    atomic_state,
    check_condition_F,
    check_condition_G,
    check_condition_H,
    conditional_probability,
    reduced_space,
    state_polytope,
    transition_probability,
)


# ---------------------------------------------------------------------------
# oracle: additivity checked from the definition, over all orthogonal pairs
# ---------------------------------------------------------------------------

def assert_is_state_by_definition(logic, values):
    assert len(values) == logic.n
    assert all(0 <= v <= 1 for v in values)
    assert values[logic.one] == 1
    for e in range(logic.n):
        for f in range(logic.n):
            if logic.orthogonal(e, f):
                s = logic.sup_or_none(e, f)
                if s is not None:
                    assert values[s] == values[e] + values[f]


# ---------------------------------------------------------------------------
# polytope vertices
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_powerset_vertices_are_point_masses(k):
    logic = validate_logic(boolean_algebra(k))
    poly = state_polytope(logic)
    assert len(poly.vertices) == k
    for v in poly.vertices:
        assert sorted(v[a] for a in logic.atoms) == [0] * (k - 1) + [1]
        assert_is_state_by_definition(logic, v.values)


def test_mo2_vertices_match_hand_enumeration(mo2):
    poly = state_polytope(mo2)
    a, b = mo2.index("a"), mo2.index("b")
    got = {(v[a], v[b]) for v in poly.vertices}
    # oracle: the two additivity constraints leave (v(a), v(b)) free in
    # [0,1]^2, whose extreme points are the four corners
    assert got == {(F(0), F(0)), (F(0), F(1)), (F(1), F(0)), (F(1), F(1))}
    for v in poly.vertices:
        assert_is_state_by_definition(mo2, v.values)


def test_two_element_logic_has_one_state(booleans):
    logic = booleans[1]
    poly = state_polytope(logic)
    assert len(poly.vertices) == 1
    assert poly.vertices[0].values == (F(0), F(1))


def test_vertex_methods_agree(booleans, mo_logics):
    for logic in (booleans[2], booleans[3], mo_logics[2], mo_logics[3]):
        space = reduced_space(logic)
        basis = state_polytope(logic).vertices
        dd = enumerate_vertices_dd(*space.system())
        assert [v.values for v in basis] == [space.state(p).values for p in dd]


def test_vertices_are_extreme_points(mo2, b3):
    # oracle: v is extreme iff no convex combination of the other
    # vertices reproduces it, which is an exact LP feasibility question
    from qlogic.rational_lp import solve_lp

    for logic in (mo2, b3):
        verts = state_polytope(logic).vertices
        for i, v in enumerate(verts):
            others = [w for j, w in enumerate(verts) if j != i]
            A = [[w[e] for w in others] for e in range(logic.n)]
            A.append([1] * len(others))
            b = [v[e] for e in range(logic.n)] + [1]
            res = solve_lp(A, b, [0] * len(others))
            assert res.status == "infeasible"


def test_empty_state_space_raises():
    logic = validate_logic(stateless_logic())
    with pytest.raises(EmptyStateSpace):
        state_polytope(logic)


def test_state_monotone_on_order(b3, mo2):
    for logic in (b3, mo2):
        for v in state_polytope(logic).vertices:
            for e in range(logic.n):
                for f in range(logic.n):
                    if logic.leq[f, e]:
                        assert v[f] <= v[e]


def test_state_constructor_validates(mo2):
    with pytest.raises(StateInvariantError):
        State(mo2, [0, 1, 1, 0, 0, 1])  # additivity: a + a' must be 1
    with pytest.raises(StateInvariantError):
        State(mo2, [0, F(1, 2), F(1, 2), F(1, 2), F(1, 2), F(1, 2)])
    State(mo2, [0, F(1, 2), F(1, 2), F(1, 3), F(2, 3), 1])  # fine


@given(num=st.integers(0, 4), den=st.just(4))
@settings(max_examples=20, deadline=None)
def test_vertex_mixtures_are_states(mo2, num, den):
    verts = state_polytope(mo2).vertices
    lam = F(num, den)
    mixed = verts[0].mix(verts[3], lam)
    assert_is_state_by_definition(mo2, mixed.values)


# ---------------------------------------------------------------------------
# condition (F)
# ---------------------------------------------------------------------------

def test_faithfulness_on_powerset(b3):
    rep = check_condition_F(b3)
    assert rep.holds
    assert all(rep.witness[e] > 0 for e in range(b3.n) if e != b3.zero)


def test_faithfulness_on_mo2(mo2):
    rep = check_condition_F(mo2)
    assert rep.holds
    assert_is_state_by_definition(mo2, rep.witness.values)


def test_faithfulness_fails_on_forced_zero():
    logic = validate_logic(nonfaithful_logic())
    rep = check_condition_F(logic)
    assert not rep.holds
    assert logic.labels[rep.failing_element] == "x"


def test_faithfulness_needs_states():
    logic = validate_logic(stateless_logic())
    with pytest.raises(EmptyStateSpace):
        check_condition_F(logic)


# ---------------------------------------------------------------------------
# conditional probability
# ---------------------------------------------------------------------------

def test_classical_conditioning_on_uniform(b3):
    uni = State(b3, [F(len(b3.atoms_below(e)), 3) for e in range(b3.n)])
    e = b3.index("z'")  # the event {x, y}
    res = conditional_probability(b3, uni, e)
    assert res.kind == "unique"
    mu = res.state
    assert mu[b3.index("x")] == F(1, 2)
    assert mu[b3.index("y")] == F(1, 2)
    assert mu[b3.index("z")] == 0
    assert classical_cross_check(b3, uni, e) == ()


def test_conditioning_on_unit_returns_base(b3):
    for v in state_polytope(b3).vertices:
        res = conditional_probability(b3, v, b3.one)
        assert res.kind == "unique" and res.state == v


def test_conditional_of_concentrated_state_is_itself(b3, mo2):
    # a state with value 1 on e conditions to itself
    for logic in (b3,):
        for v in state_polytope(logic).vertices:
            for e in range(logic.n):
                if v[e] == 1 and e != logic.zero:
                    res = conditional_probability(logic, v, e)
                    assert res.kind == "unique" and res.state == v


def test_mo2_conditional_not_unique(mo2):
    rho = State(mo2, [0, F(1, 2), F(1, 2), F(1, 2), F(1, 2), 1])
    res = conditional_probability(mo2, rho, mo2.index("a"))
    assert res.kind == "non_unique"
    w1, w2 = res.witnesses
    b = mo2.index("b")
    assert {w1[b], w2[b]} == {F(0), F(1)}
    for w in (w1, w2):
        assert w[mo2.index("a")] == 1
        assert_is_state_by_definition(mo2, w.values)


def test_zero_condition_rejected(b3):
    v = state_polytope(b3).vertices[0]
    with pytest.raises(ZeroCondition):
        conditional_probability(b3, v, b3.zero)


def test_formulation_cross_check_silent_on_fixtures(booleans, mo2):
    # the constraint form (events below e) and the classical-ratio form
    # (events compatible with e) must carve out the same conditionals
    for logic in (booleans[2], booleans[3], mo2):
        for v in state_polytope(logic).vertices:
            for e in range(logic.n):
                if v[e] == 0:
                    continue
                assert classical_cross_check(logic, v, e) == ()


# ---------------------------------------------------------------------------
# conditions (G) and (H)
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_unique_conditionals_on_powersets(k):
    logic = validate_logic(boolean_algebra(k))
    assert check_condition_G(logic).holds


def test_unique_conditionals_fail_on_mo2(mo2):
    rep = check_condition_G(mo2)
    assert not rep.holds
    assert rep.failure_kind == "non_unique"
    assert mo2.labels[rep.element] == "a"
    w1, w2 = rep.witnesses
    assert w1 != w2
    assert w1[rep.element] == w2[rep.element] == 1
    for f in range(mo2.n):
        if mo2.leq[f, rep.element]:
            assert w1[f] == w2[f]


def test_two_element_logic_satisfies_G(booleans):
    assert check_condition_G(booleans[1]).holds


def _tied_pair_logic():
    """Atoms a, b, c in one block with an equality gadget pinning
    value(a) = value(b): a takes 1/2 at some vertex but never 1."""
    blocks = [("a", "b", "c")] + equality_gadget_blocks("a", "b", "g")
    return validate_logic(greechie(blocks))


@pytest.mark.parametrize("make", [
    lambda: validate_logic(mo_logic(1)),
    lambda: validate_logic(mo_logic(2)),
    lambda: validate_logic(mo_logic(3)),
    lambda: validate_logic(boolean_algebra(3)),
    lambda: validate_logic(stateless_logic()),
    _tied_pair_logic,
])
def test_condition_G_matches_per_vertex_existence(make):
    # on fresh logics, so that neither side reads what the other stored
    rep, ref = check_condition_G(make()), unique_conditionals_per_vertex(make())

    def values(report):
        states = (report.vertex, *report.witnesses)
        return [None if s is None else s.values for s in states]

    assert (rep.holds, rep.failure_kind, rep.element) == (
        ref.holds, ref.failure_kind, ref.element)
    assert values(rep) == values(ref)


def test_condition_G_fails_to_exist_at_an_atom_face():
    # no state gives a the value 1, while the first vertex with a != 0
    # gives it 1/2: that vertex is the witness
    logic = _tied_pair_logic()
    a = logic.index("a")
    rep = check_condition_G(logic)
    assert (rep.holds, rep.failure_kind, rep.element) == (
        False, "non_existent", a)
    first = next(v for v in state_polytope(logic).vertices if v[a] != 0)
    assert rep.vertex == first and first[a] == F(1, 2)


def test_condition_G_reads_the_stored_atom_face(monkeypatch):
    # on MO3 the existence test for atom a asked the face value(a) = 1
    # once per vertex with a != 0 (6 builds of 3 systems); it now reads
    # the stored face, next to the base and the gap system
    logic = validate_logic(mo_logic(3))
    space = reduced_space(logic)
    a = logic.index("a")
    built = _record_builds(monkeypatch)
    rep = check_condition_G(logic)
    assert (rep.failure_kind, rep.element) == ("non_unique", a)
    assert len(built) == len(set(built)) == 3
    face_a = space.system(space.face_rows(a))
    assert (tuple(map(tuple, face_a[0])), tuple(face_a[1])) in built


def test_strong_state_space_on_fixtures(booleans, mo_logics):
    for logic in (booleans[2], booleans[3], mo_logics[2], mo_logics[3]):
        rep = check_condition_H(logic)
        assert rep.holds
        assert logic.zero in rep.vacuous_premises


def test_strong_state_space_via_direct_lp(mo2):
    # oracle for a few pairs: maximize 1 - v(e) on the face v(f) = 1
    space = reduced_space(mo2)
    for f in (mo2.index("a"), mo2.index("b'")):
        for e in range(mo2.n):
            if mo2.leq[f, e]:
                continue
            neg = [-c for c in space.indicator(e)]
            res = space.polyhedron(space.face_rows(f)).solve(neg, maximize=True)
            assert res.optimal
            separation = 1 + res.value  # 1 - min v(e)
            assert separation > 0


# ---------------------------------------------------------------------------
# transition probabilities
# ---------------------------------------------------------------------------

def test_transition_reflexive(b3, mo2):
    for logic in (b3, mo2):
        for e in range(logic.n):
            if e == logic.zero:
                continue
            try:
                res = transition_probability(logic, e, e)
            except UndefinedTransition:
                continue
            assert res.exists and res.value == 1


def test_one_polyhedron_per_face(monkeypatch):
    # phase 1 runs once per constraint system and logic, however many
    # objectives are asked of it and by however many calls
    built, solved = [], []

    class Counting(rlp.Polyhedron):
        def __init__(self, A, b):
            built.append(len(A))
            super().__init__(A, b)

        def solve(self, c, maximize=False):
            solved.append(maximize)
            return super().solve(c, maximize)

    monkeypatch.setattr(rlp, "Polyhedron", Counting)
    logic = validate_logic(mo_logic(2))
    a, b = logic.index("a"), logic.index("b")
    res = transition_probability(logic, b, a)
    assert (res.low, res.high) == (0, 1)
    assert (len(built), len(solved)) == (1, 2)
    with pytest.raises(NotUnique):
        atomic_state(logic, a)  # the value of b ranges over [0, 1]
    # the face value(a) = 1 built for the transition is read again
    assert (len(built), len(solved)) == (1, 8)


def _record_builds(monkeypatch):
    """The system (A, b) of every polyhedron built from here on, as
    tuples; each build is one run of phase 1."""
    built = []

    class Recording(rlp.Polyhedron):
        def __init__(self, A, b):
            built.append((tuple(map(tuple, A)), tuple(b)))
            super().__init__(A, b)

    monkeypatch.setattr(rlp, "Polyhedron", Recording)
    return built


def test_lemma2_sweep_builds_no_polyhedron(monkeypatch, tmp_path, capsys):
    # factor and ambient of prod33 are powersets, so the 1,444 tuples of
    # a composite read cold read their transitions off the order: no
    # phase 1 runs (57 face systems did while the sweep solved LPs)
    path = str(tmp_path / "prod33.json")
    assert cli.main(["fixture", "export", "prod33", path]) == 0
    built = _record_builds(monkeypatch)
    capsys.readouterr()
    assert cli.main(["lemma2", path, "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["tuples_checked"] == 1444
    assert built == []


def test_lemma3_sweep_builds_no_polyhedron(monkeypatch, tmp_path, capsys):
    # factor and ambient of prod33 are powersets: the vertices, F's
    # witness, G, H and the atomic states are all read off the order, so
    # the sweep runs no phase 1 (12 faces did while the atomic states came
    # from LPs, and then the base did while F and the vertices did)
    path = str(tmp_path / "prod33.json")
    assert cli.main(["fixture", "export", "prod33", path]) == 0
    built = _record_builds(monkeypatch)
    capsys.readouterr()
    assert cli.main(["lemma3", path, "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["holds"]
    assert built == []


def test_condition_F_and_vertices_build_the_base_once(monkeypatch):
    logic = validate_logic(mo_logic(3))
    A, b = reduced_space(logic).system()
    built = _record_builds(monkeypatch)
    assert check_condition_F(logic).holds
    assert len(state_polytope(logic).vertices) == 8
    assert built == [(tuple(map(tuple, A)), tuple(b))]


def test_empty_state_space_is_stored_not_raised_from_the_cache(monkeypatch):
    # each call raises, and the infeasible base is read the second time
    logic = validate_logic(stateless_logic())
    built = _record_builds(monkeypatch)
    for _ in range(2):
        with pytest.raises(EmptyStateSpace):
            check_condition_F(logic)
    assert len(built) == 1


def test_transition_examples_on_powerset(b3):
    x, xy = b3.index("x"), b3.index("z'")
    up = transition_probability(b3, xy, x)
    assert up.exists and up.value == 1
    down = transition_probability(b3, x, xy)
    assert not down.exists and (down.low, down.high) == (0, 1)


def test_transition_zero_for_orthogonal(b3, mo2):
    for logic in (b3, mo2):
        for e in logic.atoms:
            f = logic.orthocomplement(e)
            res = transition_probability(logic, e, f)
            assert res.exists and res.value == 0


def test_transition_undefined_on_zero(b3):
    with pytest.raises(UndefinedTransition):
        transition_probability(b3, b3.one, b3.zero)


def test_transition_characterizes_order_under_strongness(b3, mo2):
    # on a logic with a strong state space: P(e|f) = 1 iff f <= e,
    # and P(e|f) = 0 iff e and f are orthogonal
    for logic in (b3, mo2):
        for f in range(logic.n):
            if f == logic.zero:
                continue
            for e in range(logic.n):
                res = transition_probability(logic, e, f)
                assert (res.exists and res.value == 1) == bool(logic.leq[f, e])
                assert (res.exists and res.value == 0) == logic.orthogonal(e, f)


# ---------------------------------------------------------------------------
# atomic states
# ---------------------------------------------------------------------------

def test_atomic_state_is_point_mass(b3):
    x = b3.index("x")
    st_x = atomic_state(b3, x)
    for e in range(b3.n):
        assert st_x[e] == (1 if b3.leq[x, e] else 0)


def test_atomic_state_equals_transitions_componentwise(b3, mo_logics):
    for logic in (b3,):
        for a in logic.atoms:
            st_a = atomic_state(logic, a)
            for f in range(logic.n):
                res = transition_probability(logic, f, a)
                assert res.exists and res.value == st_a[f]


def test_atomic_state_requires_atom(b3):
    with pytest.raises(NotAnAtom):
        atomic_state(b3, b3.one)


def test_atomic_state_not_unique_on_mo2(mo2):
    with pytest.raises(NotUnique):
        atomic_state(mo2, mo2.index("a"))


def test_atomic_state_of_unit_in_two_element_logic(booleans):
    logic = booleans[1]
    assert atomic_state(logic, logic.one).values == (F(0), F(1))


# ---------------------------------------------------------------------------
# atom identities
# ---------------------------------------------------------------------------

def test_atom_identities_reflexive(b3):
    rep = atom_equivalences(b3, b3.index("x"), b3.index("x"))
    assert rep.agree and all(rep.identities.values())


def test_atom_identities_distinct(b3):
    rep = atom_equivalences(b3, b3.index("x"), b3.index("y"))
    assert rep.agree and not any(rep.identities.values())


def test_atom_identities_sweep(booleans):
    for logic in booleans.values():
        for e in logic.atoms:
            for f in logic.atoms:
                rep = atom_equivalences(logic, e, f)
                assert rep.agree


def test_atom_identities_need_atoms(b3):
    with pytest.raises(NotAnAtom):
        atom_equivalences(b3, b3.index("x"), b3.one)
