"""Morphism validation, dual states, automorphism groups, Lemma 1."""

from fractions import Fraction as F
from itertools import permutations

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from oracles import automorphisms_generic, order_is_mask_inclusion
from qlogic.builders import greechie
from qlogic.core import validate_logic
from qlogic.errors import (
    NotInjective,
    NotOrderPreserving,
    OrthoNotPreserved,
    PreconditionFailed,
    QLogicError,
    UnitNotPreserved,
)
from qlogic.fixtures import fixture_names, load_fixture
from qlogic.morphisms import (
    _atom_extender,
    automorphisms,
    check_lemma1a,
    check_lemma1b,
    dual_state,
    iter_automorphisms,
    validate_automorphism,
    validate_morphism,
)
from qlogic.states import (
    atomic_state,
    conditional_probability,
    state_polytope,
    transition_probability,
)


def embedding_2_into_3(b2, b3):
    """x -> x and y -> {y, z}: the complement-preserving embedding."""
    m = [0] * b2.n
    m[b2.zero] = b3.zero
    m[b2.one] = b3.one
    m[b2.index("x")] = b3.index("x")
    m[b2.index("y")] = b3.index("x'")
    return validate_morphism(b2, b3, m)


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------

def test_identity_is_morphism(b3):
    mor = validate_morphism(b3, b3, range(b3.n))
    assert mor.is_injective


def test_embedding_is_injective_morphism(b2, b3):
    assert embedding_2_into_3(b2, b3).is_injective


def test_unit_must_map_to_unit(b2):
    bad = list(range(b2.n))
    bad[b2.one] = b2.zero
    with pytest.raises(UnitNotPreserved):
        validate_morphism(b2, b2, bad)


def test_order_violation_detected(b3):
    bad = list(range(b3.n))
    x, y = b3.index("x"), b3.index("y")
    bad[x], bad[y] = y, x
    bad[b3.index("x'")] = b3.index("x'")  # breaks both order and complement
    with pytest.raises((NotOrderPreserving, OrthoNotPreserved)):
        validate_morphism(b3, b3, bad)


def test_collapsing_map_not_automorphism(b2):
    squash = [b2.zero, b2.index("x"), b2.index("x"), b2.one]
    with pytest.raises((NotInjective, OrthoNotPreserved)):
        validate_automorphism(b2, squash)


# ---------------------------------------------------------------------------
# dual states
# ---------------------------------------------------------------------------

def test_dual_of_identity_is_same_state(b3):
    ident = validate_morphism(b3, b3, range(b3.n))
    for v in state_polytope(b3).vertices:
        assert dual_state(ident, v) == v


def test_dual_along_embedding(b2, b3):
    emb = embedding_2_into_3(b2, b3)
    mass_x = atomic_state(b3, b3.index("x"))
    pulled = dual_state(emb, mass_x)
    assert pulled[b2.index("x")] == 1
    assert pulled[b2.index("y")] == 0
    assert pulled[b2.one] == 1


def test_dual_is_affine(b2, b3):
    emb = embedding_2_into_3(b2, b3)
    verts = state_polytope(b3).vertices
    lam = F(1, 3)
    mixed = verts[0].mix(verts[1], lam)
    lhs = dual_state(emb, mixed)
    rhs = dual_state(emb, verts[0]).mix(dual_state(emb, verts[1]), lam)
    assert lhs == rhs


# ---------------------------------------------------------------------------
# automorphism groups
# ---------------------------------------------------------------------------

def test_automorphism_counts(booleans, mo_logics):
    assert len(automorphisms(booleans[1])) == 1
    assert len(automorphisms(booleans[2])) == 2
    assert len(automorphisms(booleans[3])) == 6
    assert len(automorphisms(mo_logics[2])) == 8
    assert len(automorphisms(mo_logics[3])) == 48


def test_powerset_automorphisms_are_atom_permutations(b3):
    autos = automorphisms(b3)
    atom_images = {tuple(t.map[a] for a in b3.atoms) for t in autos}
    assert atom_images == set(permutations(b3.atoms))


def test_mo2_automorphism_count_by_exhaustion(mo2):
    # oracle: try all bijections fixing 0 and 1 directly
    middles = [1, 2, 3, 4]
    count = 0
    for perm in permutations(middles):
        mapping = [0] + list(perm) + [5]
        try:
            validate_automorphism(mo2, mapping)
            count += 1
        except Exception:
            continue
    assert count == 8
    assert len(automorphisms(mo2)) == count


def _assert_mask_route_is_complete(logic):
    assert order_is_mask_inclusion(logic)
    fast = [t.map for t in iter_automorphisms(logic)]
    slow = {t.map for t in automorphisms_generic(logic)}
    assert len(fast) == len(set(fast)) and set(fast) == slow


def test_generic_backtracking_agrees_with_mask_route(b2, mo2):
    for logic in (b2, mo2):
        _assert_mask_route_is_complete(logic)


def test_every_valid_fixture_orders_by_atom_masks():
    # stateless has 76 atoms: its masks do not fit a machine word
    for name in fixture_names():
        fx = load_fixture(name)
        if fx.kind == "composite":
            logics = (fx.composite().factor, fx.composite().ambient)
        elif fx.kind == "logic" and fx.annotations["valid"]:
            logics = (fx.logic(),)
        else:
            continue
        for logic in logics:
            assert order_is_mask_inclusion(logic), name


@st.composite
def _pastings(draw):
    """Up to three blocks of 2-4 atoms over a pool of seven; the pastings
    that builders.greechie and validation accept are kept."""
    blocks = draw(st.lists(
        st.lists(st.sampled_from("abcdefg"), min_size=2, max_size=4,
                 unique=True).map(tuple),
        min_size=1, max_size=3))
    try:
        return validate_logic(greechie(blocks))
    except QLogicError:
        return None


@given(_pastings())
@settings(max_examples=40, deadline=None)
def test_mask_route_matches_generic_backtracking_on_pastings(logic):
    assume(logic is not None)
    _assert_mask_route_is_complete(logic)


def test_extension_accepts_exactly_the_orthogonality_preserving_maps(mo2):
    ext = _atom_extender(mo2)
    atoms = mo2.atoms
    pairs = [(i, j) for i in range(len(atoms)) for j in range(i)]
    for sigma in permutations(range(len(atoms))):
        keeps = all(mo2.orthogonal(atoms[i], atoms[j])
                    == mo2.orthogonal(atoms[sigma[i]], atoms[sigma[j]])
                    for i, j in pairs)
        assert (ext.extend(sigma) is not None) == keeps


def test_identity_extends_beyond_62_atoms():
    logic = load_fixture("stateless").logic()
    assert len(logic.atoms) > 62
    auto = _atom_extender(logic).extend(tuple(range(len(logic.atoms))))
    assert auto.map == auto.inverse == tuple(range(logic.n))


def test_group_axioms(b3, mo2):
    for logic in (b3, mo2):
        autos = automorphisms(logic)
        maps = {t.map for t in autos}
        assert tuple(range(logic.n)) in maps
        for t in autos:
            assert t.inverted().map in maps
            for u in autos[:4]:
                assert t.compose(u).map in maps


def test_atoms_map_to_atoms(b3, mo2):
    for logic in (b3, mo2):
        for t in automorphisms(logic):
            for a in logic.atoms:
                assert logic.is_atom(t.map[a])


def test_enumeration_is_deterministic(mo2):
    first = [t.map for t in automorphisms(mo2)]
    second = [t.map for t in automorphisms(mo2)]
    assert first == second


# ---------------------------------------------------------------------------
# Lemma 1
# ---------------------------------------------------------------------------

def test_lemma1a_identity_trivial(b3):
    ident = validate_morphism(b3, b3, range(b3.n))
    x = b3.index("x")
    rep = check_lemma1a(ident, x, x)
    assert rep.holds and rep.source_value == rep.target_value == 1


def test_lemma1a_orthogonal_pair_through_embedding(b2, b3):
    emb = embedding_2_into_3(b2, b3)
    x, y = b2.index("x"), b2.index("y")
    rep = check_lemma1a(emb, x, y)
    assert rep.holds and rep.source_value == 0


def test_lemma1a_requires_defined_transition(b3):
    ident = validate_morphism(b3, b3, range(b3.n))
    with pytest.raises(PreconditionFailed):
        check_lemma1a(ident, b3.index("z'"), b3.index("x"))  # P(x|{x,y}) undefined


def test_lemma1a_full_sweep(b2, b3):
    morphs = [
        validate_morphism(b2, b2, range(b2.n)),
        embedding_2_into_3(b2, b3),
    ] + automorphisms(b3)
    for mor in morphs:
        source, target = mor.source, mor.target
        for e1 in range(source.n):
            if mor.map[e1] == target.zero:
                continue
            for e2 in range(source.n):
                try:
                    s = transition_probability(source, e2, e1)
                except Exception:
                    continue
                if not s.exists:
                    continue
                rep = check_lemma1a(mor, e1, e2)
                assert rep.holds


def test_lemma1b_identity(b3):
    ident = validate_automorphism(b3, list(range(b3.n)))
    for f in b3.atoms:
        rep = check_lemma1b(ident, f)
        assert rep.holds and rep.preimage_atom == f


def test_lemma1b_atom_swap(b3):
    x, y = b3.index("x"), b3.index("y")
    swap = next(t for t in automorphisms(b3)
                if t.map[x] == y and t.map[b3.index("z")] == b3.index("z"))
    pulled = dual_state(swap, atomic_state(b3, x))
    assert pulled == atomic_state(b3, y)
    rep = check_lemma1b(swap, x)
    assert rep.holds and rep.preimage_atom == y


def test_lemma1b_two_element_logic(booleans):
    logic = booleans[1]
    ident = validate_automorphism(logic, [0, 1])
    assert check_lemma1b(ident, logic.one).holds


def test_lemma1b_full_sweep(b3, booleans):
    for logic in (booleans[2], b3):
        for t in automorphisms(logic):
            for f in logic.atoms:
                assert check_lemma1b(t, f).holds


def test_pullback_conditional_identity(b2, b3):
    # conditioning commutes with the dual map when conditionals are unique
    emb = embedding_2_into_3(b2, b3)
    for rho in state_polytope(b3).vertices:
        pulled = dual_state(emb, rho)
        for e1 in range(b2.n):
            if pulled[e1] == 0:
                continue
            lhs = conditional_probability(b2, pulled, e1)
            rhs = conditional_probability(b3, rho, emb.map[e1])
            assert lhs.kind == rhs.kind == "unique"
            for e2 in range(b2.n):
                assert lhs.state[e2] == rhs.state[emb.map[e2]]
