"""Boolean products, the two structural conditions, Lemmas 2 and 3."""

from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from qlogic import composite
from qlogic.builders import boolean_algebra, greechie, mo_logic
from qlogic.cloning import CloneProblem
from qlogic.composite import (
    boolean_product,
    check_condition_I,
    check_condition_J,
    check_lemma2,
    check_lemma3,
    composite_from_dict,
    embedded_meets,
    lemma2_sweep,
    lemma3_sweep,
    make_composite,
    meet_embed,
)
from qlogic.core import LogicDescription, meets, validate_logic
from qlogic.errors import (
    LemmaViolated,
    LogicInputError,
    NoInfimum,
    NotBoolean,
    PreconditionFailed,
    QLogicError,
)
from qlogic.fixtures import load_fixture
from qlogic.morphisms import dual_state
from qlogic.states import (
    State,
    atomic_state,
    state_polytope,
    transition_probability,
)


@pytest.fixture(scope="module")
def prod22():
    return boolean_product(validate_logic(boolean_algebra(2)))


@pytest.fixture(scope="module")
def prod11():
    return boolean_product(validate_logic(boolean_algebra(1)))


def test_product_of_two_atom_algebra(prod22):
    assert prod22.factor.n == 4
    assert prod22.ambient.n == 16
    assert check_condition_I(prod22).holds
    assert check_condition_J(prod22).holds


def test_product_grid_atoms(prod22):
    ambient, factor = prod22.ambient, prod22.factor
    assert len(ambient.atoms) == 4
    # oracle: embedded meets are exactly the grid atoms
    seen = set()
    for e in factor.atoms:
        for f in factor.atoms:
            m = meet_embed(prod22, e, f)
            assert ambient.is_atom(m)
            lbl = f"({factor.labels[e]},{factor.labels[f]})"
            assert ambient.labels[m] == lbl
            seen.add(m)
    assert seen == set(ambient.atoms)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_every_boolean_product_satisfies_I_and_J(k):
    comp = boolean_product(validate_logic(boolean_algebra(k)))
    assert check_condition_I(comp).holds
    assert check_condition_J(comp).holds


def test_product_of_two_element_logic(prod11):
    assert prod11.ambient.n == 2
    assert prod11.pi1.map == prod11.pi2.map == (0, 1)


def test_product_rejects_non_boolean():
    mo2 = validate_logic(mo_logic(2))
    with pytest.raises(NotBoolean):
        boolean_product(mo2)


def test_product_rejects_oversized_factor():
    b4 = validate_logic(boolean_algebra(4))
    with pytest.raises(LogicInputError):
        boolean_product(b4)


@pytest.mark.parametrize("factor, ambient, map1, map2", [
    (2, 2, range(6), range(6)),
    (3, 3, range(8), range(8)),
    # MO2's blocks onto MO3's blocks a, b and onto b, c
    (2, 3, [0, 1, 2, 3, 4, 7], [0, 3, 4, 5, 6, 7]),
], ids=["MO2-identity", "MO3-identity", "MO2-into-MO3"])
def test_embeddings_across_blocks_fail_compatibility(factor, ambient,
                                                     map1, map2):
    factor = validate_logic(mo_logic(factor))
    ambient = validate_logic(mo_logic(ambient))
    comp = make_composite(factor, ambient, map1, map2)
    rep = check_condition_I(comp)
    assert not rep.holds
    assert oracles.mutually_compatible_by_subsets(
        ambient, comp.pi1.map, comp.pi2.map) is False
    assert check_condition_I(comp) is rep  # stored on the composite


def test_identity_embeddings_fail_atom_meets(b2):
    comp = make_composite(b2, b2, range(b2.n), range(b2.n))
    rep = check_condition_J(comp)
    assert not rep.holds
    e, f = rep.failing_pair
    assert e != f and rep.meet == b2.zero


def test_meet_embed_bounds(prod22):
    factor, ambient = prod22.factor, prod22.ambient
    assert meet_embed(prod22, factor.one, factor.one) == ambient.one
    assert meet_embed(prod22, factor.zero, factor.one) == ambient.zero


def _identity_composite(desc):
    logic = validate_logic(desc)
    return make_composite(logic, logic, range(logic.n), range(logic.n))


LOOP4 = greechie([("a", "b", "c"), ("c", "d", "e"), ("e", "f", "g"),
                  ("g", "h", "a")])


@pytest.mark.parametrize("make, missing", [
    (lambda: load_fixture("prod22").composite(), False),
    (lambda: load_fixture("prod33").composite(), False),
    (lambda: _identity_composite(mo_logic(2)), False),
    # 18 elements, not a lattice: some embedded meets do not exist
    (lambda: _identity_composite(LOOP4), True),
], ids=["prod22", "prod33", "MO2-identity", "loop-of-order-4-identity"])
def test_embedded_meets_match_inf_or_none(make, missing):
    comp = make()
    table = embedded_meets(comp)
    n = comp.factor.n
    want = [[comp.ambient.inf_or_none(comp.pi1.map[e], comp.pi2.map[f])
             for f in range(n)] for e in range(n)]
    assert table.tolist() == [[-1 if m is None else m for m in row]
                              for row in want]
    assert (table < 0).any() == missing
    for e, f in np.argwhere(table < 0):
        with pytest.raises(NoInfimum):
            meet_embed(comp, e, f)


def test_embedded_meets_built_once_per_composite(monkeypatch):
    calls = []

    def counted(*args):
        calls.append(args)
        return meets(*args)

    monkeypatch.setattr(composite, "meets", counted)
    comp = boolean_product(validate_logic(boolean_algebra(2)))
    factor = comp.factor
    x, y = factor.atoms
    assert check_condition_J(comp).holds
    CloneProblem(comp, [x, y], x)
    CloneProblem(comp, [y], y)
    check_lemma2(comp, x, x, y, y)
    check_lemma3(comp, x, y, atomic_state(comp.ambient, meet_embed(comp, x, y)))
    assert len(calls) == 1


# ---------------------------------------------------------------------------
# Lemma 2
# ---------------------------------------------------------------------------

def test_lemma2_reflexive_pairs(prod22):
    factor = prod22.factor
    x, y = factor.atoms
    rep = check_lemma2(prod22, x, x, y, y)
    assert rep.holds and rep.ambient_value == 1
    assert rep.factor_values == (1, 1)


def test_lemma2_orthogonal_annihilates(prod22):
    factor = prod22.factor
    x = factor.index("x")
    xc = factor.orthocomplement(x)
    rep = check_lemma2(prod22, x, xc, x, x)
    assert rep.holds and rep.ambient_value == 0


def test_lemma2_mixed_example(prod22):
    # one factor 1, the other 0: the product collapses to 0 on both sides
    factor = prod22.factor
    x, y = factor.atoms
    rep = check_lemma2(prod22, x, x, y, factor.orthocomplement(y))
    assert rep.holds
    assert rep.factor_values == (1, 0) and rep.ambient_value == 0


def defined_transition_pairs(logic):
    out = []
    for e1 in range(logic.n):
        if e1 == logic.zero:
            continue
        for e2 in range(logic.n):
            res = transition_probability(logic, e2, e1)
            if res.exists:
                out.append((e1, e2))
    return out


def test_lemma2_exhaustive_on_small_product(prod22):
    defined = defined_transition_pairs(prod22.factor)
    for e1, e2 in defined:
        for f1, f2 in defined:
            rep = check_lemma2(prod22, e1, e2, f1, f2)
            assert rep.holds


def _lemma2_loop(comp, pairs):
    """``check_lemma2`` on every tuple, one at a time: the reference for
    ``lemma2_sweep``."""
    for e1, e2 in pairs:
        for f1, f2 in pairs:
            check_lemma2(comp, e1, e2, f1, f2)
    return len(pairs) ** 2


def _outcome(sweep, comp, pairs):
    """The count, or the type and message of what the sweep raises."""
    try:
        return sweep(comp, pairs)
    except Exception as exc:  # compared whatever it is
        return type(exc), str(exc)


def _b2_in_mo2():
    # both copies send x to a and y to a': compatible images in a
    # non-Boolean ambient, whose transitions come from LPs
    b2, mo2 = validate_logic(boolean_algebra(2)), validate_logic(mo_logic(2))
    image = {b2.zero: mo2.zero, b2.one: mo2.one}
    image.update(zip(b2.atoms, (mo2.index("a"), mo2.index("a'"))))
    maps = [image[e] for e in range(b2.n)]
    return make_composite(b2, mo2, maps, maps)


@pytest.mark.parametrize("name", ["prod22", "prod33"])
def test_lemma2_sweep_counts_like_the_loop(name):
    comp = load_fixture(name).composite()
    pairs = defined_transition_pairs(comp.factor)
    want = _lemma2_loop(comp, pairs)
    assert want == {"prod22": 100, "prod33": 1444}[name]
    assert lemma2_sweep(comp, pairs) == want
    assert lemma2_sweep(comp, []) == 0


def _copies_equal(name):
    # pi1 == pi2 on a Boolean product: e ^ f' of the factor embeds as
    # the ambient zero, on which no transition is defined
    comp = load_fixture(name).composite()
    return make_composite(comp.factor, comp.ambient, comp.pi1.map,
                          comp.pi1.map)


@pytest.mark.parametrize("make", [
    lambda: _copies_equal("prod22"),
    lambda: _copies_equal("prod33"),
    # condition (I) fails
    lambda: _identity_composite(mo_logic(2)),
    _b2_in_mo2,
], ids=["prod22-equal-copies", "prod33-equal-copies", "MO2-identity",
        "B2-in-MO2"])
def test_lemma2_sweep_raises_what_the_loop_raises(make):
    comp = make()
    pairs = defined_transition_pairs(comp.factor)
    want = _outcome(_lemma2_loop, comp, pairs)
    assert isinstance(want, tuple), "the composite must fail Lemma 2"
    assert _outcome(lemma2_sweep, comp, pairs) == want
    # a tuple list that stops before the first failure passes in both
    first = next(i for i, pair in enumerate(pairs)
                 if _outcome(_lemma2_loop, comp, pairs[:i + 1]) != (i + 1) ** 2)
    if first:
        assert lemma2_sweep(comp, pairs[:first]) == first ** 2


def test_lemma2_requires_defined_transitions(prod22):
    factor = prod22.factor
    x = factor.index("x")
    with pytest.raises(PreconditionFailed):
        check_lemma2(prod22, factor.one, x, x, x)  # P(x|1) undefined


def test_lemma2_requires_compatibility_condition(mo2):
    # condition (I) really fails for the identity embeddings of MO2
    comp = make_composite(mo2, mo2, range(mo2.n), range(mo2.n))
    a = mo2.index("a")
    with pytest.raises(PreconditionFailed):
        check_lemma2(comp, a, a, a, a)


# ---------------------------------------------------------------------------
# Lemma 3
# ---------------------------------------------------------------------------

def test_lemma3_on_joint_atomic_state(prod22):
    factor, ambient = prod22.factor, prod22.ambient
    x, y = factor.atoms
    rho = atomic_state(ambient, meet_embed(prod22, x, y))
    rep = check_lemma3(prod22, x, y, rho)
    assert rep.holds and rep.restrictions_atomic and rep.joint_atomic
    assert dual_state(prod22.pi1, rho) == atomic_state(factor, x)
    assert dual_state(prod22.pi2, rho) == atomic_state(factor, y)


def test_lemma3_on_mixture(prod22):
    factor, ambient = prod22.factor, prod22.ambient
    x, y = factor.atoms
    verts = state_polytope(ambient).vertices
    mixed = verts[0].mix(verts[1], F(1, 2))
    rep = check_lemma3(prod22, x, y, mixed)
    assert rep.holds
    assert not rep.restrictions_atomic and not rep.joint_atomic


def test_lemma3_vertex_sweep(prod22):
    factor = prod22.factor
    for rho in state_polytope(prod22.ambient).vertices:
        for e in factor.atoms:
            for f in factor.atoms:
                assert check_lemma3(prod22, e, f, rho).holds


def test_lemma3_trivial_factor(prod11):
    factor = prod11.factor
    rho = atomic_state(prod11.ambient, prod11.ambient.one)
    rep = check_lemma3(prod11, factor.one, factor.one, rho)
    assert rep.holds and rep.restrictions_atomic and rep.joint_atomic


def test_restrictions_send_states_to_states(prod22):
    # dual_state validates the result internally, so no raise means pass
    for rho in state_polytope(prod22.ambient).vertices:
        dual_state(prod22.pi1, rho)
        dual_state(prod22.pi2, rho)


def _lemma3_outcome(check, comp, rhos, pairs):
    """What a Lemma 3 check over all tuples returns, or the type and text
    of what it raises."""
    try:
        return check(comp, rhos, pairs)
    except QLogicError as exc:
        return type(exc), str(exc)


def _lemma3_inputs(comp):
    """The ambient's vertices and two mixtures, and every atom pair."""
    verts = list(state_polytope(comp.ambient).vertices)
    rhos = verts + [verts[0].mix(verts[-1], F(1, 3)),
                    verts[1].mix(verts[2], F(1, 2))]
    atoms = comp.factor.atoms
    return rhos, [(e, f) for e in atoms for f in atoms]


@pytest.mark.parametrize("name", ["prod22", "prod33"])
def test_lemma3_sweep_matches_the_per_tuple_loop(name):
    comp = load_fixture(name).composite()
    rhos, pairs = _lemma3_inputs(comp)
    assert (lemma3_sweep(comp, rhos, pairs)
            == oracles.lemma3_per_tuple(comp, rhos, pairs)
            == len(rhos) * len(pairs))
    assert lemma3_sweep(comp, [], pairs) == lemma3_sweep(comp, rhos, []) == 0


def test_lemma3_sweep_replays_a_violation(prod22):
    # the joint atomic state changed off both embedded copies: its
    # restrictions stay atomic, but it is no longer the joint state
    ambient = prod22.ambient
    x, y = prod22.factor.atoms
    joint = atomic_state(ambient, meet_embed(prod22, x, y))
    images = set(prod22.pi1.map) | set(prod22.pi2.map)
    e = next(e for e in range(ambient.n) if e not in images)
    values = list(joint.values)
    values[e] = F(1, 2)
    rhos, pairs = _lemma3_inputs(prod22)
    rhos.insert(2, State(ambient, values, _checked=True))
    got = _lemma3_outcome(lemma3_sweep, prod22, rhos, pairs)
    assert got == _lemma3_outcome(oracles.lemma3_per_tuple, prod22, rhos,
                                  pairs)
    assert got[0] is LemmaViolated and "joint atomic = False" in got[1]


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_lemma3_sweep_fails_where_the_loop_fails(data):
    # one state with a drawn value changed, unchecked, at a drawn place
    # among the states, and a drawn pair that may not be atoms: the sweep
    # raises what the loop over the tuples raises first, or passes too
    comp = load_fixture("prod22").composite()
    ambient, factor = comp.ambient, comp.factor
    rhos, pairs = _lemma3_inputs(comp)
    values = list(data.draw(st.sampled_from(rhos)).values)
    e = data.draw(st.integers(0, ambient.n - 1))
    values[e] = data.draw(st.sampled_from([F(0), F(1, 2), F(1)]))
    rhos.insert(data.draw(st.integers(0, len(rhos))),
                State(ambient, values, _checked=True))
    if data.draw(st.booleans()):
        pair = tuple(data.draw(st.integers(0, factor.n - 1))
                     for _ in range(2))
        pairs.insert(data.draw(st.integers(0, len(pairs))), pair)
    assert (_lemma3_outcome(lemma3_sweep, comp, rhos, pairs)
            == _lemma3_outcome(oracles.lemma3_per_tuple, comp, rhos, pairs))


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def test_composite_round_trip(prod22):
    data = prod22.to_dict()

    def load_fn(ref):
        return validate_logic(LogicDescription.from_dict(ref))

    again = composite_from_dict(data, load_fn)
    assert again.pi1.map == prod22.pi1.map
    assert again.pi2.map == prod22.pi2.map
    assert again.ambient.labels == prod22.ambient.labels
