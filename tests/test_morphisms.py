"""Morphism validation, dual states, automorphism groups, Lemma 1."""

import dataclasses
import random
from fractions import Fraction as F
from itertools import chain, islice, permutations

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from oracles import (
    atom_perms_recursive,
    automorphisms_by_oracle,
    automorphisms_generic,
    extend_one,
    first_automorphism_scan,
    order_is_mask_inclusion,
)
from qlogic import morphisms
from qlogic.builders import boolean_algebra, mo_logic
from qlogic.core import LogicDescription, orthogonality_masks, validate_logic
from qlogic.errors import (
    NotInjective,
    NotOrderPreserving,
    OrthoNotPreserved,
    PreconditionFailed,
    SearchBudgetExceeded,
    UnitNotPreserved,
)
from qlogic.fixtures import fixture_names, load_fixture
from qlogic.morphisms import (
    Automorphism,
    _atom_extender,
    _atom_perm_blocks,
    _first_automorphism_with,
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
from strategies import loose_pastings, pastings


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


def _valid_fixture_logics():
    """(name, logic) for every valid fixture logic and for the factor and
    ambient of every fixture composite."""
    for name in fixture_names():
        fx = load_fixture(name)
        if fx.kind == "composite":
            yield name, fx.composite().factor
            yield name, fx.composite().ambient
        elif fx.kind == "logic" and fx.annotations["valid"]:
            yield name, fx.logic()


def test_every_valid_fixture_orders_by_atom_masks():
    # stateless has 76 atoms: its masks do not fit a machine word
    for name, logic in _valid_fixture_logics():
        assert order_is_mask_inclusion(logic), name


def test_masks_match_their_definitions():
    # the 76 atoms of stateless take the Python-int path of the packing
    ks = set()
    for name, logic in _valid_fixture_logics():
        atoms, leq = logic.atoms, logic.leq
        assert logic.atom_masks == tuple(
            sum(1 << i for i, a in enumerate(atoms) if leq[a, e])
            for e in range(logic.n)), name
        assert all(type(m) is int for m in logic.atom_masks), name
        omask = orthogonality_masks(logic)
        assert omask.dtype == (np.int64 if len(atoms) < 63 else object), name
        assert omask.tolist() == [
            sum(1 << j for j, b in enumerate(atoms) if logic.orthogonal(a, b))
            for a in atoms], name
        ks.add(len(atoms))
    assert max(ks) >= 63 > min(ks)


@given(pastings())
@settings(max_examples=40, deadline=None)
def test_mask_route_matches_generic_backtracking_on_pastings(logic):
    assume(logic is not None)
    _assert_mask_route_is_complete(logic)


def _drain(gen):
    """(items yielded, budget message or None, the generator's return
    value) of running a generator until it stops or exceeds its budget."""
    items = []
    try:
        while True:
            items.append(next(gen))
    except StopIteration as stop:
        return items, None, stop.value
    except SearchBudgetExceeded as exc:
        return items, str(exc), None


def _drain_blocks(logic, budget, rows):
    """(permutations, budget message or None) of the block search with
    blocks of at most ``rows`` rows, flattened to tuples."""
    perms = []
    try:
        for block in _atom_perm_blocks(logic, budget, rows):
            assert 0 < len(block) <= rows
            perms += map(tuple, block.tolist() if hasattr(block, "tolist")
                         else block)
    except SearchBudgetExceeded as exc:
        return perms, str(exc)
    return perms, None


def _first_perms(logic, count, budget=10 ** 6):
    """The first ``count`` permutations of the block search, as tuples."""
    rows = chain.from_iterable(_atom_perm_blocks(logic, budget, count))
    return [tuple(map(int, row)) for row in islice(rows, count)]


def _assert_search_and_extension_match_oracles(logic, data):
    perms, message, nodes = _drain(atom_perms_recursive(logic, 10 ** 9))
    assert message is None
    drawn = data.draw(st.integers(1, max(1, len(perms))), label="rows")
    # a negative budget stops at the first node, as a budget of 0 does
    for budget in (-1, 0, 1, nodes - 1, nodes):
        want = _drain(atom_perms_recursive(logic, budget))[:2]
        assert (want[1] is None) == (budget == nodes)
        # the order, the budget message and the prefix before it do not
        # depend on where the blocks end
        for rows in (1, 2, 3, 64, drawn):
            assert _drain_blocks(logic, budget, rows) == want
    # random permutations mostly break orthogonality: None rows
    ext = _atom_extender(logic)
    k = len(logic.atoms)
    rows = data.draw(st.lists(st.permutations(range(k)).map(tuple),
                              min_size=1, max_size=12)) + perms[:3]
    assert ext.extend_many(rows) == [extend_one(ext, r) for r in rows]


_NAMED_LOGICS = {f"MO{n}": mo_logic(n) for n in (2, 3, 4)}
_NAMED_LOGICS.update({f"B{k}": boolean_algebra(k) for k in range(1, 6)})


@pytest.mark.parametrize("name", sorted(_NAMED_LOGICS))
@given(data=st.data())
@settings(max_examples=5, deadline=None)
def test_atom_search_and_block_extension_match_oracles(name, data):
    _assert_search_and_extension_match_oracles(
        validate_logic(_NAMED_LOGICS[name]), data)


@given(pastings(), st.data())
@settings(max_examples=40, deadline=None)
def test_atom_search_and_block_extension_match_oracles_on_pastings(logic,
                                                                   data):
    assume(logic is not None)
    _assert_search_and_extension_match_oracles(logic, data)


def _first_outcome(search, *args):
    """(map or None, scanned) of a first-automorphism search, or the type
    and message of its budget error."""
    try:
        auto, scanned = search(*args)
    except SearchBudgetExceeded as exc:
        return type(exc), str(exc)
    return (None if auto is None else auto.map), scanned


def _assert_first_automorphism_matches_oracle(logic, forced, reject=None):
    """``_first_automorphism_with`` against the scan of the oracles at
    budgets around the count, the permutation index and the node count at
    which the answer is first reached.  Rows equal to ``reject`` do not
    extend, in the library and in the oracle alike."""
    ext = _atom_extender(logic)
    real = ext.extend_many

    def extend_many(sigmas):
        return [None if tuple(map(int, s)) == reject else auto
                for s, auto in zip(sigmas, real(sigmas))]

    def oracle_extend(sigma):
        return None if sigma == reject else extend_one(ext, sigma)

    def both(budget):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(ext, "extend_many", extend_many)
            got = _first_outcome(_first_automorphism_with, logic, forced,
                                 budget)
        want = _first_outcome(first_automorphism_scan, logic, oracle_extend,
                              forced, budget)
        assert got == want, (forced, budget)
        return got

    nodes = _drain(atom_perms_recursive(logic, 10 ** 9))[2]
    auto, index = both(nodes)
    # the smallest budget that reaches the answer
    low, high = 0, nodes
    while low < high:
        mid = (low + high) // 2
        if both(mid)[0] is SearchBudgetExceeded:
            low = mid + 1
        else:
            high = mid
    for budget in (index - 1, index, nodes - 1):
        both(budget)
    assert both(low - 1)[0] is SearchBudgetExceeded
    return auto, index


def _check_first_automorphism(logic, data):
    # a powerset computes its answer without the walk checked here
    assert not logic.is_boolean
    k = len(logic.atoms)
    perms = list(atom_perms_recursive(logic, 10 ** 9))
    # forced images read off a permutation the search lists
    sigma = data.draw(st.sampled_from(perms), label="sigma")
    sources = data.draw(st.lists(st.integers(0, k - 1), min_size=1,
                                 max_size=k, unique=True), label="sources")
    forced = {i: sigma[i] for i in sources}
    auto, index = _assert_first_automorphism_matches_oracle(logic, forced)
    assert auto is not None
    # the first row with those images does not extend: the walk goes on
    _assert_first_automorphism_matches_oracle(logic, forced,
                                              reject=perms[index - 1])
    # a partial injection no listed permutation matches: two orthogonal
    # atoms forced onto two atoms that are not
    atoms = logic.atoms
    pairs = [(i, j) for i in range(k) for j in range(k) if i != j]
    orth = [p for p in pairs if logic.orthogonal(*(atoms[x] for x in p))]
    skew = [p for p in pairs if not logic.orthogonal(*(atoms[x] for x in p))]
    if orth and skew:
        (i, j), (a, b) = orth[0], skew[0]
        assert _assert_first_automorphism_matches_oracle(
            logic, {i: a, j: b}) == (None, len(perms))
    # any drawn partial injection
    image = data.draw(st.permutations(range(k)), label="image")
    sources = data.draw(st.lists(st.integers(0, k - 1), min_size=1,
                                 max_size=k, unique=True), label="sources")
    _assert_first_automorphism_matches_oracle(
        logic, {i: image[i] for i in sources})


@pytest.mark.parametrize("n", [2, 3, 4])
@given(data=st.data())
@settings(max_examples=5, deadline=None)
def test_first_automorphism_with_matches_the_oracle_scan(n, data):
    _check_first_automorphism(validate_logic(mo_logic(n)), data)


@given(loose_pastings(), st.data())
@settings(max_examples=30, deadline=None)
def test_first_automorphism_with_matches_the_oracle_scan_on_pastings(logic,
                                                                    data):
    _check_first_automorphism(logic, data)


def test_block_search_matches_oracle_on_mo5():
    logic = validate_logic(mo_logic(5))
    perms, _, nodes = _drain(atom_perms_recursive(logic, 10 ** 9))
    assert len(perms) == 3840
    for budget in (-1, 0, 1, nodes - 1, nodes):
        want = _drain(atom_perms_recursive(logic, budget))[:2]
        for rows in (1, 7, 4096):
            assert _drain_blocks(logic, budget, rows) == want


@pytest.mark.parametrize("name", ["MO6", "stateless"])
def test_block_search_reaches_its_first_permutations_in_small_passes(name):
    # a clone search stops at its first cloner: the passes down to the
    # first permutations read a few rows, not blocks of thousands
    logic = (validate_logic(mo_logic(6)) if name == "MO6"
             else load_fixture("stateless").logic())
    blocks = _atom_perm_blocks(logic, 10 ** 9, 4096)
    assert max(len(next(blocks)) for _ in range(3)) < 16

def test_block_extension_beyond_62_atoms():
    # object-dtype masks: the first automorphisms the search finds, and
    # random permutations
    logic = load_fixture("stateless").logic()
    ext = _atom_extender(logic)
    k = len(logic.atoms)
    rng = random.Random(7)
    rows = _first_perms(logic, 3)
    rows += [tuple(rng.sample(range(k), k)) for _ in range(3)]
    got = ext.extend_many(rows)
    assert got == [extend_one(ext, r) for r in rows]
    assert all(a is not None for a in got[:3])
    assert all(a is None for a in got[3:])


@pytest.mark.parametrize("budget", [0, 1, 80, 300])
def test_block_search_beyond_62_atoms(budget):
    # object-dtype masks: the first permutations, and the prefix and
    # message of a small budget, in blocks of a few rows
    logic = load_fixture("stateless").logic()
    assert len(logic.atoms) >= 63
    first = list(islice(atom_perms_recursive(logic, 10 ** 6), 4))
    assert _first_perms(logic, 4) == first
    want = _drain(atom_perms_recursive(logic, budget))[:2]
    assert want[1] is not None
    for rows in (1, 3):
        assert _drain_blocks(logic, budget, rows) == want


@pytest.mark.parametrize("budget", [0, 1, 40, 200, 1000])
def test_budget_exhaustion_yields_the_same_prefix(budget, monkeypatch):
    # MO4's search visits more than 1000 nodes, so every budget here runs
    # out; 40 element entries make blocks of 4 rows on its 10 elements,
    # so the larger budgets run out blocks after the first
    logic = validate_logic(mo_logic(4))
    want = _drain(automorphisms_by_oracle(logic, _atom_extender(logic),
                                          budget))
    assert want[1] is not None
    for entries in (morphisms._EXTEND_ENTRIES, 40):
        monkeypatch.setattr(morphisms, "_EXTEND_ENTRIES", entries)
        got = _drain(iter_automorphisms(logic, budget))
        assert got[:2] == want[:2]
        if entries == 40 and budget >= 200:
            assert len(got[0]) > 4


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


def test_automorphisms_are_slotted_values(mo2):
    autos = automorphisms(mo2)
    t = autos[1]
    assert not hasattr(t, "__dict__")
    # the inverse is not stored: it is read off the map
    assert [f.name for f in dataclasses.fields(Automorphism)] == [
        "source", "target", "map"]
    # equal fields make equal, equally hashed automorphisms
    twin = validate_automorphism(mo2, t.map)
    assert twin == t and hash(twin) == hash(t)
    assert t.inverted().inverted() == t
    assert t.compose(t.inverted()).map == tuple(range(mo2.n))


def _assert_inverse_laws(logic, autos):
    identity = tuple(range(logic.n))
    for t in autos:
        inverse = t.inverse
        assert tuple(inverse[x] for x in t.map) == identity
        assert tuple(t.map[x] for x in inverse) == identity
        assert t.inverted().inverted() == t
        twin = validate_automorphism(logic, t.map)
        assert twin == t and hash(twin) == hash(t)


def _some_automorphisms(logic):
    """The first 100 automorphisms in search order, and those among 20
    seeded random atom permutations: all of a small group, and a spread
    of a large one."""
    autos = list(islice(iter_automorphisms(logic), 100))
    k = len(logic.atoms)
    rng = random.Random(0)
    drawn = [tuple(rng.sample(range(k), k)) for _ in range(20)]
    return autos + [t for t in _atom_extender(logic).extend_many(drawn)
                    if t is not None]


_INVERSE_LOGICS = dict(_NAMED_LOGICS, MO5=mo_logic(5))


@pytest.mark.parametrize("name",
                         sorted(_INVERSE_LOGICS) + ["prod22", "prod33"])
def test_inverse_read_off_the_map(name):
    logic = (validate_logic(_INVERSE_LOGICS[name]) if name in _INVERSE_LOGICS
             else load_fixture(name).composite().ambient)
    autos = _some_automorphisms(logic)
    assert autos
    _assert_inverse_laws(logic, autos)


@given(pastings())
@settings(max_examples=40, deadline=None)
def test_inverse_read_off_the_map_on_pastings(logic):
    assume(logic is not None)
    _assert_inverse_laws(logic, _some_automorphisms(logic))


@st.composite
def _reordered_booleans(draw):
    """A Boolean algebra on 1-5 atoms with its elements listed in a drawn
    order, so the order of its atom masks by element index is drawn too."""
    raw = boolean_algebra(draw(st.integers(1, 5)))
    order = draw(st.permutations(range(len(raw.labels))))
    new = {old: i for i, old in enumerate(order)}
    return validate_logic(LogicDescription(
        labels=tuple(raw.labels[old] for old in order),
        le_pairs=tuple((new[a], new[b]) for a, b in raw.le_pairs),
        ortho=tuple(new[raw.ortho[old]] for old in order),
        zero_index=new[raw.zero_index],
        one_index=new[raw.one_index],
    ))


@given(_reordered_booleans(), st.data())
@settings(max_examples=40, deadline=None)
def test_powerset_extension_matches_oracle_in_any_element_order(logic, data):
    # a powerset's extension reads each new mask as its own index among
    # the sorted masks; the oracle looks every mask up
    assert logic.is_boolean
    ext = _atom_extender(logic)
    k = len(logic.atoms)
    rows = data.draw(st.lists(st.permutations(range(k)).map(tuple),
                              min_size=1, max_size=12))
    got = ext.extend_many(rows)
    assert got == [extend_one(ext, r) for r in rows]
    assert all(t is not None for t in got)


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
