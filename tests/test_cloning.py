"""Cloning transformations, the explicit classical cloner, the search."""

from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    clone_scan,
    definition_on_atomic_states,
    definition_on_vertices,
)
from qlogic.builders import boolean_algebra, mo_logic
from qlogic.cloning import (
    CloneProblem,
    classical_cloner,
    clone_search,
    is_cloning_transformation,
    theorem1_certificate,
)
from qlogic.composite import boolean_product, make_composite, meet_embed
from qlogic.core import validate_logic
from qlogic.errors import (
    LogicInputError,
    PreconditionFailed,
    SearchBudgetExceeded,
)
from qlogic.fixtures import load_fixture
from qlogic.morphisms import (
    _atom_extender,
    automorphisms,
    validate_automorphism,
)


@pytest.fixture(scope="module")
def prod22():
    return boolean_product(validate_logic(boolean_algebra(2)))


@pytest.fixture(scope="module")
def prod33():
    return load_fixture("prod33").composite()


@pytest.fixture(scope="module")
def prod11():
    return boolean_product(validate_logic(boolean_algebra(1)))


def identity_auto(logic):
    return validate_automorphism(logic, list(range(logic.n)))


# ---------------------------------------------------------------------------
# problem construction
# ---------------------------------------------------------------------------

def test_problem_requires_atoms(prod22):
    factor = prod22.factor
    with pytest.raises(PreconditionFailed):
        CloneProblem(prod22, [factor.one], factor.atoms[0])
    with pytest.raises(PreconditionFailed):
        CloneProblem(prod22, [], factor.atoms[0])


def test_problem_rejects_incompatible_composite():
    mo2 = validate_logic(mo_logic(2))
    comp = make_composite(mo2, mo2, range(mo2.n), range(mo2.n))
    with pytest.raises(PreconditionFailed):
        CloneProblem(comp, [mo2.index("a")], mo2.index("b"))


# ---------------------------------------------------------------------------
# the cloning definition
# ---------------------------------------------------------------------------

def test_identity_clones_the_blank_state(prod22):
    factor = prod22.factor
    x = factor.atoms[0]
    problem = CloneProblem(prod22, [x], x)
    assert is_cloning_transformation(problem, identity_auto(prod22.ambient))


def test_identity_fails_for_other_inputs(prod22):
    factor = prod22.factor
    x, y = factor.atoms
    problem = CloneProblem(prod22, [y], x)
    assert not is_cloning_transformation(problem, identity_auto(prod22.ambient))


def _assert_criteria_agree(problem, T):
    """The library's criterion against the definition on the atomic
    states and on every polytope vertex; returns the common verdict."""
    verdict = is_cloning_transformation(problem, T)
    assert definition_on_atomic_states(problem, T) == verdict
    assert definition_on_vertices(problem, T) == verdict
    return verdict


def test_atomic_and_vertex_routes_agree_on_all_automorphisms(prod22):
    factor = prod22.factor
    x, y = factor.atoms
    problem = CloneProblem(prod22, [x, y], x)
    verdicts = [_assert_criteria_agree(problem, T)
                for T in automorphisms(prod22.ambient)]
    assert True in verdicts and False in verdicts


@st.composite
def _prod33_cases(draw):
    """A clone problem on prod33 and an atom permutation of its ambient;
    about half the permutations are repaired to send each copied meet
    atom to its input meet atom, so cloners are drawn as well."""
    atoms = draw(st.permutations(range(3)))
    C = tuple(atoms[:draw(st.integers(1, 3))])
    f = draw(st.integers(0, 2))
    sigma = draw(st.permutations(range(9)))
    return C, f, sigma, draw(st.booleans())


@given(_prod33_cases())
@settings(max_examples=20, deadline=None)
def test_criteria_agree_on_prod33_atom_permutations(prod33, case):
    C, f, sigma, repair = case
    factor, ambient = prod33.factor, prod33.ambient
    problem = CloneProblem(prod33, [factor.atoms[i] for i in C],
                           factor.atoms[f])
    sigma = list(sigma)
    if repair:
        pos = {a: i for i, a in enumerate(ambient.atoms)}
        for e in problem.C:
            i = pos[problem.copied_atom[e]]
            j = sigma.index(pos[problem.input_atom[e]])
            sigma[i], sigma[j] = sigma[j], sigma[i]
    T = _atom_extender(ambient).extend(tuple(sigma))
    verdict = _assert_criteria_agree(problem, T)
    assert verdict or not repair


def test_foreign_automorphism_is_input_error(prod22):
    x = prod22.factor.atoms[0]
    problem = CloneProblem(prod22, [x], x)
    with pytest.raises(LogicInputError):
        is_cloning_transformation(problem, identity_auto(prod22.factor))


# ---------------------------------------------------------------------------
# classical cloner
# ---------------------------------------------------------------------------

def checked_classical_cloner(problem):
    """The library's classical cloner, checked to be an automorphism of
    the ambient and a cloning transformation."""
    T = classical_cloner(problem)
    ambient = problem.composite.ambient
    assert validate_automorphism(ambient, T.map) == T
    assert is_cloning_transformation(problem, T)
    return T


def test_classical_cloner_swaps_expected_atoms(prod22):
    factor, ambient = prod22.factor, prod22.ambient
    x, y = factor.atoms
    problem = CloneProblem(prod22, [x, y], x)
    T = checked_classical_cloner(problem)
    # (y,x) <-> (y,y) swapped; (x,x) pairs with itself and stays fixed
    yx = meet_embed(prod22, y, x)
    yy = meet_embed(prod22, y, y)
    xx = meet_embed(prod22, x, x)
    assert T.map[yy] == yx and T.map[yx] == yy
    assert T.map[xx] == xx


def test_classical_cloner_blank_only_is_identity(prod22):
    factor = prod22.factor
    x = factor.atoms[0]
    problem = CloneProblem(prod22, [x], x)
    T = checked_classical_cloner(problem)
    assert T.map == tuple(range(prod22.ambient.n))


def test_classical_cloner_two_element_factor(prod11):
    factor = prod11.factor
    problem = CloneProblem(prod11, [factor.one], factor.one)
    T = checked_classical_cloner(problem)
    assert T.map == tuple(range(prod11.ambient.n))


# ---------------------------------------------------------------------------
# exhaustive search
# ---------------------------------------------------------------------------

def brute_force_cloners(problem):
    """Oracle: filter the full group by the definition on polytope
    vertices, with no pre-filter."""
    found = []
    for T in automorphisms(problem.composite.ambient):
        if definition_on_vertices(problem, T):
            found.append(T.map)
    return found


def test_clone_search_finds_first_cloner(prod22):
    factor = prod22.factor
    x, y = factor.atoms
    problem = CloneProblem(prod22, [x, y], x)
    report = clone_search(problem)
    assert report.cloner is not None
    assert report.orthogonal and report.theorem_consistent
    oracle = brute_force_cloners(problem)
    assert report.cloner.map == oracle[0]
    off_diag = [tp for pair, tp in report.pairwise.items()
                if pair[0] != pair[1]]
    assert all(tp.exists and tp.value == 0 for tp in off_diag)


def test_clone_search_single_atom(prod22):
    factor = prod22.factor
    x = factor.atoms[0]
    problem = CloneProblem(prod22, [x], x)
    report = clone_search(problem)
    assert report.cloner is not None
    assert report.orthogonal  # vacuous for a singleton
    assert report.theorem_consistent


def test_search_matches_oracle_for_every_problem(prod22):
    factor = prod22.factor
    x, y = factor.atoms
    for C in ([x], [y], [x, y]):
        for f in (x, y):
            problem = CloneProblem(prod22, C, f)
            report = clone_search(problem)
            oracle = brute_force_cloners(problem)
            assert (report.cloner is not None) == bool(oracle)
            if oracle:
                assert report.cloner.map == oracle[0]
            assert report.theorem_consistent


def _all_problems(comp):
    atoms = comp.factor.atoms
    return [CloneProblem(comp, C, f)
            for size in range(1, len(atoms) + 1)
            for C in combinations(atoms, size) for f in atoms]


def test_search_matches_oracle_scan_on_every_product_problem(prod22, prod33):
    # 6 problems on prod22 and 21 on prod33; |C| = 1 compares scalars
    problems = _all_problems(prod22) + _all_problems(prod33)
    assert len(problems) == 27
    for problem in problems:
        report = clone_search(problem)
        scanned, cloner = clone_scan(
            problem, _atom_extender(problem.composite.ambient), 10 ** 9)
        assert report.scanned == scanned
        assert report.cloner is not None
        assert report.cloner.map == cloner.map


def test_clone_search_budget(prod22):
    factor = prod22.factor
    x, y = factor.atoms
    problem = CloneProblem(prod22, [y], x)
    with pytest.raises(SearchBudgetExceeded):
        clone_search(problem, budget=1)


# ---------------------------------------------------------------------------
# the impossibility certificate
# ---------------------------------------------------------------------------

def test_certificate_on_orthogonal_pair(prod22):
    factor = prod22.factor
    x, y = factor.atoms
    problem = CloneProblem(prod22, [x, y], x)
    cert = theorem1_certificate(problem)
    assert cert.holds
    by_pair = {p.pair: p for p in cert.pairs}
    assert by_pair[(x, x)].transition == 1
    assert by_pair[(x, y)].transition == 0
    for p in cert.pairs:
        assert p.direct == p.transition
        assert p.pulled_back == p.transition ** 2
        assert p.idempotent


def test_certificate_requires_cloner(prod22):
    factor = prod22.factor
    x, y = factor.atoms
    problem = CloneProblem(prod22, [y], x)
    ident = identity_auto(prod22.ambient)
    with pytest.raises(PreconditionFailed):
        theorem1_certificate(problem, ident)
