"""Acceptance suite: one test per criterion, each printing a PASS line.

Every check runs at its stated tolerance (exact rational equality for
the combinatorial calculus, explicit numeric tolerances for the matrix
model) and asserts its wall-clock budget.  Run with ``pytest -s
tests/test_acceptance.py`` to see the per-criterion lines.
"""

import contextlib
import io
import json
import time
from fractions import Fraction as F
from itertools import combinations

import numpy as np
import pytest

from oracles import classical_cross_check
from qlogic import hilbert as hb
from qlogic.builders import boolean_algebra, hexagon_o6, mo_logic
from qlogic.cli import main as cli_main
from qlogic.cloning import (
    CloneProblem,
    classical_cloner,
    clone_search,
    is_cloning_transformation,
    theorem1_certificate,
)
from qlogic.composite import boolean_product, check_lemma2, check_lemma3
from qlogic.core import validate_logic
from qlogic.errors import AxiomViolation, UndefinedTransition
from qlogic.morphisms import (
    _iter_atom_perms,
    automorphisms,
    check_lemma1a,
    check_lemma1b,
    validate_automorphism,
    validate_morphism,
)
from qlogic.states import (
    check_condition_G,
    conditional_probability,
    state_polytope,
    transition_probability,
)


def report(criterion, detail, elapsed, budget):
    print(f"PASS criterion {criterion}: {detail} ({elapsed:.2f}s, "
          f"budget {budget}s)")
    assert elapsed < budget, f"criterion {criterion} exceeded {budget}s"


@pytest.fixture(scope="module")
def products():
    return {
        2: boolean_product(validate_logic(boolean_algebra(2))),
        3: boolean_product(validate_logic(boolean_algebra(3))),
    }


def defined_pairs(logic):
    out = []
    for e1 in range(logic.n):
        if e1 == logic.zero:
            continue
        for e2 in range(logic.n):
            try:
                if transition_probability(logic, e2, e1).exists:
                    out.append((e1, e2))
            except UndefinedTransition:
                continue
    return out


# ---------------------------------------------------------------------------
# criterion 1: axiom gate
# ---------------------------------------------------------------------------

def test_criterion_1_axiom_gate():
    accepted = 0
    for desc in [boolean_algebra(k) for k in (1, 2, 3, 4)] + \
                [mo_logic(n) for n in (1, 2, 3)]:
        t0 = time.perf_counter()
        validate_logic(desc)
        single = time.perf_counter() - t0
        assert single < 1.0
        accepted += 1
    t0 = time.perf_counter()
    with pytest.raises(AxiomViolation) as err:
        validate_logic(hexagon_o6())
    single = time.perf_counter() - t0
    assert single < 1.0
    assert err.value.axiom == "E" and len(err.value.witness) == 2
    report(1, f"{accepted} logics accepted, hexagon rejected with "
              "orthomodular-law witness", single, 1.0)


# ---------------------------------------------------------------------------
# criterion 2: conditional-probability landscape
# ---------------------------------------------------------------------------

def test_criterion_2_unique_conditionals_landscape():
    worst = 0.0
    for k in (1, 2, 3, 4):
        logic = validate_logic(boolean_algebra(k))
        t0 = time.perf_counter()
        assert check_condition_G(logic).holds
        worst = max(worst, time.perf_counter() - t0)
        assert worst < 10.0
    mo2 = validate_logic(mo_logic(2))
    t0 = time.perf_counter()
    rep = check_condition_G(mo2)
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    assert not rep.holds and rep.failure_kind == "non_unique"
    w1, w2 = rep.witnesses
    assert w1 != w2 and w1[rep.element] == w2[rep.element] == F(1)
    for f in range(mo2.n):
        if mo2.leq[f, rep.element]:
            assert w1[f] == w2[f]
    report(2, "unique conditionals on the four Boolean fixtures, concrete "
              "non-uniqueness pair on the two-block lantern",
           max(worst, elapsed), 10.0)


# ---------------------------------------------------------------------------
# criterion 3: classical equivalence of conditioning
# ---------------------------------------------------------------------------

def test_criterion_3_classical_equivalence():
    t0 = time.perf_counter()
    checked = 0
    for k in (1, 2, 3, 4):
        logic = validate_logic(boolean_algebra(k))
        vertices = state_polytope(logic).vertices
        for v in vertices:
            for e in range(logic.n):
                if v[e] == 0:
                    continue
                res = conditional_probability(logic, v, e)
                assert res.kind == "unique"
                assert classical_cross_check(logic, v, e) == ()
                mu = res.state
                for f in range(logic.n):
                    meet = logic.inf(e, f)
                    assert mu[f] == v[meet] / v[e]
                    checked += 1
    elapsed = time.perf_counter() - t0
    report(3, f"{checked} exact classical-ratio identities across all "
              "Boolean fixtures", elapsed, 30.0)


# ---------------------------------------------------------------------------
# criterion 4: invariance of transitions under morphisms
# ---------------------------------------------------------------------------

def test_criterion_4_lemma1_suite():
    t0 = time.perf_counter()
    b1 = validate_logic(boolean_algebra(1))
    b2 = validate_logic(boolean_algebra(2))
    b3 = validate_logic(boolean_algebra(3))
    emb12 = [0] * b1.n
    emb12[b1.one] = b2.one
    emb23 = [0] * b2.n
    emb23[b2.one] = b3.one
    emb23[b2.index("x")] = b3.index("x")
    emb23[b2.index("y")] = b3.index("x'")
    morphisms = [
        validate_morphism(b1, b2, emb12),
        validate_morphism(b2, b3, emb23),
        validate_morphism(b2, b2, range(b2.n)),
        validate_morphism(b3, b3, range(b3.n)),
    ]
    autos2 = automorphisms(b2)
    autos3 = automorphisms(b3)
    assert len(autos3) == 6
    morphisms += autos2 + autos3
    pair_checks = 0
    for mor in morphisms:
        for e1, e2 in defined_pairs(mor.source):
            if mor.map[e1] == mor.target.zero:
                continue
            assert check_lemma1a(mor, e1, e2).holds
            pair_checks += 1
    atom_checks = 0
    for auto in autos2 + autos3:
        for f in auto.target.atoms:
            assert check_lemma1b(auto, f).holds
            atom_checks += 1
    elapsed = time.perf_counter() - t0
    report(4, f"transition invariance on {pair_checks} event pairs and "
              f"{atom_checks} atomic-state identities", elapsed, 10.0)


# ---------------------------------------------------------------------------
# criterion 5: the product identity for transitions
# ---------------------------------------------------------------------------

def test_criterion_5_lemma2_suite(products):
    t0 = time.perf_counter()
    total = 0
    for k in (2, 3):
        comp = products[k]
        defined = defined_pairs(comp.factor)
        for e1, e2 in defined:
            for f1, f2 in defined:
                assert check_lemma2(comp, e1, e2, f1, f2).holds
                total += 1
    elapsed = time.perf_counter() - t0
    report(5, f"product identity exact on {total} tuples over both "
              "Boolean products", elapsed, 60.0)


# ---------------------------------------------------------------------------
# criterion 6: the restriction equivalence
# ---------------------------------------------------------------------------

def test_criterion_6_lemma3_suite(products):
    t0 = time.perf_counter()
    total = 0
    for k in (2, 3):
        comp = products[k]
        verts = state_polytope(comp.ambient).vertices
        for rho in verts:
            for e in comp.factor.atoms:
                for f in comp.factor.atoms:
                    assert check_lemma3(comp, e, f, rho).holds
                    total += 1
    elapsed = time.perf_counter() - t0
    report(6, f"restriction equivalence exact on {total} "
              "(vertex, atom pair) triples", elapsed, 60.0)


# ---------------------------------------------------------------------------
# criterion 7: cloning certificates
# ---------------------------------------------------------------------------

def brute_force_cloners_small(problem):
    out = []
    for T in automorphisms(problem.composite.ambient):
        if is_cloning_transformation(problem, T):
            out.append(T.map)
    return out


def test_criterion_7_theorem1_certificates(products):
    t0 = time.perf_counter()

    # small product: the full 24-element group is filtered directly
    comp2 = products[2]
    autos2 = automorphisms(comp2.ambient)
    assert len(autos2) == 24
    problems2 = 0
    for size in (1, 2):
        for C in combinations(comp2.factor.atoms, size):
            for f in comp2.factor.atoms:
                problem = CloneProblem(comp2, C, f)
                rep = clone_search(problem)
                oracle = brute_force_cloners_small(problem)
                assert rep.orthogonal          # Boolean atoms are orthogonal
                assert (rep.cloner is not None) and oracle
                assert rep.cloner.map == oracle[0]
                assert rep.theorem_consistent
                explicit = classical_cloner(problem)
                assert validate_automorphism(
                    explicit.source, explicit.map) == explicit
                assert is_cloning_transformation(problem, explicit)
                assert theorem1_certificate(problem, explicit).holds
                problems2 += 1

    # big product: the group has 9! = 362880 automorphisms (each atom
    # permutation of a powerset extends uniquely); count the stream and
    # spot-check extensions, then search every clone problem in budget
    comp3 = products[3]
    ambient = comp3.ambient
    ext = None
    count = 0
    from qlogic.morphisms import _atom_extender
    extender = _atom_extender(ambient)
    for i, sigma in enumerate(_iter_atom_perms(ambient, budget=500_000)):
        count += 1
        if i % 50_000 == 0:
            auto = extender.extend(sigma)
            assert auto is not None
            assert auto.map[ambient.zero] == ambient.zero
    assert count == 362880

    problems3 = 0
    found3 = 0
    for size in (1, 2, 3):
        for C in combinations(comp3.factor.atoms, size):
            for f in comp3.factor.atoms:
                problem = CloneProblem(comp3, C, f)
                rep = clone_search(problem, budget=500_000)
                assert rep.orthogonal and rep.theorem_consistent
                assert rep.cloner is not None
                found3 += 1
                assert is_cloning_transformation(problem, rep.cloner)
                explicit = classical_cloner(problem)
                assert validate_automorphism(
                    explicit.source, explicit.map) == explicit
                assert is_cloning_transformation(problem, explicit)
                assert theorem1_certificate(problem, rep.cloner).holds
                problems3 += 1

    # non-orthogonal C cannot occur in a Boolean factor, so "never
    # otherwise" is carried by the consistency flag asserted above
    elapsed = time.perf_counter() - t0
    report(7, f"{problems2} problems over all 24 small-product "
              f"automorphisms, {problems3} problems over the 362880 "
              "big-product automorphisms, all certificates green",
           elapsed, 300.0)


# ---------------------------------------------------------------------------
# criterion 8: matrix-model cross checks
# ---------------------------------------------------------------------------

def test_criterion_8_hilbert_cross_checks():
    t0 = time.perf_counter()
    rng = np.random.default_rng(2024)

    # (a) trace rule equals the classical ratio on commuting triples
    for _ in range(300):
        dim = int(rng.integers(2, 5))
        w = rng.random(dim)
        a = hb.DensityOperator(np.diag(w / w.sum()))
        em = np.diag(rng.integers(0, 2, dim).astype(float))
        fm = np.diag(rng.integers(0, 2, dim).astype(float))
        if np.trace(a.matrix @ em).real <= 1e-9:
            continue
        e, f = hb.ProjectionOperator(em), hb.ProjectionOperator(fm)
        classical = (np.trace(a.matrix @ em @ fm) / np.trace(a.matrix @ em)).real
        assert abs(hb.trace_cond_prob(a, e, f) - classical) <= 1e-12

    # (b) rank-1 transitions equal the vector overlap, 1000 instances
    count_b = 0
    while count_b < 1000:
        dim = int(rng.integers(2, 5))
        xi = hb.random_unit_vector(rng, dim)
        rank = int(rng.integers(1, dim))
        f = hb.random_projection(rng, dim, rank)
        s = hb.transition_exists(xi.projector(), f)
        assert s is not None
        assert abs(s - hb.atom_transition(xi, f)) <= 1e-9
        count_b += 1

    # (c) the product identity on 1000 random rank-1 quadruples
    count_c = 0
    while count_c < 1000:
        dim = int(rng.integers(2, 5))
        ps = [hb.random_rank1_projection(rng, dim) for _ in range(4)]
        rep = hb.lemma2_matrix_check(*ps, tol=1e-9)
        assert rep.holds and rep.residual <= 1e-9
        count_c += 1

    # (d) the canonical witness pair
    zero = hb.basis_vector(2, 0)
    plus = hb.PureVector(np.array([1, 1]) / np.sqrt(2))
    wit = hb.no_cloning_witness(zero, plus)
    assert abs(wit.overlap - 0.5) <= 1e-12
    assert abs(wit.squared - 0.25) <= 1e-12
    assert not wit.cloneable

    elapsed = time.perf_counter() - t0
    report(8, "trace-rule, rank-1 transition, product-identity and "
              "witness checks all inside tolerance", elapsed, 60.0)


# ---------------------------------------------------------------------------
# criterion 9: determinism of machine-readable reports
# ---------------------------------------------------------------------------

def _machine(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli_main(argv + ["--format", "json"])
    return code, buf.getvalue()


def test_criterion_9_determinism(tmp_path, products):
    t0 = time.perf_counter()
    from qlogic.fixtures import load_fixture

    paths = {}
    for name in ("O6", "MO2", "boolean3", "prod22"):
        p = tmp_path / f"{name}.json"
        with open(p, "w", encoding="utf-8") as fh:
            json.dump(load_fixture(name).data, fh, indent=2)
        paths[name] = str(p)

    invocations = [
        ["validate", paths["O6"]],
        ["validate", paths["boolean3"]],
        ["atoms", paths["boolean3"]],
        ["states", paths["MO2"]],
        ["check", "F", paths["MO2"]],
        ["check", "G", paths["MO2"]],
        ["check", "H", paths["MO2"]],
        ["transprob", paths["MO2"], "b", "a"],
        ["compat", paths["MO2"], "--members", "a,b"],
        ["autos", paths["boolean3"]],
        ["check-I", paths["prod22"]],
        ["check-J", paths["prod22"]],
        ["lemma2", paths["prod22"]],
        ["lemma3", paths["prod22"]],
        ["clone-search", "--composite", paths["prod22"],
         "--C", "x,y", "--f", "x"],
        ["certify-theorem1", "--composite", paths["prod22"],
         "--C", "x,y", "--f", "x"],
        ["hilbert", "no-cloning", "--xi1", "1,0",
         "--xi2", "0.7071067811865476,0.7071067811865476"],
        ["hilbert", "lemma2", "--dim", "3", "--trials", "50", "--seed", "9"],
    ]
    for argv in invocations:
        first = _machine(argv)
        second = _machine(argv)
        assert first == second, f"nondeterministic output for {argv}"

    # library-level reports repeat identically as well
    rep_a = clone_search(CloneProblem(products[2],
                                      [products[2].factor.atoms[0]],
                                      products[2].factor.atoms[0]))
    rep_b = clone_search(CloneProblem(products[2],
                                      [products[2].factor.atoms[0]],
                                      products[2].factor.atoms[0]))
    assert rep_a.cloner.map == rep_b.cloner.map
    assert rep_a.pairwise == rep_b.pairwise
    elapsed = time.perf_counter() - t0
    report(9, f"{len(invocations)} machine-readable invocations "
              "byte-identical across repeated runs", elapsed, 120.0)
