"""Slow reference implementations that the tests compare the library
against.  Nothing under ``src/`` calls them."""

from fractions import Fraction
from functools import partial
from itertools import permutations

import numpy as np

from qlogic.cloning import CertificatePair
from qlogic.compat import (
    CompatibilityVerdict,
    closure,
    is_boolean_subalgebra,
    is_compatible_subset,
)
from qlogic.core import _bool_matmul
from qlogic.composite import check_lemma3
from qlogic.errors import (
    AxiomViolation,
    CertificateFailed,
    EmptyStateSpace,
    SearchBudgetExceeded,
    VertexBudgetExceeded,
)
from qlogic.morphisms import Automorphism, dual_state
from qlogic.rational_lp import LPResult, Polyhedron, enumerate_vertices_basis
from qlogic.states import (
    ConditionalResult,
    FaithfulnessReport,
    StrongStateSpaceReport,
    TransitionProbability,
    UniqueConditionalsReport,
    _atom_ranges,
    _conditional_rows,
    _polytope_vertices,
    _uniqueness_gap,
    atomic_state,
    reduced_space,
    state_polytope,
)

ZERO = Fraction(0)
ONE = Fraction(1)


def transitive_closure_matmul(n, pairs):
    """The reflexive-transitive closure by repeated squaring of the order
    matrix through a float32 matmul, until nothing changes: the
    reference for ``core.transitive_closure``."""
    leq = np.zeros((n, n), dtype=bool)
    leq[np.diag_indices(n)] = True
    for i, j in pairs:
        leq[i, j] = True
    while True:
        new = leq | _bool_matmul(leq, leq)
        if np.array_equal(new, leq):
            return leq
        leq = new


def find_sup(leq, e, f):
    """Unique least upper bound of e and f in the order matrix, or None:
    the upper bound that lies below every other one."""
    cands = np.flatnonzero(leq[e] & leq[f])
    if cands.size == 0:
        return None
    sub = leq[np.ix_(cands, cands)]
    hits = np.flatnonzero(sub.all(axis=1))
    return int(cands[hits[0]]) if hits.size else None


def find_inf(leq, e, f):
    """Unique greatest lower bound of e and f, or None."""
    cands = np.flatnonzero(leq[:, e] & leq[:, f])
    if cands.size == 0:
        return None
    sub = leq[np.ix_(cands, cands)]
    hits = np.flatnonzero(sub.all(axis=0))
    return int(cands[hits[0]]) if hits.size else None


def is_boolean_lattice(leq):
    """Every pair has a ``find_inf`` and a ``find_sup``, and meets
    distribute over joins for all triples.  Under an orthocomplement with
    0 and 1, that is Boolean-ness: the reference for the mask test
    ``core.is_powerset`` behind ``FiniteLogic.is_boolean`` and
    ``compat.is_boolean_subalgebra``."""
    n = len(leq)
    meet = [[find_inf(leq, a, b) for b in range(n)] for a in range(n)]
    join = [[find_sup(leq, a, b) for b in range(n)] for a in range(n)]
    if any(None in row for row in meet + join):
        return False
    return all(meet[a][join[b][c]] == join[meet[a][b]][meet[a][c]]
               for a in range(n) for b in range(n) for c in range(n))


def check_axioms_cde(logic):
    """Axioms (C)-(E) by a pair scan with one bound search per pair: the
    reference for the first witness and message that
    ``validate_logic`` reports from its join table."""
    n, leq, ortho, labels = logic.n, logic.leq, logic.ortho, logic.labels
    sups = {}
    for e in range(n):
        for f in range(n):
            if not leq[e, ortho[f]]:
                continue
            s = find_sup(leq, e, f)
            if s is None:
                raise AxiomViolation(
                    "C", (e, f),
                    f"orthogonal pair {labels[e]!r}, {labels[f]!r} has no supremum",
                )
            sups[(e, f)] = s
    for e in range(n):
        s = sups[(e, int(ortho[e]))]
        if s != logic.one:
            raise AxiomViolation(
                "D", (e,),
                f"{labels[e]!r} v {labels[ortho[e]]!r} is {labels[s]!r}, not the unit",
            )
    for f in range(n):
        for e in range(n):
            if not leq[f, e]:
                continue
            m = find_inf(leq, e, int(ortho[f]))
            if m is None:
                raise AxiomViolation(
                    "E", (e, f),
                    f"{labels[e]!r} ^ {labels[ortho[f]]!r} does not exist "
                    f"although {labels[f]!r} <= {labels[e]!r}",
                )
            j = find_sup(leq, f, m)
            if j != e:
                got = "nothing" if j is None else repr(labels[j])
                raise AxiomViolation(
                    "E", (e, f),
                    f"{labels[f]!r} v ({labels[e]!r} ^ {labels[ortho[f]]!r}) "
                    f"is {got}, expected {labels[e]!r}",
                )


def _pivot(T, basis, row, col):
    """One Gauss-Jordan step on a ``Fraction`` tableau: scale row to a
    unit pivot in col, then clear col from every other row (zero
    entries of the pivot row are skipped: the tableaux are sparse)."""
    inv = ONE / T[row][col]
    T[row] = [v * inv if v else v for v in T[row]]
    for i in range(len(T)):
        if i != row and T[i][col] != 0:
            factor = T[i][col]
            T[i] = [a - factor * b if b else a for a, b in zip(T[i], T[row])]
    basis[row] = col


def _simplex(T, basis, ncols):
    """Minimize with Bland's rule; T[-1] holds the reduced costs."""
    m = len(T) - 1
    while True:
        obj = T[-1]
        col = next((j for j in range(ncols) if obj[j] < 0), None)
        if col is None:
            return "optimal"
        best_row, best_ratio = None, None
        for i in range(m):
            a = T[i][col]
            if a > 0:
                ratio = T[i][-1] / a
                if (best_ratio is None or ratio < best_ratio
                        or (ratio == best_ratio and basis[i] < basis[best_row])):
                    best_row, best_ratio = i, ratio
        if best_row is None:
            return "unbounded"
        _pivot(T, basis, best_row, col)


def _rows(A):
    """The rows of a system matrix as lists of Python numbers: an array
    (``ReducedStateSpace.system`` returns one) through ``tolist``."""
    return A.tolist() if isinstance(A, np.ndarray) else A


class FractionPolyhedron:
    """The two-phase simplex of ``rational_lp.Polyhedron`` on a
    ``Fraction`` tableau with unit artificial columns: the reference the
    fraction-free tableau must match pivot for pivot."""

    def __init__(self, A, b):
        A = [[Fraction(x) for x in row] for row in _rows(A)]
        b = [Fraction(v) for v in b]
        m, n = len(A), len(A[0]) if A else 0
        T = []
        for i in range(m):
            row, rhs = list(A[i]), b[i]
            if rhs < 0:
                row, rhs = [-v for v in row], -rhs
            art = [ZERO] * m
            art[i] = ONE
            T.append(row + art + [rhs])
        obj = [ZERO] * (n + m + 1)
        for i in range(m):
            for j in range(n + m + 1):
                obj[j] -= T[i][j]
            obj[n + i] += ONE
        T.append(obj)
        basis = [n + i for i in range(m)]
        status = _simplex(T, basis, n + m)
        self.feasible = status == "optimal" and T[-1][-1] == 0
        self.rows, self.basis = [], []
        if not self.feasible:
            return
        drop = []
        for i in range(m):
            if basis[i] >= n:
                col = next((j for j in range(n) if T[i][j] != 0), None)
                if col is None:
                    drop.append(i)
                else:
                    _pivot(T, basis, i, col)
        for i in sorted(drop, reverse=True):
            del T[i]
            del basis[i]
        self.rows = [row[:n] + [row[-1]] for row in T[:-1]]
        self.basis = basis

    def solve(self, c, maximize=False) -> LPResult:
        if not self.feasible:
            return LPResult("infeasible")
        c = [Fraction(v) for v in c]
        if maximize:
            c = [-v for v in c]
        n = len(c)
        basis = list(self.basis)
        obj = list(c) + [ZERO]
        for i, bv in enumerate(basis):
            if obj[bv] != 0:
                factor = obj[bv]
                obj = [a - factor * v for a, v in zip(obj, self.rows[i])]
        rows = [list(r) for r in self.rows] + [obj]
        if _simplex(rows, basis, n) == "unbounded":
            return LPResult("unbounded")
        x = [ZERO] * n
        for i, bv in enumerate(basis):
            x[bv] = rows[i][-1]
        value = sum(ci * xi for ci, xi in zip(c, x))
        if maximize:
            value = -value
        return LPResult("optimal", value, tuple(x))


def decompositions(logic):
    """The atom decompositions as ``states.ReducedStateSpace.counts``
    holds them, peeled one element at a time with ``find_inf``: row e
    has a 1 at every atom position in the decomposition of e."""
    leq, ortho, atoms = logic.leq, logic.ortho, logic.atoms
    counts = np.zeros((logic.n, len(atoms)), dtype=int)
    for e in range(logic.n):
        r = e
        while r != logic.zero:
            i = next(i for i, a in enumerate(atoms) if leq[a, r])
            counts[e, i] += 1
            r = find_inf(leq, r, int(ortho[atoms[i]]))
    return counts


def additivity_rows(logic):
    """The additivity rows of ``states.ReducedStateSpace`` rebuilt from
    the definition: one row s - e - f over the ``decompositions`` per
    orthogonal pair e, f with join s found by ``find_sup``; deduplicated
    and sorted."""
    leq, ortho = logic.leq, logic.ortho
    counts = decompositions(logic).tolist()
    rows = set()
    for e in range(logic.n):
        for f in range(e, logic.n):
            if not leq[e, ortho[f]]:
                continue
            s = counts[find_sup(leq, e, f)]
            coeffs = tuple(a - b - c for a, b, c in zip(s, counts[e], counts[f]))
            if any(coeffs):
                rows.add(coeffs)
    return sorted(rows)


def uniqueness_gap(space, e):
    """The library's two-state gap search without its combinatorial
    pre-test: over the doubled system (two states with value 1 on e that
    agree on the atoms below e), maximize mu1_a - mu2_a for every atom a
    not below e in turn; the first positive optimum is the gap."""
    logic, k = space.logic, space.k
    A, b = [], []
    base_A, base_b = space.system(space.face_rows(e))
    for row, rhs in zip(_rows(base_A), base_b):
        A += [row + [0] * k, [0] * k + row]
        b += [rhs, rhs]
    free = []
    for i, a in enumerate(space.atoms):
        if logic.leq[a, e]:
            row = [0] * (2 * k)
            row[i], row[k + i] = 1, -1
            A.append(row)
            b.append(0)
        else:
            free.append(i)
    doubled = Polyhedron(A, b)
    for i in free:
        obj = [0] * (2 * k)
        obj[i], obj[k + i] = 1, -1
        res = doubled.solve(obj, maximize=True)
        if res.optimal and res.value > 0:
            return space.state(res.x[:k]), space.state(res.x[k:])
    return None


def vertices_lp(logic, budget=100_000):
    """The extreme states by basis enumeration over a new base
    polyhedron: the LP path of ``states.state_polytope``, and the
    reference for the point masses it lists on a powerset."""
    space = reduced_space(logic)
    poly = Polyhedron(*space.system())
    return tuple(map(space.state, enumerate_vertices_basis(poly, budget)))


def faithful_lp(logic):
    """Condition (F) by one phase-2 LP per nonzero element over a new base
    polyhedron, maximizing its value; the witness is the uniform average
    of the maximizers.  The LP path of ``states.check_condition_F``."""
    space = reduced_space(logic)
    poly = Polyhedron(*space.system())
    if not poly.feasible:
        raise EmptyStateSpace("no state exists, so no faithful state exists")
    maximizers = []
    for e in range(logic.n):
        if e == logic.zero:
            continue
        res = poly.solve(space.indicator(e), maximize=True)
        if res.value == 0:
            return FaithfulnessReport(holds=False, failing_element=e)
        maximizers.append(res.x)
    avg = [sum(p[i] for p in maximizers) / len(maximizers)
           for i in range(space.k)]
    return FaithfulnessReport(holds=True, witness=space.state(avg))


def conditional_lp(logic, base, e):
    """The conditionals of ``base`` on e by LP: each atom value minimized
    and maximized over a new conditional system.  The LP path of
    ``states.conditional_probability``."""
    space = reduced_space(logic)
    poly = Polyhedron(*space.system(_conditional_rows(space, base, e)))
    if not poly.feasible:
        return ConditionalResult("non_existent", e, base)
    p, gap = _atom_ranges(space, poly)
    if gap is None:
        return ConditionalResult("unique", e, base, state=space.state(p))
    _, lo, hi = gap
    return ConditionalResult("non_unique", e, base,
                             witnesses=(space.state(lo.x), space.state(hi.x)))


def lemma3_per_tuple(comp, rhos, pairs):
    """``check_lemma3`` on every (e, f, rho), rho the outer loop: the
    reference for ``composite.lemma3_sweep``."""
    for rho in rhos:
        for e, f in pairs:
            check_lemma3(comp, e, f, rho)
    return len(rhos) * len(pairs)


def transition_per_call(logic, f, e):
    """P(f|e) as ``states.transition_probability`` computed it before
    faces were stored: a new face polyhedron value(e) = 1, with its own
    phase 1, for every call; None when no state concentrates on e."""
    space = reduced_space(logic)
    face = Polyhedron(*space.system(space.face_rows(e)))
    obj = space.indicator(f)
    lo = face.solve(obj)
    if not lo.optimal:
        return None
    hi = face.solve(obj, maximize=True)
    return TransitionProbability(
        exists=lo.value == hi.value,
        value=lo.value if lo.value == hi.value else None,
        low=lo.value, high=hi.value,
    )


def atomic_state_per_call(logic, e):
    """The atomic state of e by LP on a new face polyhedron value(e) = 1:
    each atom value minimized and maximized; None when the face is
    empty or not a single point."""
    space = reduced_space(logic)
    face = Polyhedron(*space.system(space.face_rows(e)))
    if not face.feasible:
        return None
    p, gap = _atom_ranges(space, face)
    return None if gap is not None else space.state(p)


def pairwise_table_per_call(problem):
    """``CloneReport.pairwise``: P(e2|e1) for every pair of C, one LP
    ``transition_per_call`` each."""
    factor = problem.composite.factor
    return {(e1, e2): transition_per_call(factor, e2, e1)
            for e1 in problem.C for e2 in problem.C}


def certificate_rows_per_call(problem, T):
    """The rows of ``theorem1_certificate`` asked pair by pair through
    ``transition_per_call``, raising ``CertificateFailed`` at the first
    pair that does not square."""
    comp = problem.composite
    factor, ambient = comp.factor, comp.ambient
    rows = []
    for e1 in problem.C:
        for e2 in problem.C:
            s = transition_per_call(factor, e2, e1)
            direct = transition_per_call(
                ambient, problem.input_atom[e2], problem.input_atom[e1])
            pulled = transition_per_call(
                ambient, problem.copied_atom[e2], problem.copied_atom[e1])
            if not (s.exists and direct.exists and pulled.exists
                    and direct.value == s.value == pulled.value
                    and pulled.value == s.value * s.value):
                raise CertificateFailed(f"pair {(e1, e2)}")
            rows.append(CertificatePair(
                pair=(e1, e2), transition=s.value, direct=direct.value,
                pulled_back=pulled.value, idempotent=s.value in (0, 1)))
    return tuple(rows)


def unique_conditionals_per_vertex(logic, budget=100_000):
    """Condition (G) as ``states.check_condition_G`` decided it before it
    read the stored face of an atom: the existence test builds the
    conditional system of every vertex v with v[e] != 0 anew, for atoms
    as for every other element."""
    space = reduced_space(logic)
    verts = _polytope_vertices(logic, budget)
    for e in range(logic.n):
        if e == logic.zero or all(v[e] == 0 for v in verts):
            continue
        if not logic.is_boolean:
            for v in verts:
                if v[e] != 0 and not space.feasible(
                        _conditional_rows(space, v, e)):
                    return UniqueConditionalsReport(
                        holds=False, failure_kind="non_existent",
                        element=e, vertex=v,
                    )
        gap = _uniqueness_gap(space, e)
        if gap is not None:
            return UniqueConditionalsReport(
                holds=False, failure_kind="non_unique",
                element=e, witnesses=gap,
            )
    return UniqueConditionalsReport(holds=True)


def strong_state_space(logic, budget=100_000, verts=None):
    """Condition (H) by a double loop over element pairs on per-element
    vertex bitmasks: the first (f, e) in row-major order with f not
    below e whose mask of value-1 vertices is inside e's, with the last
    such vertex of f as evidence.  The vertices are ``verts`` if given,
    else the library's."""
    if verts is None:
        try:
            verts = state_polytope(logic, budget).vertices
        except EmptyStateSpace:
            verts = ()
    ones = []
    for e in range(logic.n):
        ones.append(sum(1 << vi for vi, v in enumerate(verts) if v[e] == 1))
    vacuous = tuple(f for f in range(logic.n) if ones[f] == 0)
    for f in range(logic.n):
        if ones[f] == 0:
            continue
        for e in range(logic.n):
            if not logic.leq[f, e] and ones[f] & ~ones[e] == 0:
                return StrongStateSpaceReport(
                    holds=False, violating_pair=(e, f),
                    evidence=verts[ones[f].bit_length() - 1],
                    vacuous_premises=vacuous,
                )
    return StrongStateSpaceReport(holds=True, vacuous_premises=vacuous)


def enumerate_vertices_dd(A, b, budget=100_000):
    """Vertices of {0 <= x <= 1, A x = b} by double description.

    Valid for state polytopes, where 0 <= x <= 1 is implied by the
    equality system; starts from the unit box and cuts one halfspace at
    a time, so the variable count must stay small.
    """
    A = [[Fraction(x) for x in row] for row in _rows(A)]
    b = [Fraction(v) for v in b]
    n = len(A[0]) if A else 0
    if n > 16:
        raise VertexBudgetExceeded(f"double description limited to 16 vars, got {n}")

    # constraints as (coeffs, rhs) meaning coeffs . x <= rhs
    cons = []
    for j in range(n):
        row = [ZERO] * n
        row[j] = -ONE
        cons.append((tuple(row), ZERO))          # -x_j <= 0
        row2 = [ZERO] * n
        row2[j] = ONE
        cons.append((tuple(row2), ONE))          # x_j <= 1
    for row, rhs in zip(A, b):
        cons.append((tuple(Fraction(v) for v in row), Fraction(rhs)))
        cons.append((tuple(-Fraction(v) for v in row), -Fraction(rhs)))

    verts = []
    for mask in range(1 << n):
        v = tuple(ONE if mask >> j & 1 else ZERO for j in range(n))
        verts.append(v)

    def tight_set(v, upto):
        return frozenset(
            i for i in range(upto)
            if sum(c * x for c, x in zip(cons[i][0], v)) == cons[i][1]
        )

    for ci in range(2 * n, len(cons)):
        coeffs, rhs = cons[ci]
        vals = [sum(c * x for c, x in zip(coeffs, v)) - rhs for v in verts]
        keep = [v for v, val in zip(verts, vals) if val <= 0]
        new_pts = set()
        pos = [(v, val) for v, val in zip(verts, vals) if val > 0]
        neg = [(v, val) for v, val in zip(verts, vals) if val < 0]
        if pos and neg:
            tights = {v: tight_set(v, ci) for v, _ in pos + neg}
            all_pts = [v for v, _ in pos + neg] + [
                v for v, val in zip(verts, vals) if val == 0
            ]
            tight_all = {v: tight_set(v, ci) for v in all_pts}
            for (u, du) in pos:
                for (w, dw) in neg:
                    common = tights[u] & tights[w]
                    # adjacency: no third generator is tight on the common set
                    adjacent = True
                    for v in all_pts:
                        if v is u or v is w:
                            continue
                        if common <= tight_all[v]:
                            adjacent = False
                            break
                    if not adjacent:
                        continue
                    t = du / (du - dw)
                    pt = tuple(a + t * (bb - a) for a, bb in zip(u, w))
                    new_pts.add(pt)
        verts = keep + sorted(new_pts - set(keep))
        if len(verts) > budget:
            raise VertexBudgetExceeded(
                f"{len(verts)} intermediate vertices exceed the budget {budget}"
            )
        if not verts:
            return []
    return sorted(set(verts))


def definition_on_vertices(problem, T) -> bool:
    """The cloning definition swept over the ambient polytope vertices:
    the slow reference the atomic-state reduction is tested against."""
    comp = problem.composite
    targets = set(problem.factor_state.values())
    poly = state_polytope(comp.ambient)
    for rho in poly.vertices:
        first = dual_state(comp.pi1, rho)
        if first not in targets:
            continue
        if dual_state(comp.pi2, rho) != problem.blank_state:
            continue
        pulled = dual_state(T, rho)
        if dual_state(comp.pi1, pulled) != first:
            return False
        if dual_state(comp.pi2, pulled) != first:
            return False
    return True


def definition_on_atomic_states(problem, T) -> bool:
    """The cloning definition on the atomic states of the input meet
    atoms: pulled back along T, each must restrict to the atomic state
    of e on both factors.  The library decides by the criterion that the
    automorphism sends each copied meet atom to the input meet atom
    instead; Lemma 1(b) says the two agree."""
    comp = problem.composite
    for e in problem.C:
        rho = atomic_state(comp.ambient, problem.input_atom[e])
        pulled = dual_state(T, rho)
        want = problem.factor_state[e]
        if dual_state(comp.pi1, pulled) != want:
            return False
        if dual_state(comp.pi2, pulled) != want:
            return False
    return True


def compatibility_search_unpruned(logic, members, budget=10 ** 6):
    """The index-order depth-first search of closed sets from the closure
    of the members, expanding every candidate that is not Boolean: the
    reference for ``compat.is_compatible_subset``, which reads its
    witness off the blocks and agrees except where the splitting block
    has five or more atoms."""
    if logic.is_boolean:
        return CompatibilityVerdict(True, frozenset(range(logic.n)))
    base = closure(logic, members)
    seen, stack, nodes = {base}, [(base, 0)], 0
    while stack:
        current, start = stack.pop()
        nodes += 1
        if nodes > budget:
            raise SearchBudgetExceeded(
                f"compatibility search examined {nodes} candidate sets")
        if is_boolean_subalgebra(logic, current):
            return CompatibilityVerdict(True, current)
        for x in range(logic.n - 1, start - 1, -1):
            if x in current:
                continue
            child = closure(logic, current | {x})
            if child not in seen:
                seen.add(child)
                stack.append((child, x + 1))
    return CompatibilityVerdict(False, None)


def mutually_compatible_by_subsets(logic, s1, s2, budget=10 ** 6):
    """Condition I by enumeration: every compatible subset of each side,
    grown only from compatible ones, and the unions of the maximal ones,
    each decided by the unpruned search: the reference for
    ``compat.mutually_compatible``."""
    def compatible(members):
        return compatibility_search_unpruned(logic, members,
                                             budget).compatible

    def maximal_compatible_subsets(members):
        members = sorted(members)
        found = []

        def grow(current, start):
            found.append(current)
            for i in range(start, len(members)):
                if compatible(current | {members[i]}):
                    grow(current | {members[i]}, i + 1)

        grow(frozenset(), 0)
        return [a for a in found if not any(a < b for b in found)]

    return all(compatible(a | b)
               for a in maximal_compatible_subsets(s1)
               for b in maximal_compatible_subsets(s2))


def maximal_orthogonal_atom_sets(logic):
    """Every maximal set of pairwise orthogonal atoms, as a mask over
    ``logic.atoms``, in increasing order, found by testing every subset
    of the atoms: the reference for ``compat.blocks``."""
    k = len(logic.atoms)
    orth = [[logic.orthogonal(a, b) for b in logic.atoms] for a in logic.atoms]
    cliques = [m for m in range(1 << k)
               if all(orth[i][j] for i in range(k) for j in range(i)
                      if m >> i & 1 and m >> j & 1)]
    return tuple(m for m in cliques
                 if not any(c != m and c & m == m for c in cliques))


def boolean_meet(logic, subalgebra, e, f):
    """Greatest lower bound of e and f inside a Boolean subalgebra."""
    lower = [z for z in subalgebra if logic.leq[z, e] and logic.leq[z, f]]
    for z in lower:
        if all(logic.leq[w, z] for w in lower):
            return z
    raise AssertionError("witness subalgebra is not a lattice")


def classical_cross_check(logic, base, e):
    """Events f compatible with e, not below it, on which the conditionals
    of ``base`` given e do not all take the classical ratio
    base(f ^ e)/base(e), the meet taken inside a witness Boolean
    subalgebra: tuples (f, ratio, min mu(f), max mu(f)).  The library
    conditions by the rows f <= e alone; on a valid logic they force the
    ratio, so the tuple is empty."""
    space = reduced_space(logic)
    poly = space.polyhedron(_conditional_rows(space, base, e))
    if not poly.feasible:
        return ()
    out = []
    for f in range(logic.n):
        if logic.leq[f, e]:
            continue  # ratio constraint is the defining row itself
        verdict = is_compatible_subset(logic, {e, f})
        if not verdict.compatible:
            continue
        expected = base[boolean_meet(logic, verdict.witness, e, f)] / base[e]
        obj = space.indicator(f)
        lo = poly.solve(obj)
        hi = poly.solve(obj, maximize=True)
        if lo.value != expected or hi.value != expected:
            out.append((f, expected, lo.value, hi.value))
    return tuple(out)


def order_is_mask_inclusion(logic) -> bool:
    """Do distinct elements have distinct atom masks, with e <= f
    exactly when the mask of e is inside the mask of f?  Python ints, so
    any number of atoms."""
    masks = logic.atom_masks
    if len(set(masks)) != logic.n:
        return False
    arr = np.array(masks, dtype=object)
    incl = (arr[:, None] & arr[None, :]) == arr[:, None]
    return np.array_equal(incl.astype(bool), logic.leq)


def automorphisms_generic(logic, budget=10 ** 6):
    """Element-level backtracking over order- and complement-preserving
    bijections, assuming nothing about atoms: the reference for the
    atom-mask search of ``morphisms.iter_automorphisms``.  Each element
    is mapped right before its orthocomplement, whose image is then
    forced, so the order checks prune early."""
    n = logic.n
    leq, ortho = logic.leq, logic.ortho
    order = []
    for e in range(n):
        if e not in order:
            order += [e, int(ortho[e])]
    mapping = [-1] * n
    used = [False] * n
    nodes = 0

    def consistent(e, img):
        if (e == logic.zero) != (img == logic.zero):
            return False
        if (e == logic.one) != (img == logic.one):
            return False
        partner = mapping[ortho[e]]
        if partner != -1 and partner != ortho[img]:
            return False
        for d in range(n):
            if mapping[d] == -1:
                continue
            if leq[d, e] != leq[mapping[d], img]:
                return False
            if leq[e, d] != leq[img, mapping[d]]:
                return False
        return True

    def backtrack(i):
        nonlocal nodes
        if i == n:
            yield Automorphism(logic, logic, tuple(mapping))
            return
        e = order[i]
        for img in range(n):
            if used[img] or not consistent(e, img):
                continue
            nodes += 1
            if nodes > budget:
                raise SearchBudgetExceeded(
                    f"automorphism search visited {nodes} nodes"
                )
            mapping[e] = img
            used[img] = True
            yield from backtrack(i + 1)
            used[img] = False
            mapping[e] = -1

    yield from backtrack(0)


def atom_perms_recursive(logic, budget):
    """Atom-position permutations that respect orthogonality, by a
    recursive backtracker that tests each candidate image pairwise
    against every atom placed before, one tuple at a time: the reference
    for the order, the budget unit (candidates on a powerset, nodes
    otherwise) and the budget message of ``morphisms._atom_perm_blocks``.
    The generator returns the number of nodes it visited."""
    atoms = logic.atoms
    k = len(atoms)
    orth = [[logic.orthogonal(a, b) for b in atoms] for a in atoms]
    if logic.is_boolean:
        count = 0
        for perm in permutations(range(k)):
            count += 1
            if count > budget:
                raise SearchBudgetExceeded(
                    f"automorphism search visited {count} candidates"
                )
            yield perm
        return count

    sigma = [-1] * k
    used = [False] * k
    nodes = 0

    def backtrack(i):
        nonlocal nodes
        if i == k:
            yield tuple(sigma)
            return
        for img in range(k):
            if used[img]:
                continue
            ok = all(orth[i][j] == orth[img][sigma[j]] for j in range(i))
            if not ok:
                continue
            nodes += 1
            if nodes > budget:
                raise SearchBudgetExceeded(
                    f"automorphism search visited {nodes} nodes"
                )
            sigma[i] = img
            used[img] = True
            yield from backtrack(i + 1)
            used[img] = False
            sigma[i] = -1

    yield from backtrack(0)
    return nodes


def extend_one(ext, sigma):
    """One permutation through an ``_AtomExtender``'s masks, as a lookup
    per element: the reference for ``_AtomExtender.extend_many``."""
    logic = ext.logic
    weights = 1 << np.array(sigma, dtype=ext.dtype)
    new_masks = ext.bits @ weights
    idx = np.searchsorted(ext.sorted_masks, new_masks)
    if not logic.is_boolean:
        if idx.max() >= logic.n or not np.array_equal(
                ext.sorted_masks[idx], new_masks):
            return None
    tmap = ext.sort_order[idx]
    if not logic.is_boolean:
        if not np.array_equal(tmap[ext.ortho], ext.ortho[tmap]):
            return None
    return Automorphism(logic, logic, tuple(int(x) for x in tmap))


def automorphisms_by_oracle(logic, ext, budget):
    """``iter_automorphisms`` one permutation at a time, through the two
    references above."""
    for sigma in atom_perms_recursive(logic, budget):
        auto = extend_one(ext, sigma)
        if auto is not None:
            yield auto


def first_automorphism_scan(logic, extend, forced, budget):
    """(first automorphism or None, permutations scanned) by testing each
    forced image ``forced[i]`` of each permutation in turn and extending
    the matches with ``extend``: the reference for
    ``morphisms._first_automorphism_with``."""
    scanned = 0
    for sigma in atom_perms_recursive(logic, budget):
        scanned += 1
        if any(sigma[i] != j for i, j in forced.items()):
            continue
        auto = extend(sigma)
        if auto is not None:
            return auto, scanned
    return None, scanned


def clone_scan(problem, ext, budget):
    """(permutations scanned, first cloner or None) of the scan above with
    each copied meet atom forced onto its input meet atom: the reference
    for the cloner and the count of ``cloning.clone_search``, walked or
    computed."""
    ambient = problem.composite.ambient
    pos = {a: i for i, a in enumerate(ambient.atoms)}
    forced = {pos[problem.copied_atom[e]]: pos[problem.input_atom[e]]
              for e in problem.C}
    cloner, scanned = first_automorphism_scan(
        ambient, partial(extend_one, ext), forced, budget)
    return scanned, cloner
