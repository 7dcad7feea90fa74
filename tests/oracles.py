"""Slow reference implementations that the tests compare the library
against.  Nothing under ``src/`` calls them."""

from fractions import Fraction

import numpy as np

from qlogic.compat import is_compatible_subset
from qlogic.errors import SearchBudgetExceeded, VertexBudgetExceeded
from qlogic.morphisms import Automorphism, dual_state
from qlogic.rational_lp import LPResult
from qlogic.states import (
    _conditional_rows,
    atomic_state,
    reduced_space,
    state_polytope,
)

ZERO = Fraction(0)
ONE = Fraction(1)


def _pivot(T, basis, row, col):
    """One Gauss-Jordan step on a ``Fraction`` tableau: scale row to a
    unit pivot in col, then clear col from every other row."""
    inv = ONE / T[row][col]
    T[row] = [v * inv for v in T[row]]
    for i in range(len(T)):
        if i != row and T[i][col] != 0:
            factor = T[i][col]
            T[i] = [a - factor * b for a, b in zip(T[i], T[row])]
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


class FractionPolyhedron:
    """The two-phase simplex of ``rational_lp.Polyhedron`` on a
    ``Fraction`` tableau with unit artificial columns: the reference the
    fraction-free tableau must match pivot for pivot."""

    def __init__(self, A, b):
        A = [[Fraction(x) for x in row] for row in A]
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


def enumerate_vertices_dd(A, b, budget=100_000):
    """Vertices of {0 <= x <= 1, A x = b} by double description.

    Valid for state polytopes, where 0 <= x <= 1 is implied by the
    equality system; starts from the unit box and cuts one halfspace at
    a time, so the variable count must stay small.
    """
    A = [[Fraction(x) for x in row] for row in A]
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
    of e on both factors.  The library decides by the inverse-image
    criterion instead; Lemma 1(b) says the two agree."""
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
            inverse = [0] * n
            for x, img in enumerate(mapping):
                inverse[img] = x
            yield Automorphism(logic, logic, tuple(mapping), tuple(inverse))
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
