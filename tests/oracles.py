"""Slow reference implementations that the tests compare the library
against.  Nothing under ``src/`` calls them."""

from fractions import Fraction

from qlogic.errors import VertexBudgetExceeded
from qlogic.morphisms import dual_state
from qlogic.rational_lp import LPResult
from qlogic.states import state_polytope

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
