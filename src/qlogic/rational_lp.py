"""Exact linear programming over the rationals.

Small dense two-phase simplex with Bland's anti-cycling rule, plus two
vertex enumerators (exhaustive basis enumeration and double description)
for polytopes in standard form {x >= 0, A x = b}.  Everything runs on
``fractions.Fraction``; there is no floating point in this module.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

from .errors import VertexBudgetExceeded

ZERO = Fraction(0)
ONE = Fraction(1)


def _frac_rows(rows):
    return [[Fraction(x) for x in row] for row in rows]


def _eliminate(mat, r, col):
    """One Gauss-Jordan step: scale row r to a unit pivot in column col,
    then clear col from every other row."""
    inv = ONE / mat[r][col]
    mat[r] = [v * inv for v in mat[r]]
    for i in range(len(mat)):
        if i != r and mat[i][col] != 0:
            factor = mat[i][col]
            mat[i] = [a - factor * b for a, b in zip(mat[i], mat[r])]


def rref(rows):
    """Reduced row echelon form; returns (matrix, pivot column list)."""
    mat = _frac_rows(rows)
    if not mat:
        return [], []
    ncols = len(mat[0])
    pivots = []
    r = 0
    for col in range(ncols):
        pivot = next((i for i in range(r, len(mat)) if mat[i][col] != 0), None)
        if pivot is None:
            continue
        mat[r], mat[pivot] = mat[pivot], mat[r]
        _eliminate(mat, r, col)
        pivots.append(col)
        r += 1
        if r == len(mat):
            break
    return mat, pivots


def independent_rows(A, b):
    """Drop redundant equality rows; raises ValueError if inconsistent."""
    if not A:
        return [], []
    aug = [list(row) + [rhs] for row, rhs in zip(A, b)]
    mat, pivots = rref(aug)
    ncols = len(A[0])
    keep_a, keep_b = [], []
    for i, col in enumerate(pivots):
        if col == ncols:
            raise ValueError("inconsistent equality system")
        keep_a.append(mat[i][:ncols])
        keep_b.append(mat[i][ncols])
    return keep_a, keep_b


@dataclass(frozen=True)
class LPResult:
    status: str  # "optimal" | "infeasible" | "unbounded"
    value: Fraction | None = None
    x: tuple | None = None

    @property
    def optimal(self) -> bool:
        return self.status == "optimal"


def _pivot(T, basis, row, col):
    _eliminate(T, row, col)
    basis[row] = col


def _simplex(T, basis, ncols):
    """Minimize with Bland's rule. T = m constraint rows + objective row.

    The objective row holds reduced costs; T[-1][-1] is minus the current
    objective value.  Returns "optimal" or "unbounded".
    """
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


def solve_lp(A, b, c, maximize=False):
    """Optimize c . x over {x >= 0, A x = b} exactly.

    A is a list of rows, b the right-hand sides, c the objective vector.
    """
    A = _frac_rows(A)
    b = [Fraction(v) for v in b]
    c = [Fraction(v) for v in c]
    if maximize:
        c = [-v for v in c]
    m, n = len(A), len(c)

    # phase 1 with artificial variables
    T = []
    for i in range(m):
        row = list(A[i])
        rhs = b[i]
        if rhs < 0:
            row = [-v for v in row]
            rhs = -rhs
        art = [ZERO] * m
        art[i] = ONE
        T.append(row + art + [rhs])
    obj = [ZERO] * (n + m) + [ZERO]
    for i in range(m):
        for j in range(n + m + 1):
            obj[j] -= T[i][j]
        obj[n + i] += ONE
    T.append(obj)
    basis = [n + i for i in range(m)]
    status = _simplex(T, basis, n + m)
    if status != "optimal" or T[-1][-1] != 0:
        return LPResult("infeasible")

    # drive remaining artificials out of the basis, drop redundant rows
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

    # phase 2
    rows = [row[:n] + [row[-1]] for row in T[:-1]]
    obj = list(c) + [ZERO]
    for i, bv in enumerate(basis):
        if obj[bv] != 0:
            factor = obj[bv]
            obj = [a - factor * v for a, v in zip(obj, rows[i])]
    rows.append(obj)
    status = _simplex(rows, basis, n)
    if status == "unbounded":
        return LPResult("unbounded")
    x = [ZERO] * n
    for i, bv in enumerate(basis):
        x[bv] = rows[i][-1]
    value = sum(ci * xi for ci, xi in zip(c, x))
    if maximize:
        value = -value
    return LPResult("optimal", value, tuple(x))


def _solve_square(cols_matrix, rhs):
    """Solve M x = rhs for square M given as list of rows; None if singular."""
    n = len(rhs)
    mat = [list(row) + [val] for row, val in zip(cols_matrix, rhs)]
    for col in range(n):
        pivot = next((i for i in range(col, n) if mat[i][col] != 0), None)
        if pivot is None:
            return None
        mat[col], mat[pivot] = mat[pivot], mat[col]
        _eliminate(mat, col, col)
    return [mat[i][n] for i in range(n)]


def enumerate_vertices_basis(A, b, budget=100_000):
    """All vertices of {x >= 0, A x = b} by exhaustive basis enumeration.

    Distinct basic feasible solutions, sorted lexicographically.  Raises
    ``VertexBudgetExceeded`` when more candidate bases than ``budget``
    would have to be examined.
    """
    try:
        A, b = independent_rows(_frac_rows(A), [Fraction(v) for v in b])
    except ValueError:
        return []  # inconsistent equalities: empty polytope
    n = len(A[0]) if A else 0
    r = len(A)
    if r == 0:
        return [tuple([ZERO] * n)] if n else [tuple()]
    total = 1
    for i in range(r):
        total = total * (n - i) // (i + 1)
    if total > budget:
        raise VertexBudgetExceeded(
            f"{total} candidate bases exceed the budget {budget}"
        )
    seen = set()
    for cols in combinations(range(n), r):
        square = [[A[i][j] for j in cols] for i in range(r)]
        sol = _solve_square(square, b)
        if sol is None or any(v < 0 for v in sol):
            continue
        x = [ZERO] * n
        for j, v in zip(cols, sol):
            x[j] = v
        seen.add(tuple(x))
    return sorted(seen)


def enumerate_vertices_dd(A, b, budget=100_000):
    """Vertices of {0 <= x <= 1, A x = b} by double description.

    Valid for state polytopes, where 0 <= x <= 1 is implied by the
    equality system; starts from the unit box and cuts one halfspace at
    a time, so the variable count must stay small.
    """
    A = _frac_rows(A)
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
