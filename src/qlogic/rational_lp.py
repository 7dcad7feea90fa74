"""Exact linear programming over the rationals.

A small dense two-phase simplex with Bland's anti-cycling rule for
polyhedra in standard form {x >= 0, A x = b}.  ``Polyhedron`` runs phase
1 once per constraint system and answers any number of objectives from
the feasible basis it finds; ``enumerate_vertices_basis`` lists the
vertices by exhaustive basis enumeration over the same phase-1 rows.

The tableau is fraction-free (Bareiss 1968): each row is a primitive
integer vector (divided by the gcd of its entries after every pivot)
that equals the rational tableau row up to a positive scale, so a basic
value is ``row[-1] / row[basis[i]]``.  Signs and ratio comparisons, and
with them every pivot choice, are those of the rational tableau.
``fractions.Fraction`` appears only at the boundary: converting the
input and building results.  There is no floating point in this module.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import comb, gcd, lcm

from .errors import VertexBudgetExceeded

ZERO = Fraction(0)


def _integer_row(values):
    """Rationals scaled by the lcm d of their denominators: (ints, d)."""
    values = [Fraction(v) for v in values]
    d = lcm(*(v.denominator for v in values))
    return [v.numerator * (d // v.denominator) for v in values], d


def _primitive(row):
    g = gcd(*row)
    return [v // g for v in row] if g > 1 else row


def _clear_column(rows, r, col):
    """Clear column col from every row but r, fraction-free:
    row_i <- p row_i - row_i[col] row_r with p = row_r[col] > 0 (row r
    is negated first if needed).  Rows are replaced, never edited in
    place, so row lists may be shared between tableaux."""
    pivot_row = rows[r]
    p = pivot_row[col]
    if p < 0:
        pivot_row = rows[r] = [-v for v in pivot_row]
        p = -p
    for i, row in enumerate(rows):
        f = row[col]
        if f and i != r:
            rows[i] = _primitive([p * a - f * v
                                  for a, v in zip(row, pivot_row)])


@dataclass(frozen=True)
class LPResult:
    status: str  # "optimal" | "infeasible" | "unbounded"
    value: Fraction | None = None
    x: tuple | None = None

    @property
    def optimal(self) -> bool:
        return self.status == "optimal"


def _pivot(T, basis, row, col):
    _clear_column(T, row, col)
    basis[row] = col


def _simplex(T, basis, ncols):
    """Minimize with Bland's rule. T = m constraint rows + objective row.

    The objective row holds the reduced costs up to a positive scale;
    T[-1][-1] is zero exactly when the current objective value is.
    Returns "optimal" or "unbounded".
    """
    m = len(T) - 1
    while True:
        obj = T[-1]
        col = next((j for j in range(ncols) if obj[j] < 0), None)
        if col is None:
            return "optimal"
        best = None
        for i in range(m):
            a = T[i][col]
            if a > 0:
                if best is None:
                    best, best_a = i, a
                    continue
                # ratio T[i][-1] / a against the best, cross-multiplied
                lhs, rhs = T[i][-1] * best_a, T[best][-1] * a
                if lhs < rhs or (lhs == rhs and basis[i] < basis[best]):
                    best, best_a = i, a
        if best is None:
            return "unbounded"
        _pivot(T, basis, best, col)


class Polyhedron:
    """{x >= 0, A x = b} with phase 1 of the simplex run once.

    If ``feasible``, ``rows`` (integer coefficients, then right-hand
    side, each row a primitive vector equal to the rational canonical
    row up to a positive scale) and ``basis`` are a feasible canonical
    form without redundant rows, and each ``solve`` runs phase 2 from a
    copy of them.  Phase 1 reads no objective, so ``solve`` equals a
    fresh two-phase solve.
    """

    def __init__(self, A, b):
        m, n = len(A), len(A[0]) if A else 0

        # phase 1: row i is the input row times the lcm d_i of its
        # denominators, sign-normalised, with d_i in its artificial column
        T, scales = [], []
        for i in range(m):
            row, d = _integer_row(list(A[i]) + [b[i]])
            if row[-1] < 0:
                row = [-v for v in row]
            art = [0] * m
            art[i] = d
            T.append(row[:n] + art + row[n:])
            scales.append(d)
        # lcm(d) * (-(sum of the rational rows) + artificials)
        L = lcm(*scales)
        obj = [0] * (n + m + 1)
        for row, d in zip(T, scales):
            w = L // d
            obj = [o - w * v for o, v in zip(obj, row)]
        for i in range(m):
            obj[n + i] += L
        T.append(_primitive(obj))
        basis = [n + i for i in range(m)]
        status = _simplex(T, basis, n + m)
        self.feasible = status == "optimal" and T[-1][-1] == 0
        self.rows, self.basis = [], []
        if not self.feasible:
            return

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
        self.rows = [_primitive(row[:n] + [row[-1]]) for row in T[:-1]]
        self.basis = basis

    def solve(self, c, maximize=False) -> LPResult:
        """Optimize c . x over the polyhedron exactly (phase 2)."""
        if not self.feasible:
            return LPResult("infeasible")
        c = [Fraction(v) for v in c]
        if maximize:
            c = [-v for v in c]
        n = len(c)
        basis = list(self.basis)
        obj, _ = _integer_row(c + [ZERO])
        for row, bv in zip(self.rows, basis):
            f = obj[bv]
            if f:
                p = row[bv]
                obj = [p * a - f * v for a, v in zip(obj, row)]
        rows = self.rows + [_primitive(obj)]
        status = _simplex(rows, basis, n)
        if status == "unbounded":
            return LPResult("unbounded")
        x = [ZERO] * n
        for row, bv in zip(rows, basis):
            x[bv] = Fraction(row[-1], row[bv])
        value = sum(ci * xi for ci, xi in zip(c, x))
        if maximize:
            value = -value
        return LPResult("optimal", value, tuple(x))


def solve_lp(A, b, c, maximize=False):
    """Optimize c . x over {x >= 0, A x = b} exactly, for one objective."""
    return Polyhedron(A, b).solve(c, maximize)


def _solve_square(cols_matrix, rhs):
    """Solve M x = rhs for an integer square M given as a list of rows,
    by fraction-free Gauss-Jordan elimination; None if M is singular."""
    n = len(rhs)
    mat = [list(row) + [val] for row, val in zip(cols_matrix, rhs)]
    for col in range(n):
        pivot = next((i for i in range(col, n) if mat[i][col] != 0), None)
        if pivot is None:
            return None
        mat[col], mat[pivot] = mat[pivot], mat[col]
        _clear_column(mat, col, col)
    return [Fraction(mat[i][n], mat[i][i]) for i in range(n)]


def enumerate_vertices_basis(A, b, budget=100_000):
    """All vertices of {x >= 0, A x = b} by exhaustive basis enumeration.

    Distinct basic feasible solutions, sorted lexicographically.  Raises
    ``VertexBudgetExceeded`` when more candidate bases than ``budget``
    would have to be examined.
    """
    n = len(A[0]) if A else 0
    poly = Polyhedron(A, b)
    if not poly.feasible:
        return []
    # the phase-1 rows are independent and cut out the same polyhedron
    A = [row[:-1] for row in poly.rows]
    b = [row[-1] for row in poly.rows]
    r = len(A)
    total = comb(n, r)
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
