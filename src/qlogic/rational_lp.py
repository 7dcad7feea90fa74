"""Exact linear programming over the rationals.

A small dense two-phase simplex with Bland's anti-cycling rule for
polyhedra in standard form {x >= 0, A x = b}.  ``Polyhedron`` runs phase
1 once per constraint system and answers any number of objectives from
the feasible basis it finds; ``enumerate_vertices_basis`` lists the
vertices by exhaustive basis enumeration over the same phase-1 rows.
Everything runs on ``fractions.Fraction``; there is no floating point in
this module.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import comb

from .errors import VertexBudgetExceeded

ZERO = Fraction(0)
ONE = Fraction(1)


def _frac_rows(rows):
    return [[Fraction(x) for x in row] for row in rows]


def _eliminate(mat, r, col):
    """One Gauss-Jordan step: scale row r to a unit pivot in column col,
    then clear col from every other row.  Rows are replaced, never edited
    in place, so row lists may be shared between tableaux."""
    inv = ONE / mat[r][col]
    mat[r] = [v * inv for v in mat[r]]
    for i in range(len(mat)):
        if i != r and mat[i][col] != 0:
            factor = mat[i][col]
            mat[i] = [a - factor * b for a, b in zip(mat[i], mat[r])]


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


class Polyhedron:
    """{x >= 0, A x = b} with phase 1 of the simplex run once.

    If ``feasible``, ``rows`` (coefficients, then right-hand side) and
    ``basis`` are a feasible canonical form without redundant rows, and
    each ``solve`` runs phase 2 from a copy of them.  Phase 1 reads no
    objective, so ``solve`` equals a fresh two-phase solve.
    """

    def __init__(self, A, b):
        A = _frac_rows(A)
        b = [Fraction(v) for v in b]
        m, n = len(A), len(A[0]) if A else 0

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
        self.rows = [row[:n] + [row[-1]] for row in T[:-1]]
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
        obj = list(c) + [ZERO]
        for i, bv in enumerate(basis):
            if obj[bv] != 0:
                factor = obj[bv]
                obj = [a - factor * v for a, v in zip(obj, self.rows[i])]
        rows = self.rows + [obj]
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


def solve_lp(A, b, c, maximize=False):
    """Optimize c . x over {x >= 0, A x = b} exactly, for one objective."""
    return Polyhedron(A, b).solve(c, maximize)


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
