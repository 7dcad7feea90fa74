"""Exact linear programming over the rationals.

A small dense two-phase simplex with Bland's anti-cycling rule for
polyhedra in standard form {x >= 0, A x = b}.  ``Polyhedron`` runs phase
1 once per constraint system and answers any number of objectives from
the feasible basis it finds; ``enumerate_vertices_basis`` lists the
vertices of a ``Polyhedron`` by exhaustive basis enumeration over its
canonical rows, so it runs no phase 1 of its own.

The tableau is fraction-free (Bareiss 1968): each row is an integer
vector that equals the rational tableau row up to a positive scale, so a
basic value is ``row[-1] / row[basis[i]]``.  Signs and ratio
comparisons, and with them every pivot choice, are those of the rational
tableau whatever the scales.  Constraint rows and objectives alike are
read as integer rows over the lcm of their denominators (ints and
``Fraction``s pass through as they are), so ``fractions.Fraction``
appears only at the boundary: reading a rational input and building
results, where an objective value is one ``Fraction`` of an integer sum.
``Polyhedron.rows`` are primitive (the gcd of each row is 1).  There is
no floating point in this module.

Phase 1 reads ``(A | b)`` as one integer array and builds its tableau
(sign-normalised rows, the artificial diagonal and the objective row)
with array operations; only rows that hold a ``Fraction`` are scaled
one by one.  A tableau of at least ``_ARRAY_CELLS`` cells stays a 2-D
numpy integer array, and a pivot on it is one rank-1 update of the rows
it changes, ``T <- p T - outer(T[:, col], T[r])``, on only the columns
where ``T[r]`` is nonzero when ``p`` is 1.  Smaller tableaux are lists
of Python-int rows (``.tolist()`` of the same array), updated one row at
a time and divided by their gcd after every pivot, which is faster at
that size.  The array is int64 while every entry is below 2^31 in
magnitude, which keeps ``p a - f v`` below 2^63.  A changed array row is
divided by the gcd of its entries only once a changed entry reaches
``_REDUCE_AT`` (2^20), and before the bound is checked; the bound is
checked exactly on the tableau as built and on every reduced row, and
the first entry beyond it moves the array to ``dtype=object`` (Python
ints) for the rest of the solve, so no entry wraps around.  A row left
unreduced has every entry below 2^31, and so has its primitive form, and
a reduced row is primitive: the array leaves int64 at the pivot where
rows kept primitive after every pivot would, and not earlier.  Bland's
rule and the ratio test read Python ints, so neither the size rule nor
the gcd threshold changes a pivot.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import comb, gcd, lcm
from operator import attrgetter, mul

import numpy as np

from .errors import VertexBudgetExceeded

ZERO = Fraction(0)


# Tableaux of at least this many cells are eliminated as numpy arrays;
# below it numpy's per-call overhead outweighs the vectorized step.
_ARRAY_CELLS = 256
# int64 storage holds entries below 2^31 in magnitude, so that p a - f v
# over four of them stays below 2^63
_INT64_BOUND = 1 << 31
# an array tableau row is made primitive once an entry reaches this
# magnitude; below it, the gcd costs more than the growth it saves
_REDUCE_AT = 1 << 20

_numerator = attrgetter("numerator")
_denominator = attrgetter("denominator")
_EXACT = frozenset((int, Fraction))


def _integer_row(values):
    """Rationals scaled by the lcm d of their denominators: (ints, d).
    Python ints and Fractions are read as they are (``numerator``, not
    ``int()``, which is a Python-level call on a Fraction)."""
    values = [v if type(v) in _EXACT else Fraction(v) for v in values]
    d = lcm(*map(_denominator, values))
    if d == 1:
        return list(map(_numerator, values)), 1
    return [v.numerator * (d // v.denominator) for v in values], d


def _primitive(row):
    g = gcd(*row)
    return [v // g for v in row] if g > 1 else row


class _RowTableau:
    """A tableau as a list of Python-int rows, for small systems."""

    __slots__ = ("rows",)

    def __init__(self, rows):
        self.rows = rows

    def entering(self, ncols):
        """Bland's rule: the first column with a negative reduced cost."""
        obj = self.rows[-1]
        return next((j for j in range(ncols) if obj[j] < 0), None)

    def column(self, j):
        return [row[j] for row in self.rows]

    def row(self, i):
        return self.rows[i]

    def tolist(self):
        return self.rows

    def clear_column(self, r, col):
        """Clear column col from every row but r, fraction-free:
        row_i <- p row_i - row_i[col] row_r with p = row_r[col] > 0
        (row r is negated first if needed), then row_i is divided by the
        gcd of its entries.  Rows are replaced, never edited in place,
        so row lists may be shared between tableaux."""
        rows = self.rows
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


class _ArrayTableau:
    """The same tableau as a 2-D numpy integer array, for large systems.

    Storage is int64 while every entry is below 2^31 in magnitude and
    Python ints (``dtype=object``) from the first pivot that leaves a
    reduced row beyond it; the update rule is the same for both.
    """

    __slots__ = ("a",)

    def __init__(self, rows):
        self.a = _int_array(rows)

    def entering(self, ncols):
        neg = (self.a[-1, :ncols] < 0).nonzero()[0]
        return int(neg[0]) if neg.size else None

    def column(self, j):
        return self.a[:, j].tolist()

    def row(self, i):
        return self.a[i].tolist()

    def tolist(self):
        return self.a.tolist()

    def clear_column(self, r, col):
        """``_RowTableau.clear_column`` as one rank-1 update of the rows
        with a nonzero entry in col; with p = 1 only the columns where
        row r is nonzero change.  A changed row is divided by the gcd of
        its entries only once a changed entry reaches ``_REDUCE_AT`` in
        magnitude."""
        a = self.a
        if a[r, col] < 0:
            a[r] = -a[r]
        pivot_row = a[r]
        p = pivot_row[col]
        rows = a[:, col].nonzero()[0]
        rows = rows[rows != r]
        if not rows.size:
            return
        f = a[rows, col][:, None]
        if p == 1:
            cols = pivot_row.nonzero()[0]
            index = rows[:, None], cols
            block = a[index] - f * pivot_row[cols]
        else:
            index = rows
            block = p * a[rows] - f * pivot_row
        a[index] = block
        big = rows[np.abs(block).max(axis=1) >= _REDUCE_AT]
        if big.size:
            reduced = a[big]
            reduced //= np.gcd.reduce(reduced, axis=1)[:, None]
            if a.dtype != object and _beyond_int64_bound(reduced):
                a = self.a = a.astype(object)
            a[big] = reduced


def _beyond_int64_bound(a):
    return (a.max(initial=0) >= _INT64_BOUND
            or a.min(initial=0) <= -_INT64_BOUND)


def _int_array(rows):
    """Integer rows, lists or a 2-D array, as an int64 array while every
    entry is below 2^31 in magnitude and as Python ints beyond."""
    try:
        a = np.asarray(rows, dtype=np.int64)
    except OverflowError:
        a = None
    if a is None or _beyond_int64_bound(a):
        a = np.array(rows, dtype=object)
    return a


def _tableau(rows):
    """Integer rows, lists or a 2-D array, as the tableau kept for their
    size."""
    if len(rows) * len(rows[0]) >= _ARRAY_CELLS:
        return _ArrayTableau(rows)
    return _RowTableau(rows if isinstance(rows, list) else rows.tolist())


@dataclass(frozen=True)
class LPResult:
    status: str  # "optimal" | "infeasible" | "unbounded"
    value: Fraction | None = None
    x: tuple | None = None

    @property
    def optimal(self) -> bool:
        return self.status == "optimal"


def _pivot(T, basis, row, col):
    T.clear_column(row, col)
    basis[row] = col


def _simplex(T, basis, ncols):
    """Minimize with Bland's rule. T = m constraint rows + objective row.

    The objective row holds the reduced costs up to a positive scale;
    its right-hand side is zero exactly when the current objective value
    is.  Returns "optimal" or "unbounded".
    """
    m = len(basis)
    while True:
        col = T.entering(ncols)
        if col is None:
            return "optimal"
        column, rhs = T.column(col), T.column(-1)
        best = None
        for i in range(m):
            a = column[i]
            if a > 0:
                if best is None:
                    best, best_a = i, a
                    continue
                # ratio rhs[i] / a against the best, cross-multiplied
                lhs, other = rhs[i] * best_a, rhs[best] * a
                if lhs < other or (lhs == other and basis[i] < basis[best]):
                    best, best_a = i, a
        if best is None:
            return "unbounded"
        _pivot(T, basis, best, col)


class Polyhedron:
    """{x >= 0, A x = b} with phase 1 of the simplex run once.

    ``n`` is the number of columns.  If ``feasible``, ``rows`` (integer
    coefficients, then right-hand side, each row a primitive vector
    equal to the rational canonical row up to a positive scale) and
    ``basis`` are a feasible canonical form without redundant rows, and
    each ``solve`` runs phase 2 from a copy of them.  Phase 1 reads no
    objective, so ``solve`` equals a fresh two-phase solve.
    """

    def __init__(self, A, b):
        m = len(b)

        # phase 1: row i is the input row times the lcm d_i of its
        # denominators, sign-normalised, with d_i in its artificial column;
        # (A | b), lists or an array A, is read as one integer array
        M = np.column_stack((A, b)) if m else np.zeros((0, 1), np.int64)
        self.n = n = M.shape[1] - 1
        d = None
        if M.dtype != np.int64:
            # Fractions, floats or ints beyond int64: only the rows that
            # hold a non-int are read over the lcm of their denominators
            scaled = [(row, 1) if {int}.issuperset(map(type, row))
                      else _integer_row(row) for row in M.tolist()]
            M = _int_array([row for row, _ in scaled]).reshape(m, n + 1)
            d = [di for _, di in scaled]
        elif _beyond_int64_bound(M):
            M = M.astype(object)
        # int64 entries below 2^31 sum to the objective row exactly while
        # lcm(d) m < 2^32
        L = lcm(*d) if d else 1
        if L * m >= 1 << 32:
            M = M.astype(object)
        neg = [i for i, v in enumerate(b) if v < 0]
        if neg:
            M[neg] = -M[neg]
        T = np.zeros((m + 1, n + m + 1), dtype=M.dtype)
        T[:m, :n], T[:m, -1] = M[:, :n], M[:, -1]
        # the artificial diagonal T[i, n + i] = d_i
        T.ravel()[n:m * (n + m + 2):n + m + 2] = d or 1
        # lcm(d) * (-(sum of the rational rows) + artificials): minus the
        # sum of the rows times lcm(d) / d_i, and 0 on the artificials
        if d:
            M *= np.array([L // di for di in d], dtype=M.dtype)[:, None]
        obj = _primitive([-v for v in M.sum(axis=0).tolist()])
        T[m, :n], T[m, -1] = obj[:n], obj[-1]
        T = _tableau(T)
        basis = [n + i for i in range(m)]
        status = _simplex(T, basis, n + m)
        self.feasible = status == "optimal" and T.column(-1)[-1] == 0
        self.rows, self.basis = [], []
        if not self.feasible:
            return

        # drive remaining artificials out of the basis, drop redundant rows
        drop = []
        for i in range(m):
            if basis[i] >= n:
                row = T.row(i)
                col = next((j for j in range(n) if row[j] != 0), None)
                if col is None:
                    drop.append(i)
                else:
                    _pivot(T, basis, i, col)
        T = T.tolist()
        for i in sorted(drop, reverse=True):
            del T[i]
            del basis[i]
        self.rows = [_primitive(row[:n] + [row[-1]]) for row in T[:-1]]
        self.basis = basis

    def solve(self, c, maximize=False) -> LPResult:
        """Optimize c . x over the polyhedron exactly (phase 2).

        The objective is read as integers over the lcm d of its
        denominators (ints as they are), and ``value`` is one
        ``Fraction`` of the integer sum over the basic variables."""
        if not self.feasible:
            return LPResult("infeasible")
        c, d = _integer_row(c)
        n = len(c)
        basis = list(self.basis)
        obj = ([-v for v in c] if maximize else list(c)) + [0]
        for row, bv in zip(self.rows, basis):
            f = obj[bv]
            if f:
                p = row[bv]
                obj = [p * a - f * v for a, v in zip(obj, row)]
        T = _tableau(self.rows + [_primitive(obj)])
        if _simplex(T, basis, n) == "unbounded":
            return LPResult("unbounded")
        x = [ZERO] * n
        live = []  # the basic variables with a nonzero value
        for row, bv in zip(T.tolist(), basis):
            if row[-1]:
                x[bv] = Fraction(row[-1], row[bv])
                live.append(bv)
        # c . x over the lcm of the nonzero values' denominators
        nums, den = _integer_row([x[bv] for bv in live])
        value = Fraction(sum(map(mul, map(c.__getitem__, live), nums)),
                         den * d)
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
        _RowTableau(mat).clear_column(col, col)
    return [Fraction(mat[i][n], mat[i][i]) for i in range(n)]


def enumerate_vertices_basis(poly: Polyhedron, budget=100_000):
    """All vertices of ``poly`` by exhaustive basis enumeration.

    Distinct basic feasible solutions, sorted lexicographically.  Raises
    ``VertexBudgetExceeded`` when more candidate bases than ``budget``
    would have to be examined.
    """
    if not poly.feasible:
        return []
    # the canonical rows are independent and cut out the same polyhedron
    n = poly.n
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
