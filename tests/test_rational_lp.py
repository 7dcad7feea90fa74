"""Exact simplex and vertex enumeration."""

from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import enumerate_vertices_dd
from qlogic.errors import VertexBudgetExceeded
from qlogic.rational_lp import Polyhedron, enumerate_vertices_basis, solve_lp


def test_simplex_max_on_probability_simplex():
    # max 2x + 3y + z subject to x + y + z = 1, x,y,z >= 0  ->  y = 1
    res = solve_lp([[1, 1, 1]], [1], [2, 3, 1], maximize=True)
    assert res.optimal
    assert res.value == 3
    assert res.x == (F(0), F(1), F(0))


def test_simplex_exactness_with_awkward_rationals():
    # x + 3y = 1/7, x - y = 1/11: solve exactly, then optimize trivially
    A = [[1, 3], [1, -1]]
    b = [F(1, 7), F(1, 11)]
    res = solve_lp(A, b, [1, 1])
    assert res.optimal
    x, y = res.x
    assert x + 3 * y == F(1, 7) and x - y == F(1, 11)


def test_simplex_infeasible():
    res = solve_lp([[1, 1], [1, 1]], [1, 2], [0, 0])
    assert res.status == "infeasible"


def test_simplex_detects_negative_sum_infeasibility():
    res = solve_lp([[1, 1]], [-1], [0, 0])
    assert res.status == "infeasible"


def test_simplex_unbounded():
    # max x - y with x - y free to grow: x - y = t, any t
    res = solve_lp([[1, -1, -1]], [0], [1, 0, 0], maximize=True)
    assert res.status == "unbounded"


def test_simplex_handles_redundant_rows():
    A = [[1, 1], [2, 2], [1, 1]]
    b = [1, 2, 1]
    res = solve_lp(A, b, [1, 0])
    assert res.optimal
    assert res.value == 0


def test_degenerate_lp_terminates():
    # highly degenerate: many ties in the ratio test (Bland must not cycle)
    A = [[1, 1, 1, 1], [1, -1, 0, 0], [0, 0, 1, -1]]
    b = [1, 0, 0]
    res = solve_lp(A, b, [0, 1, 1, 0])
    assert res.optimal


def test_polyhedron_answers_objectives_in_sequence():
    # x1 - x2 + x3 = 0 leaves x2 and x3 unbounded; the third row is the
    # sum of the first two, so phase 1 drops it
    A = [[1, 1, 0, 0], [0, 1, -1, 1], [1, 2, -1, 1]]
    b = [1, 0, 1]
    poly = Polyhedron(A, b)
    assert poly.feasible
    rows, basis = [list(r) for r in poly.rows], list(poly.basis)
    objectives = [
        ([1, 0, 0, 0], False),
        ([1, 0, 0, 0], True),
        ([0, 0, 1, 0], True),       # unbounded
        ([1, -1, 2, 3], False),
        ([0, 0, 0, 1], False),
        ([1, 0, 0, 0], False),      # the first one again
    ]
    statuses = []
    for c, maximize in objectives:
        res = poly.solve(c, maximize)
        assert res == solve_lp(A, b, c, maximize), (c, maximize)
        statuses.append(res.status)
    assert statuses.count("unbounded") == 1
    assert poly.rows == rows and poly.basis == basis


def _bounded_systems():
    """Small systems inside the simplex sum(x) = 1, with a scaled copy of
    one row and the sum of two rows appended, and an objective."""
    def build(n, base, scale, pick, obj):
        A = [row for row, _ in base] + [[1] * n]
        b = [rhs for _, rhs in base] + [1]
        i, j = pick[0] % len(A), pick[1] % len(A)
        A += [[scale * v for v in A[i]], [u + v for u, v in zip(A[i], A[j])]]
        b += [scale * b[i], b[i] + b[j]]
        return A, b, obj

    coef = st.integers(-2, 2)
    return st.integers(2, 5).flatmap(lambda n: st.builds(
        build,
        st.just(n),
        st.lists(st.tuples(st.lists(coef, min_size=n, max_size=n),
                           st.integers(-1, 2)), max_size=2),
        st.integers(-2, 2).filter(bool),
        st.tuples(st.integers(0, 4), st.integers(0, 4)),
        st.lists(coef, min_size=n, max_size=n),
    ))


@given(_bounded_systems())
@settings(max_examples=150, deadline=None)
def test_polyhedron_matches_vertex_enumeration(system):
    # differential oracle: over a polytope the optima of a linear
    # objective are attained at vertices, and it is empty iff it has none
    A, b, c = system
    verts = enumerate_vertices_basis(A, b)
    poly = Polyhedron(A, b)
    assert poly.feasible == bool(verts)
    if not verts:
        assert poly.solve(c).status == "infeasible"
        return
    values = [sum(ci * vi for ci, vi in zip(c, v)) for v in verts]
    for maximize, want in ((False, min(values)), (True, max(values))):
        res = poly.solve(c, maximize)
        assert res.optimal and res.value == want
        assert all(xi >= 0 for xi in res.x)
        assert all(sum(a * x for a, x in zip(row, res.x)) == rhs
                   for row, rhs in zip(A, b))


def test_vertices_of_probability_simplex():
    verts = enumerate_vertices_basis([[1, 1, 1]], [1])
    assert verts == [
        (F(0), F(0), F(1)),
        (F(0), F(1), F(0)),
        (F(1), F(0), F(0)),
    ]


def test_vertices_methods_agree():
    # the double-description route assumes the polytope sits inside the
    # unit box, which holds for all these (and for state polytopes)
    systems = [
        ([[1, 1, 1]], [1]),
        ([[1, 1, 0, 0], [0, 0, 1, 1]], [1, 1]),          # product of simplices
        ([[1, 1, 1, 0], [0, 0, 1, 1]], [1, F(1, 2)]),
    ]
    for A, b in systems:
        basis = enumerate_vertices_basis(A, b)
        dd = enumerate_vertices_dd(A, b)
        assert basis == dd


def test_vertices_with_redundant_row():
    assert enumerate_vertices_basis([[1, 0], [0, 1], [1, 1]],
                                    [1, 2, 3]) == [(F(1), F(2))]


def test_vertices_empty_when_infeasible():
    assert enumerate_vertices_basis([[1, 1], [1, 1]], [1, 2]) == []
    assert enumerate_vertices_dd([[1, 1], [1, 1]], [1, 2]) == []


def test_vertex_budget_raised():
    A = [[1] * 30]
    with pytest.raises(VertexBudgetExceeded):
        enumerate_vertices_basis([[1] * 30, [1] + [0] * 29, [0, 1] + [0] * 28,
                                  [0, 0, 1] + [0] * 27],
                                 [1, 0, 0, 0], budget=10)
    with pytest.raises(VertexBudgetExceeded):
        enumerate_vertices_dd(A, [1], budget=10)
