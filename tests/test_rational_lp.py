"""Exact simplex and vertex enumeration."""

import random
from fractions import Fraction as F
from math import gcd, lcm
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from oracles import FractionPolyhedron, enumerate_vertices_dd
from qlogic import rational_lp as rlp
from qlogic.builders import mo_logic
from qlogic.composite import lemma3_sweep, make_composite
from qlogic.core import validate_logic
from qlogic.errors import (
    EmptyStateSpace,
    UndefinedTransition,
    VertexBudgetExceeded,
)
from qlogic.fixtures import load_fixture
from qlogic.rational_lp import Polyhedron, enumerate_vertices_basis, solve_lp
from qlogic.states import (
    _uniqueness_gap,
    check_condition_F,
    check_condition_G,
    check_condition_H,
    conditional_probability,
    face,
    reduced_space,
    state_polytope,
    transition_probability,
)


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


def test_empty_system():
    # no rows and no columns: the single point x = ()
    assert solve_lp([], [], []) == solve_lp([], [], [], maximize=True)
    assert solve_lp([], [], []).value == 0
    assert enumerate_vertices_basis(Polyhedron([], [])) == [()]


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


def _with_redundant_rows(A, b, scale, pick):
    """A scaled copy of one row and the sum of two rows appended."""
    i, j = pick[0] % len(A), pick[1] % len(A)
    A = A + [[scale * v for v in A[i]], [u + v for u, v in zip(A[i], A[j])]]
    return A, b + [scale * b[i], b[i] + b[j]]


def _bounded_systems():
    """Small systems inside the simplex sum(x) = 1, with redundant rows
    appended, and an objective."""
    def build(n, base, scale, pick, obj):
        A = [row for row, _ in base] + [[1] * n]
        b = [rhs for _, rhs in base] + [1]
        return (*_with_redundant_rows(A, b, scale, pick), obj)

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
    poly = Polyhedron(A, b)
    verts = enumerate_vertices_basis(poly)
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


_rational = st.sampled_from(sorted({F(p, q) for p in range(-3, 4)
                                   for q in range(1, 5)}))
_integer = st.integers(-3, 3)


def _objectives(n):
    """Objectives of n ``Fraction``s, of n Python ints, or of both."""
    return st.one_of(*(st.lists(entry, min_size=n, max_size=n) for entry in
                       (_rational, _integer, st.one_of(_rational, _integer))))


def _rational_systems():
    """Rational systems with redundant rows appended, plus objectives
    of Fractions, of Python ints, or of both.  Half of the systems are
    consistent by construction (b = A x0 for some x0 >= 0); their
    right-hand sides may still be negative."""
    def build(n, base, x0, consistent, scale, pick, objectives):
        A = [row for row, _ in base]
        b = [sum((a * x for a, x in zip(row, x0)), F(0)) if consistent else rhs
             for row, rhs in base]
        return (*_with_redundant_rows(A, b, scale, pick), objectives)

    def for_width(n):
        vector = st.lists(_rational, min_size=n, max_size=n)
        return st.builds(
            build, st.just(n),
            st.lists(st.tuples(vector, _rational), min_size=1, max_size=4),
            st.lists(_rational.map(abs), min_size=n, max_size=n),
            st.booleans(),
            _rational.filter(bool),
            st.tuples(st.integers(0, 5), st.integers(0, 5)),
            st.lists(_objectives(n), min_size=1, max_size=3),
        )
    return st.integers(2, 5).flatmap(for_width)


def _replay(module, cls, calls):
    """The (row, col) arguments of every ``_pivot``, with each phase-1
    basis, and the results when cls answers the recorded calls."""
    pivots, results = [], []
    pivot = module._pivot

    def recording(T, basis, row, col):
        pivots.append((row, col))
        pivot(T, basis, row, col)

    with mock.patch.object(module, "_pivot", recording):
        for A, b, objectives in calls:
            poly = cls(A, b)
            pivots.append(("phase 2 from", poly.feasible, tuple(poly.basis)))
            results += [poly.solve(c, maximize) for c, maximize in objectives]
    return pivots, results


def _assert_same_path(calls):
    assert _replay(rlp, Polyhedron, calls) == _replay(
        oracles, FractionPolyhedron, calls)


def _assert_matches_fraction_tableau(system):
    A, b, objectives = system
    _assert_same_path([(A, b, [(c, maximize) for c in objectives
                               for maximize in (False, True)])])
    poly, ref = Polyhedron(A, b), FractionPolyhedron(A, b)
    assert all(type(v) is int for row in poly.rows for v in row)
    assert [[F(v, row[bv]) for v in row]
            for row, bv in zip(poly.rows, poly.basis)] == ref.rows
    # the value is the objective at the optimal point, whatever the
    # types of the objective's entries
    for c in objectives:
        for maximize in (False, True):
            res = poly.solve(c, maximize)
            if res.optimal:
                assert type(res.value) is F
                assert all(type(v) is F for v in res.x)
                assert res.value == sum(F(ci) * xi
                                        for ci, xi in zip(c, res.x))


# re-enters an artificial column whose scale d_i is 3
_ARTIFICIAL_REENTRY = (
    [[1, 2, F(-1, 3)], [F(1, 3), F(-1, 3), F(-1, 3)], [F(3, 4), 0, -3],
     [F(2, 3), 2, -1], [F(1, 6), F(1, 2), F(-1, 4)], [1, F(5, 3), F(-4, 3)]],
    [F(23, 12), F(-5, 12), F(-3, 4), F(7, 4), F(7, 16), F(4, 3)],
    [[1, 0, 0]])


@given(_rational_systems())
@example(_ARTIFICIAL_REENTRY)
@settings(max_examples=200, deadline=None)
def test_polyhedron_matches_fraction_tableau(system):
    # differential oracle: the fraction-free tableau takes the pivots of
    # the Fraction tableau, so its rows are the same up to scale
    _assert_matches_fraction_tableau(system)


@given(_rational_systems())
@example(_ARTIFICIAL_REENTRY)
@settings(max_examples=200, deadline=None)
def test_array_kernel_matches_fraction_tableau(system):
    # the same with every tableau, however small, on the numpy kernel
    with mock.patch.object(rlp, "_ARRAY_CELLS", 0):
        _assert_matches_fraction_tableau(system)


def _storage(calls):
    """For each tableau the library pivots on while answering calls, the
    storage of every pivot: "rows", or the array dtype before the step."""
    seen = []
    pivot = rlp._pivot

    def recording(T, basis, row, col):
        array = isinstance(T, rlp._ArrayTableau)
        seen.append((T, T.a.dtype.name if array else "rows"))
        pivot(T, basis, row, col)

    with mock.patch.object(rlp, "_pivot", recording):
        for A, b, objectives in calls:
            poly = Polyhedron(A, b)
            for c, maximize in objectives:
                poly.solve(c, maximize)
    tableaux = []
    for T, storage in seen:
        if not tableaux or tableaux[-1][0] is not T:
            tableaux.append((T, []))
        tableaux[-1][1].append(storage)
    return [storages for _, storages in tableaux]


def _lp_calls(monkeypatch, run):
    """(A, b, objectives) of every polyhedron that run() builds."""
    calls = []

    class Recording(rlp.Polyhedron):
        def __init__(self, A, b):
            self.objectives = []
            calls.append((A, b, self.objectives))
            super().__init__(A, b)

        def solve(self, c, maximize=False):
            self.objectives.append((c, maximize))
            return super().solve(c, maximize)

    with monkeypatch.context() as patched:
        patched.setattr(rlp, "Polyhedron", Recording)
        run()
    return calls


def _mo3_base():
    check_condition_F(validate_logic(mo_logic(3)))


def _mo3_face():
    mo3 = validate_logic(mo_logic(3))
    transition_probability(mo3, mo3.index("b"), mo3.index("a"))


def _mo3_conditional():
    # conditioning on the top pins every atom to its rational base value
    mo3 = validate_logic(mo_logic(3))
    space = reduced_space(mo3)
    base = space.state([F(1, 3), F(2, 3), F(1, 5), F(4, 5), F(2, 7), F(5, 7)])
    conditional_probability(mo3, base, mo3.one)


def _mo3_uniqueness_gap():
    mo3 = validate_logic(mo_logic(3))
    _uniqueness_gap(reduced_space(mo3), mo3.index("a"))


def _nonfaithful_faces():
    # two faces with states on them and one without any, on a fresh
    # logic: faces are stored per logic, so a shared one may build none
    logic = validate_logic(load_fixture("nonfaithful").logic().describe())
    f, e, g, empty = (logic.index(label) for label in
                      ("yg1m1", "yg1c1", "yg2c1", "x"))
    transition_probability(logic, f, e)
    transition_probability(logic, f, g)
    with pytest.raises(UndefinedTransition):
        transition_probability(logic, f, empty)


def _stateless_base():
    # on a fresh logic: the base is stored per logic, so a shared one may
    # build none
    logic = validate_logic(load_fixture("stateless").logic().describe())
    with pytest.raises(EmptyStateSpace):
        check_condition_F(logic)


@pytest.mark.parametrize("run", [_mo3_base, _mo3_face, _mo3_conditional,
                                 _mo3_uniqueness_gap, _nonfaithful_faces,
                                 _stateless_base])
def test_pivot_sequence_matches_fraction_tableau(monkeypatch, run):
    calls = _lp_calls(monkeypatch, run)
    _assert_same_path(calls)
    if run is _stateless_base:
        # phase 1 alone: it ends infeasible, so no objective is asked
        assert len(calls) == 1 and not Polyhedron(*calls[0][:2]).feasible
    else:
        assert sum(len(objectives) for _, _, objectives in calls) >= 2


def test_pivot_sequence_systems_cover_scales_and_doubling(monkeypatch):
    # the conditional system has rational right-hand sides (artificial
    # columns scaled by d_i > 1) and the gap system doubles the columns
    conditional = _lp_calls(monkeypatch, _mo3_conditional)
    assert any(F(v).denominator > 1 for _, b, _ in conditional for v in b)
    k = reduced_space(validate_logic(mo_logic(3))).k
    gap = _lp_calls(monkeypatch, _mo3_uniqueness_gap)
    assert any(len(A[0]) == 2 * k and objectives for A, _, objectives in gap)


def test_condition_G_on_boolean_ambient_builds_no_face(monkeypatch):
    # on the 512-element prod33 ambient, a powerset, F, G, H, the
    # vertices, conditioning and the Lemma 3 sweep are all closed forms:
    # none of them builds a polyhedron, not even the base system
    comp = load_fixture("prod33").composite()
    logic = validate_logic(comp.ambient.describe())  # fresh: nothing stored
    fresh = make_composite(comp.factor, logic, comp.pi1.map, comp.pi2.map)
    factor = fresh.factor

    def run():
        witness = check_condition_F(logic).witness
        given = logic.atoms[0]
        assert conditional_probability(logic, witness, given).kind == "unique"
        assert check_condition_G(logic).holds
        assert check_condition_H(logic).holds
        rhos = state_polytope(logic).vertices
        pairs = [(e, f) for e in factor.atoms for f in factor.atoms]
        assert lemma3_sweep(fresh, rhos, pairs) == len(rhos) * len(pairs)

    assert _lp_calls(monkeypatch, run) == []


def test_pivot_sequence_pastings_run_on_the_array_kernel(monkeypatch):
    # the Greechie pastings' tableaux are above the size rule and stay
    # within int64; the MO3 ones are below it
    for run in (_nonfaithful_faces, _stateless_base):
        storages = _storage(_lp_calls(monkeypatch, run))
        assert storages and all(s == ["int64"] * len(s) for s in storages)
    storages = _storage(_lp_calls(monkeypatch, _mo3_face))
    assert storages and all(s == ["rows"] * len(s) for s in storages)


def _system_with_objectives(A, x0, objectives):
    """A, b = A x0 and both senses of every objective."""
    b = [sum((a * x for a, x in zip(row, x0)), F(0)) for row in A]
    return A, b, [(c, maximize) for c in objectives
                  for maximize in (False, True)]


def test_array_kernel_starts_on_python_ints_beyond_int64_bound():
    # a denominator near 2^40 scales the rows beyond 2^31 but within
    # int64 from the start
    d = (1 << 40) + 1
    A = [[F(1, d), F(2, d), F(-1, d), 1, 0],
         [F(3, d), F(-1, d), 1, 0, 1],
         [1, 1, 1, 1, 1]]
    calls = [_system_with_objectives(A, [F(1, 7), 0, F(2, 5), F(1, 3), 0],
                                     [[1, -1, 2, 0, 3], [0, 0, 0, 1, -1]])]
    with mock.patch.object(rlp, "_ARRAY_CELLS", 0):
        _assert_same_path(calls)
        storages = _storage(calls)
    assert storages and all(s == ["object"] * len(s) for s in storages)


def test_array_kernel_moves_to_python_ints_mid_solve():
    # entries up to 1e5 fit int64, their products after a pivot or two
    # do not: the storage changes between pivots of one tableau
    for seed in range(20):
        rng = random.Random(seed)
        m = rng.randint(3, 5)
        n = rng.randint(m + 1, 8)

        def entries():
            return [rng.randint(-10**5, 10**5) for _ in range(n)]

        A = [entries() for _ in range(m)]
        x0 = [rng.randint(0, 3) for _ in range(n)]
        calls = [_system_with_objectives(A, x0, [entries(), entries()])]
        with mock.patch.object(rlp, "_ARRAY_CELLS", 0):
            _assert_same_path(calls)
            storages = _storage(calls)
        for s in storages:
            assert s == sorted(s, key=["int64", "object"].index), seed
        assert storages[0][0] == "int64", seed
        assert storages[0][-1] == "object", seed


def _primitive_peaks(calls):
    """For each tableau the Fraction oracle pivots on while answering
    calls, the largest entry of its rows in primitive integer form
    before every pivot: the rows the integer tableau would hold if it
    made every row primitive after every pivot."""
    peaks = []
    pivot = oracles._pivot

    def peak(T):
        best = 0
        for row in T:
            d = lcm(*(v.denominator for v in row))
            nums = [v.numerator * (d // v.denominator) for v in row]
            best = max(best, max(map(abs, nums)) // (gcd(*nums) or 1))
        return best

    def recording(T, basis, row, col):
        if not peaks or peaks[-1][0] is not T:
            peaks.append((T, []))
        peaks[-1][1].append(peak(T))
        pivot(T, basis, row, col)

    with mock.patch.object(oracles, "_pivot", recording):
        for A, b, objectives in calls:
            poly = FractionPolyhedron(A, b)
            for c, maximize in objectives:
                poly.solve(c, maximize)
    return [values for _, values in peaks]


def _storage_of_primitive_rows(peaks):
    """The storage of every pivot when the int64 bound is checked on
    primitive rows: int64 until a row has reached 2^31, then object."""
    out = []
    for values in peaks:
        gone = [v >= rlp._INT64_BOUND for v in values]
        out.append(["object" if any(gone[:i + 1]) else "int64"
                    for i in range(len(values))])
    return out


def _large_entry_calls(seed, lo, hi):
    """Two rows of five entries of magnitude lo..hi with random signs,
    consistent by construction, and two small objectives."""
    rng = random.Random(seed)

    def entries(lo, hi):
        return [rng.choice((-1, 1)) * rng.randint(lo, hi) for _ in range(5)]

    A = [entries(lo, hi) for _ in range(2)]
    x0 = [rng.randint(0, 3) for _ in range(5)]
    return [_system_with_objectives(A, x0, [entries(0, 3), entries(0, 3)])]


def test_array_kernel_crosses_the_gcd_threshold_within_int64():
    # entries of 2^10..2^13 make rows whose primitive form passes
    # _REDUCE_AT but stays below 2^31: the array rows are reduced on the
    # way, int64 holds them throughout, and the pivots and final rows
    # are those of the Fraction tableau
    crossed = 0
    for seed in range(20):
        calls = _large_entry_calls(seed, 2 ** 10, 2 ** 13)
        with mock.patch.object(rlp, "_ARRAY_CELLS", 0):
            _assert_same_path(calls)
            storages = _storage(calls)
            poly = Polyhedron(*calls[0][:2])
        assert storages and all(s == ["int64"] * len(s)
                                for s in storages), seed
        assert poly.feasible and all(gcd(*row) == 1 for row in poly.rows)
        peak = max(max(values) for values in _primitive_peaks(calls))
        assert peak < rlp._INT64_BOUND, seed
        crossed += peak >= rlp._REDUCE_AT
    assert crossed == 20


def test_array_kernel_leaves_int64_where_primitive_rows_would():
    # rows are made primitive only past _REDUCE_AT, and always before
    # the int64 bound is checked, so the storage of every pivot is the
    # one that primitive rows give: entries up to 1e5 leave int64 mid
    # solve, entries up to 2^15 on some seeds and not on others
    left = 0
    for seed in range(20):
        for calls in (_large_entry_calls(seed, 2 ** 10, 2 ** 15),
                      _large_entry_calls(seed, 1, 10 ** 5)):
            with mock.patch.object(rlp, "_ARRAY_CELLS", 0):
                storages = _storage(calls)
            assert storages == _storage_of_primitive_rows(
                _primitive_peaks(calls)), seed
            left += any("object" in s for s in storages)
    assert 0 < left < 40


def test_array_kernel_reads_fraction_rows(monkeypatch):
    # a tableau above the size rule built from rows of Fractions:
    # conditioning on the top pins every atom to the base state's value,
    # so the right-hand sides hold rationals such as 1/3, and the rows
    # that hold them are read over their lcm
    logic = load_fixture("nonfaithful").logic()
    space = reduced_space(logic)
    rho = face(logic).solve(space.indicator(logic.index("yg1c1")),
                            maximize=True)
    base = space.state(rho.x)
    calls = _lp_calls(monkeypatch, lambda: conditional_probability(
        logic, base, logic.one))
    (A, b, objectives), = calls
    assert any(type(v) is F and v.denominator > 1 for v in b)
    assert (len(A) + 1) * (len(A) + len(A[0]) + 1) >= rlp._ARRAY_CELLS
    assert objectives
    _assert_same_path(calls)
    storages = _storage(calls)
    assert storages[0] == ["int64"] * len(storages[0])
    poly = Polyhedron(A, b)
    assert poly.feasible
    assert all(type(v) is int for row in poly.rows for v in row)
    assert all(gcd(*row) == 1 for row in poly.rows)


def test_array_kernel_returns_python_numbers():
    # rows of Python ints and results of Fractions of Python ints, as on
    # the list kernel
    logic = load_fixture("nonfaithful").logic()
    space = reduced_space(logic)
    poly = space.polyhedron()
    n = len(poly.rows[0]) - 1
    assert (len(poly.rows) + 1) * (n + 1) >= rlp._ARRAY_CELLS
    assert all(type(v) is int for row in poly.rows for v in row)
    assert all(type(v) is int for v in poly.basis)
    for e in (logic.index("yg1c1"), logic.one):
        for maximize in (False, True):
            res = poly.solve(space.indicator(e), maximize)
            assert res.optimal
            for v in (res.value, *res.x):
                assert type(v) is F
                assert type(v.numerator) is int
                assert type(v.denominator) is int


def test_vertices_of_probability_simplex():
    verts = enumerate_vertices_basis(Polyhedron([[1, 1, 1]], [1]))
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
        basis = enumerate_vertices_basis(Polyhedron(A, b))
        dd = enumerate_vertices_dd(A, b)
        assert basis == dd


def test_vertices_with_redundant_row():
    assert enumerate_vertices_basis(Polyhedron([[1, 0], [0, 1], [1, 1]],
                                               [1, 2, 3])) == [(F(1), F(2))]


def test_vertices_when_every_row_is_redundant():
    # 0 x = 0 keeps no canonical row, and the polyhedron is the orthant
    # with its one vertex at the origin: the column count is its own
    poly = Polyhedron([[0, 0]], [0])
    assert poly.feasible and poly.rows == [] and poly.n == 2
    assert enumerate_vertices_basis(poly) == [(0, 0)]


def test_vertices_empty_when_infeasible():
    assert enumerate_vertices_basis(Polyhedron([[1, 1], [1, 1]], [1, 2])) == []
    assert enumerate_vertices_dd([[1, 1], [1, 1]], [1, 2]) == []


def test_vertex_budget_raised():
    A = [[1] * 30]
    with pytest.raises(VertexBudgetExceeded):
        enumerate_vertices_basis(Polyhedron(
            [[1] * 30, [1] + [0] * 29, [0, 1] + [0] * 28, [0, 0, 1] + [0] * 27],
            [1, 0, 0, 0]), budget=10)
    with pytest.raises(VertexBudgetExceeded):
        enumerate_vertices_dd(A, [1], budget=10)
