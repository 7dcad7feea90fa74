"""Exact-rational states, the state polytope, and the conditional calculus.

A state assigns a probability in [0, 1] to every event, gives the unit
probability 1, and is additive on orthogonal pairs whose supremum exists.
Everything here runs in exact rational arithmetic: uniqueness and
equality questions would be corrupted by any tolerance.

Internally a state is handled through its values on the atoms.  Every
element of a finite orthomodular poset decomposes into pairwise
orthogonal atoms (peel off a minimal atom a and continue with e ^ a',
which the orthomodular law provides), so additivity pins the value of
every element to the sum over its decomposition.  The original
constraint system over all elements is therefore equivalent to a small
system over the atom values, which keeps even 512-element product
algebras tractable.  ``ReducedStateSpace.counts`` holds the
decompositions as one integer matrix: the constraint rows, the element
values of a state and the state check all read it.

On a powerset every state is a mixture of the point masses on the
atoms, so no LP runs there.  ``reduced_space`` is the one place that
asks whether a logic is a powerset, and a ``PowersetStateSpace``
answers every question off the order matrix: P(f|e) is 1 when e <= f,
0 when e is orthogonal to f and ranges over [0, 1] otherwise; the
atomic state of e is f -> [e <= f]; the vertices are the point masses,
in the order basis enumeration lists them; F's witness averages the
point masses that its LPs would find; G holds, H holds with only the
zero vacuous, and the conditional of a state on e is its ratio state.
``transitions`` asks a whole array of pairs at once, as the lemma and
cloning sweeps do.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from fractions import Fraction
from operator import mul

import numpy as np

from . import rational_lp as rlp
from .core import FiniteLogic, _bool_matmul, derived, join_table
from .errors import (
    EmptyStateSpace,
    EquivalenceViolated,
    InternalInvariantError,
    NotAnAtom,
    NotUnique,
    StateInvariantError,
    UndefinedTransition,
    VertexBudgetExceeded,
    ZeroCondition,
)

DEFAULT_VERTEX_BUDGET = 100_000


def format_rational(q: Fraction) -> str:
    return f"{q.numerator}/{q.denominator}"


# the largest decimal exponent ``parse_rational`` accepts: CPython's
# default limit on the digits of an integer string, which ``json``
# already enforces on integers
_MAX_EXPONENT = 4300
_EXPONENT = re.compile(r"e([-+]?\d+(?:_\d+)*)$", re.IGNORECASE)


def parse_rational(text: str) -> Fraction:
    """"1/3", "0.5" or "25e-2" as a ``Fraction``.  An exponent beyond
    ``_MAX_EXPONENT`` is refused: ``Fraction`` would build 10 to it."""
    text = text.strip()
    exponent = _EXPONENT.search(text)
    if exponent and abs(int(exponent[1])) > _MAX_EXPONENT:
        raise ValueError(f"decimal exponent beyond {_MAX_EXPONENT}")
    return Fraction(text)


class State:
    """A probability assignment on a validated logic.

    Values are exact ``Fraction`` objects indexed by element.  The
    constructor checks bounds, normalization and additivity; internal
    code that builds states from feasible atom vectors passes their
    ``Fraction`` values and skips the check.
    """

    __slots__ = ("logic", "values")

    def __init__(self, logic: FiniteLogic, values, _checked=False):
        vals = tuple(values) if _checked else tuple(map(Fraction, values))
        if not _checked:
            _check_state(logic, vals)
        self.logic = logic
        self.values = vals

    def __getitem__(self, e: int) -> Fraction:
        return self.values[e]

    def __eq__(self, other):
        return (isinstance(other, State) and other.logic is self.logic
                and other.values == self.values)

    def __hash__(self):
        return hash((id(self.logic), self.values))

    def __repr__(self):
        shown = ", ".join(
            f"{self.logic.labels[a]}={self.values[a]}" for a in self.logic.atoms[:6]
        )
        return f"State({shown}{'...' if len(self.logic.atoms) > 6 else ''})"

    def to_dict(self, logic_ref=None) -> dict:
        return {
            "logic": logic_ref if logic_ref is not None else self.logic.describe().to_dict(),
            "values": [format_rational(v) for v in self.values],
        }

    def mix(self, other: "State", weight: Fraction) -> "State":
        """Convex combination weight*self + (1-weight)*other."""
        w = Fraction(weight)
        if not 0 <= w <= 1 or other.logic is not self.logic:
            raise StateInvariantError("mixing needs a weight in [0, 1] and "
                                      "states on the same logic")
        vals = [w * a + (1 - w) * b for a, b in zip(self.values, other.values)]
        return State(self.logic, vals, _checked=True)


def _check_state(logic: FiniteLogic, vals) -> None:
    if len(vals) != logic.n:
        raise StateInvariantError(f"expected {logic.n} values, got {len(vals)}")
    for e, v in enumerate(vals):
        if not 0 <= v <= 1:
            raise StateInvariantError(
                f"value {v} of {logic.labels[e]!r} outside [0, 1]"
            )
    if vals[logic.one] != 1:
        raise StateInvariantError("unit must carry probability 1")
    if vals[logic.zero] != 0:
        raise StateInvariantError("zero must carry probability 0")
    space = reduced_space(logic)
    p = [vals[a] for a in space.atoms]
    # values pinned by the atom decompositions...
    for e, (v, w) in enumerate(zip(vals, space.state(p).values)):
        if v != w:
            raise StateInvariantError(
                f"value of {logic.labels[e]!r} is not the sum over its "
                "orthogonal atom decomposition"
            )
    # ...plus the deduplicated additivity rows give full additivity
    nums, _ = rlp._integer_row(p)
    if any(sum(map(mul, row, nums)) for row in space.rows):
        raise StateInvariantError("additivity fails on an orthogonal pair")


class ReducedStateSpace:
    """Constraint system for the states of one logic, in atom coordinates,
    and the answers of the state layer by exact LP over it.

    ``counts`` is the read-only (n, k) integer matrix of the atom
    decompositions: ``counts[e, i]`` is 1 when atom i is in the
    decomposition of e, else 0.  A state's value on e is row e times its
    atom values; the additivity rows, the normalization row and every
    objective and face row are integer rows built from it.
    """

    def __init__(self, logic: FiniteLogic):
        self.logic = logic
        self.atoms = logic.atoms
        self.k = len(self.atoms)
        self.counts = self._decompositions()
        self.counts.flags.writeable = False
        additivity = self._additivity_rows()
        self.rows = tuple(map(tuple, additivity.tolist()))
        self.norm = self.indicator(logic.one)
        # the additivity rows and the normalization row, read by every
        # polyhedron of this logic
        self._base = np.concatenate(
            (additivity, self.counts[logic.one][None]), dtype=np.int64)
        self._base.flags.writeable = False

    # -- construction ---------------------------------------------------

    def _decompositions(self):
        # peel all elements at once: while r is not the zero, count the
        # first atom a below r and continue with r ^ a'
        logic = self.logic
        atoms = list(self.atoms)
        below = logic.leq[atoms]  # below[i, r]: atom i <= r
        meet = join_table(logic).meet
        first = below.argmax(axis=0)
        counts = np.zeros((logic.n, self.k), dtype=np.int8)
        elems = r = np.arange(logic.n)
        while (live := r != logic.zero).any():
            elems, r = elems[live], r[live]
            i = first[r]
            counts[elems, i] = 1
            # finiteness and validation guarantee an atom below r and the
            # meet r ^ a'
            stalled = ~below[i, r]
            r = meet[r, np.take(atoms, i)]
            stalled |= r < 0
            if stalled.any():
                e = elems[stalled][0]
                raise InternalInvariantError(
                    f"decomposition of {logic.labels[e]!r} stalled"
                )
        return counts

    def _additivity_rows(self):
        """Integer rows s - e - f over the decompositions of every
        orthogonal pair e, f with join s, deduplicated and sorted."""
        join = join_table(self.logic).join
        counts = self.counts
        e, f = np.nonzero(np.triu(join >= 0))
        rows = counts[join[e, f]] - counts[e] - counts[f]  # entries in -2..1
        rows = rows[rows.any(axis=1)]
        rows = rows[np.lexsort(rows.T[::-1])]  # first column first
        fresh = np.ones(len(rows), dtype=bool)
        fresh[1:] = (rows[1:] != rows[:-1]).any(axis=1)
        return rows[fresh]

    # -- helpers ----------------------------------------------------------

    def indicator(self, e: int):
        return tuple(self.counts[e].tolist())

    def state(self, p) -> State:
        """The state with atom values p: every element's value is one
        integer product of ``counts`` with p over a common denominator."""
        nums, d = rlp._integer_row(p)
        # int64 holds the sums while k times the largest entry does
        fits = max(map(abs, nums), default=0) * self.k < 1 << 63
        dtype = np.int64 if fits else object
        sums = (self.counts @ np.array(nums, dtype=dtype)).tolist()
        value = {v: Fraction(v, d) for v in set(sums)}
        return State(self.logic, [value[v] for v in sums], _checked=True)

    def system(self, extra=()):
        """(A, b): the additivity rows, the normalization row and the
        ``extra`` (coefficients, right-hand side) rows, with A one int64
        array."""
        A = self._base
        if extra:
            A = np.concatenate((A, [coeffs for coeffs, _ in extra]))
        b = [0] * len(self.rows) + [1] + [rhs for _, rhs in extra]
        return A, b

    def polyhedron(self, extra=()) -> rlp.Polyhedron:
        return rlp.Polyhedron(*self.system(extra))

    def feasible(self, extra=()) -> bool:
        return self.polyhedron(extra).feasible

    def face_rows(self, e: int):
        return ((self.indicator(e), 1),)

    # -- answers ----------------------------------------------------------

    def vertices(self, budget):
        """The extreme states: the vertices of the base polyhedron."""
        return tuple(map(self.state, rlp.enumerate_vertices_basis(
            face(self.logic), budget)))

    def condition_F(self) -> FaithfulnessReport:
        """One state positive on e is found per element by maximizing the
        value of e over the polytope; their uniform average is positive
        everywhere at once, so faithfulness reduces to n - 1 objectives
        over one system."""
        logic = self.logic
        poly = face(logic)
        if not poly.feasible:
            raise EmptyStateSpace(
                "no state exists, so no faithful state exists")
        maximizers = []
        for e in range(logic.n):
            if e == logic.zero:
                continue
            res = poly.solve(self.indicator(e), maximize=True)
            if not res.optimal:
                raise InternalInvariantError("bounded LP did not solve")
            if res.value == 0:
                return FaithfulnessReport(holds=False, failing_element=e)
            maximizers.append(res.x)
        # the average over one common denominator: integer sums per atom
        nums, d = rlp._integer_row([x for p in maximizers for x in p])
        d *= len(maximizers)
        avg = [Fraction(sum(nums[i::self.k]), d) for i in range(self.k)]
        return FaithfulnessReport(holds=True, witness=self.state(avg))

    def condition_G(self, budget) -> UniqueConditionalsReport:
        """Existence on polytope vertices plus a two-state gap test per
        event.

        Scaled restrictions of mixtures are convex combinations of scaled
        vertex restrictions, so vertex existence implies existence for
        every base state.  Non-uniqueness for any base yields two states
        with value 1 on e agreeing below e, which the gap LP detects
        coordinatewise unless every atom lies below e or e' and no gap
        can open.
        """
        logic = self.logic
        verts = _polytope_vertices(logic, budget)
        for e in range(logic.n):
            if e == logic.zero:
                continue
            # the maximum over the polytope is attained at a vertex
            if all(v[e] == 0 for v in verts):
                continue  # never conditionable; imposes nothing
            v = _vertex_without_conditional(self, verts, e)
            if v is not None:
                return UniqueConditionalsReport(
                    holds=False, failure_kind="non_existent",
                    element=e, vertex=v,
                )
            gap = _uniqueness_gap(self, e)
            if gap is not None:
                return UniqueConditionalsReport(
                    holds=False, failure_kind="non_unique",
                    element=e, witnesses=gap,
                )
        return UniqueConditionalsReport(holds=True)

    def condition_H(self, budget) -> StrongStateSpaceReport:
        """The separation optimum for f not below e (maximize 1 - value(e)
        on the face value(f) = 1) is attained at a face vertex, and the
        face's vertices are exactly the polytope vertices lying on it, so
        one vertex sweep answers every pair."""
        logic = self.logic
        verts = _polytope_vertices(logic, budget)
        # ones[e, v]: vertex v gives e the value 1
        ones = np.array([[x == 1 for x in v.values] for v in verts],
                        dtype=bool).reshape(len(verts), logic.n).T
        reached = ones.any(axis=1)
        vacuous = tuple(np.flatnonzero(~reached).tolist())
        # covered[f, e]: e has value 1 on every vertex where f has
        covered = ~_bool_matmul(ones, ~ones.T)
        bad = np.argwhere(covered & ~logic.leq & reached[:, None])
        if bad.size:
            f, e = bad[0].tolist()
            return StrongStateSpaceReport(
                holds=False, violating_pair=(e, f),
                evidence=verts[int(np.flatnonzero(ones[f])[-1])],
                vacuous_premises=vacuous,
            )
        return StrongStateSpaceReport(holds=True, vacuous_premises=vacuous)

    def conditional(self, base: State, e: int) -> ConditionalResult:
        """Each atom value minimized and maximized over the conditional
        system of ``base`` on e."""
        poly = self.polyhedron(_conditional_rows(self, base, e))
        if not poly.feasible:
            return ConditionalResult("non_existent", e, base)
        p, gap = _atom_ranges(self, poly)
        if gap is None:
            return ConditionalResult("unique", e, base, state=self.state(p))
        _, lo, hi = gap
        return ConditionalResult("non_unique", e, base,
                                 witnesses=(self.state(lo.x),
                                            self.state(hi.x)))

    def transition(self, f: int, e: int) -> TransitionProbability:
        """value(f) minimized and maximized over the face value(e) = 1."""
        on_e = face(self.logic, e)
        obj = self.indicator(f)
        lo = on_e.solve(obj)
        if not lo.optimal:
            return _transition(self.logic, e, 1, 0)  # raises
        hi = on_e.solve(obj, maximize=True)
        return _transition(self.logic, e, lo.value, hi.value)

    def transitions(self, f, e):
        """``transition_probability`` pair by pair, as object arrays of
        ``Fraction``."""
        low = np.empty(f.shape, dtype=object)
        high = np.empty(f.shape, dtype=object)
        for i in np.ndindex(f.shape):
            try:
                tp = transition_probability(self.logic, int(f[i]), int(e[i]))
            except UndefinedTransition:
                low[i], high[i] = _UNIT[1], _UNIT[0]
            else:
                low[i], high[i] = tp.low, tp.high
        return low, high

    def atomic(self, e: int) -> State:
        """Each atom value minimized and maximized over the face of e."""
        labels = self.logic.labels
        on_e = face(self.logic, e)
        if not on_e.feasible:
            raise NotUnique(
                f"no state assigns probability 1 to atom {labels[e]!r}"
            )
        p, gap = _atom_ranges(self, on_e)
        if gap is not None:
            i, lo, hi = gap
            raise NotUnique(
                f"states concentrated on atom {labels[e]!r} are not "
                f"unique: value of {labels[self.atoms[i]]!r} ranges over "
                f"[{lo.value}, {hi.value}]"
            )
        return self.state(p)


class PowersetStateSpace(ReducedStateSpace):
    """The states of a powerset: the simplex spanned by the point masses
    on its atoms.

    A decomposition is the set of atoms below an element and no
    additivity row survives, so the base system is the normalization row
    alone, and every answer is read off the order matrix with no LP.
    """

    def _decompositions(self):
        return self.logic.leq[list(self.atoms)].T.astype(np.int8)

    def _additivity_rows(self):
        # orthogonal pairs are disjoint unions, so every row cancels
        return np.zeros((0, self.k), dtype=np.int8)

    def point_mass(self, a: int) -> State:
        return State(self.logic, [_UNIT[x] for x in self.logic.leq[a].tolist()],
                     _checked=True)

    def vertices(self, budget):
        """The point masses.  Basis enumeration tries the k one-column
        bases of the normalization row and sorts the unit vectors it
        finds, which puts the last atom first."""
        if self.k > budget:
            raise VertexBudgetExceeded(
                f"{self.k} candidate bases exceed the budget {budget}"
            )
        return tuple(map(self.point_mass, reversed(self.atoms)))

    def condition_F(self) -> FaithfulnessReport:
        """The average of the maximizers the LP finds: from its starting
        vertex, the point mass on the first atom, maximizing value(e)
        ends at the point mass on the first atom below e.  So atom i gets
        the share of nonzero elements whose first atom is i."""
        logic = self.logic
        if not self.k:
            raise EmptyStateSpace(
                "no state exists, so no faithful state exists")
        first = np.delete(self.counts.argmax(axis=1), logic.zero)
        tally = np.bincount(first, minlength=self.k).tolist()
        return FaithfulnessReport(holds=True, witness=self.state(
            [Fraction(t, logic.n - 1) for t in tally]))

    def condition_G(self, budget) -> UniqueConditionalsReport:
        # conditioning is classical: the ratio state is the one
        # conditional, once the vertices are within the budget
        _polytope_vertices(self.logic, budget)
        return UniqueConditionalsReport(holds=True)

    def condition_H(self, budget) -> StrongStateSpaceReport:
        # the point masses on the atoms below f reach 1 on f, and one of
        # them misses e unless f <= e; only the zero has no atom below it
        _polytope_vertices(self.logic, budget)
        return StrongStateSpaceReport(holds=True,
                                      vacuous_premises=(self.logic.zero,))

    def conditional(self, base: State, e: int) -> ConditionalResult:
        """The ratio state: base(a)/base(e) on each atom a below e, which
        sum to 1, and 0 on the others."""
        p = [base[a] / base[e] if below else _UNIT[0]
             for a, below in zip(self.atoms, self.counts[e].tolist())]
        return ConditionalResult("unique", e, base, state=self.state(p))

    def transition(self, f: int, e: int) -> TransitionProbability:
        low, high = self.transitions(f, e)
        return _transition(self.logic, e, int(low), int(high))

    def transitions(self, f, e):
        """The range of value(f) on the face value(e) = 1 as 0/1 int8
        arrays (or scalars): the states there mix the point masses on the
        atoms below e, so value(f) reaches 0 unless e <= f and 1 unless e
        is orthogonal to f.  On the zero this reads 1 > 0."""
        leq = self.logic.leq
        return (leq[e, f].astype(np.int8),
                (~leq[e, self.logic.ortho[f]]).astype(np.int8))

    def atomic(self, e: int) -> State:
        return self.point_mass(e)


@derived
def reduced_space(logic: FiniteLogic) -> ReducedStateSpace:
    """The state space of ``logic``, the closed forms on a powerset: the
    one place where the state layer asks whether a logic is Boolean."""
    return (PowersetStateSpace if logic.is_boolean
            else ReducedStateSpace)(logic)


@derived
def face(logic: FiniteLogic, e: int | None = None) -> rlp.Polyhedron:
    """The state polytope (``e`` None) or its face value(e) = 1, with
    phase 1 run once per logic and condition; an empty polytope or face
    is stored as an infeasible polyhedron."""
    space = reduced_space(logic)
    return space.polyhedron(() if e is None else space.face_rows(e))


# ---------------------------------------------------------------------------
# state polytope
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class StatePolytope:
    """All states of a logic, given by its extreme states."""

    logic: FiniteLogic
    vertices: tuple


@derived
def _polytope_vertices(logic, budget=DEFAULT_VERTEX_BUDGET):
    """The extreme states, enumerated and built once per logic and
    budget."""
    return reduced_space(logic).vertices(budget)


@derived
def state_polytope(logic: FiniteLogic,
                   budget=DEFAULT_VERTEX_BUDGET) -> StatePolytope:
    """Enumerate every extreme state in exact arithmetic."""
    verts = _polytope_vertices(logic, budget)
    if not verts:
        raise EmptyStateSpace(f"{logic!r} admits no state")
    return StatePolytope(logic, verts)


# ---------------------------------------------------------------------------
# condition (F): a faithful state exists
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FaithfulnessReport:
    holds: bool
    witness: State | None = None
    failing_element: int | None = None


@derived
def check_condition_F(logic: FiniteLogic) -> FaithfulnessReport:
    """Does some state give every nonzero event positive probability?

    The witness is the uniform average of one maximizer of value(e) per
    nonzero e.
    """
    return reduced_space(logic).condition_F()


# ---------------------------------------------------------------------------
# conditional probability
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ConditionalResult:
    """Outcome of conditioning a state on an event.

    kind is "unique", "non_unique" or "non_existent"; a unique result
    carries the conditional ``state``, a non-unique one two distinct
    witness conditionals.  The conditionals are the states mu with
    mu(f) = base(f)/base(e) for every f <= e; on events f compatible with
    e this forces the classical ratio base(f ^ e)/base(e), which the
    tests check against a reference implementation.
    """

    kind: str
    given: int
    base: State
    state: State | None = None
    witnesses: tuple = ()


def _conditional_rows(space, base: State, e: int):
    """Rows pinning mu(f) = base(f)/base(e) for every f <= e.

    Every such f decomposes into atoms below e and base is itself
    additive over that decomposition, so the full constraint family is
    equivalent to its restriction to the atoms below e.
    """
    k = space.k
    return tuple(([0] * i + [1] + [0] * (k - i - 1), base[a] / base[e])
                 for i, a in enumerate(space.atoms) if space.logic.leq[a, e])


def _atom_ranges(space, poly):
    """Minimize and maximize each atom value over poly in atom order, up
    to the first atom where the two differ: (values, None) if there is
    none, else (None, (i, lo, hi)) for that atom i."""
    values = []
    for i, a in enumerate(space.atoms):
        obj = space.indicator(a)
        lo, hi = poly.solve(obj), poly.solve(obj, maximize=True)
        if lo.value != hi.value:
            return None, (i, lo, hi)
        values.append(lo.value)
    return values, None


def conditional_probability(logic: FiniteLogic, base: State,
                            e: int) -> ConditionalResult:
    """States mu with mu(f) = base(f)/base(e) for all f <= e."""
    if base[e] == 0:
        raise ZeroCondition(
            f"base state vanishes on {logic.labels[e]!r}; conditional undefined"
        )
    return reduced_space(logic).conditional(base, e)


# ---------------------------------------------------------------------------
# condition (G): unique conditionals
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class UniqueConditionalsReport:
    holds: bool
    failure_kind: str | None = None   # "non_unique" | "non_existent"
    element: int | None = None
    witnesses: tuple = ()             # two distinct conditional states
    vertex: State | None = None       # base vertex for non-existence


@derived
def check_condition_G(logic: FiniteLogic,
                      budget=DEFAULT_VERTEX_BUDGET) -> UniqueConditionalsReport:
    """Does every state with a nonzero value on e have exactly one
    conditional on e?"""
    return reduced_space(logic).condition_G(budget)


def _vertex_without_conditional(space, verts, e):
    """The first vertex v with v[e] != 0 that has no conditional on e,
    or None."""
    conditionable = (v for v in verts if v[e] != 0)
    if space.logic.is_atom(e):
        # the only atom below e is e itself, so every such vertex pins
        # value(e) = 1: its system is the stored face of e
        v = next(conditionable)
        return None if face(space.logic, e).feasible else v
    return next((v for v in conditionable
                 if not space.feasible(_conditional_rows(space, v, e))), None)


def _uniqueness_gap(space, e):
    """Two distinct states with value 1 on e that agree below e, or None.

    Maximizes mu1_a - mu2_a for each free atom a over one doubled system
    (mu1, mu2): both are states on the face value(e) = 1 with equal
    values below e.
    """
    logic = space.logic
    k = space.k
    atoms = list(space.atoms)
    # a state with value 1 on e has value 0 on e', so if every atom lies
    # below e or below e', two face states agreeing on the atoms below e
    # agree on every atom, hence are equal
    if (logic.leq[atoms, e] | logic.leq[atoms, logic.ortho[e]]).all():
        return None
    A, b = [], []
    base_A, base_b = space.system(space.face_rows(e))
    for row, rhs in zip(base_A.tolist(), base_b):
        A += [row + [0] * k, [0] * k + row]
        b += [rhs, rhs]
    # agreement below e reduces to agreement on the atoms below e (values
    # of every f <= e are sums over atoms below e)
    free = []
    for i, a in enumerate(atoms):
        if logic.leq[a, e]:
            row = [0] * (2 * k)
            row[i], row[k + i] = 1, -1
            A.append(row)
            b.append(0)
        else:
            free.append(i)
    doubled = rlp.Polyhedron(A, b)
    # a gap can only open on atoms not pinned by an agreement row
    for i in free:
        obj = [0] * (2 * k)
        obj[i], obj[k + i] = 1, -1
        res = doubled.solve(obj, maximize=True)
        if res.optimal and res.value > 0:
            return space.state(res.x[:k]), space.state(res.x[k:])
    return None


# ---------------------------------------------------------------------------
# condition (H): strong state space
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class StrongStateSpaceReport:
    holds: bool
    violating_pair: tuple | None = None   # (e, f) with f not <= e
    evidence: State | None = None         # a state with value 1 on f
    vacuous_premises: tuple = ()          # events f with empty face


@derived
def check_condition_H(logic: FiniteLogic,
                      budget=DEFAULT_VERTEX_BUDGET) -> StrongStateSpaceReport:
    """For f not below e: some state must reach 1 on f but stay below 1
    on e."""
    return reduced_space(logic).condition_H(budget)


# ---------------------------------------------------------------------------
# state-independent transition probability
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TransitionProbability:
    """P(f|e): common value of f over all states concentrated on e."""

    exists: bool
    value: Fraction | None = None
    low: Fraction | None = None
    high: Fraction | None = None


# the exact values 0 and 1, indexed by a bool
_UNIT = (Fraction(0), Fraction(1))


def _transition(logic: FiniteLogic, e: int, low, high) -> TransitionProbability:
    """P(f|e) from the range [low, high] of value(f) on the face
    value(e) = 1; an empty face reads low > high and raises."""
    if low > high:
        raise UndefinedTransition(
            f"no state concentrates on {logic.labels[e]!r}"
        )
    low, high = Fraction(low), Fraction(high)
    return TransitionProbability(
        exists=low == high,
        value=low if low == high else None,
        low=low, high=high,
    )


@derived
def transition_probability(logic: FiniteLogic, f: int, e: int) -> TransitionProbability:
    """The range of value(f) over the states with value 1 on e."""
    return reduced_space(logic).transition(f, e)


def transitions(logic: FiniteLogic, f, e):
    """The ranges (low, high) of P(f|e) over index arrays f and e, which
    broadcast to one shape; exact where low == high, and an empty range
    (low 1 > high 0) where no state concentrates on e.

    A powerset reads them off its order matrix as int8 arrays; any other
    logic asks ``transition_probability`` pair by pair and gives object
    arrays of ``Fraction``.
    """
    f, e = np.broadcast_arrays(np.asarray(f, dtype=np.intp),
                               np.asarray(e, dtype=np.intp))
    return reduced_space(logic).transitions(f, e)


@derived
def atomic_state(logic: FiniteLogic, e: int) -> State:
    """The unique state with value 1 on the atom e.

    Componentwise this is f -> P(f|e).  Raises ``NotUnique`` when the
    face is empty or not a single point, which signals input outside the
    faithfulness/uniqueness assumptions.
    """
    if not logic.is_atom(e):
        raise NotAnAtom(f"{logic.labels[e]!r} is not an atom")
    return reduced_space(logic).atomic(e)


# ---------------------------------------------------------------------------
# atom identities
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AtomEquivalenceReport:
    e: int
    f: int
    identities: dict = field(default_factory=dict)
    agree: bool = True


def atom_equivalences(logic: FiniteLogic, e: int, f: int) -> AtomEquivalenceReport:
    """Evaluate the four equivalent atom identities and insist they agree."""
    for x in (e, f):
        if not logic.is_atom(x):
            raise NotAnAtom(f"{logic.labels[x]!r} is not an atom")
    pe = atomic_state(logic, e)
    pf = atomic_state(logic, f)
    table = {
        "P_e(f) = 1": pe[f] == 1,
        "P_f(e) = 1": pf[e] == 1,
        "P_e = P_f": pe.values == pf.values,
        "e = f": e == f,
    }
    outcomes = set(table.values())
    if len(outcomes) != 1:
        raise EquivalenceViolated(
            table,
            f"atom identities disagree for {logic.labels[e]!r}, {logic.labels[f]!r}: {table}",
        )
    return AtomEquivalenceReport(e=e, f=f, identities=table, agree=True)
