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
algebras tractable.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from . import rational_lp as rlp
from .core import FiniteLogic, derived, find_sup
from .errors import (
    EmptyStateSpace,
    EquivalenceViolated,
    InternalInvariantError,
    NoInfimum,
    NotAnAtom,
    NotUnique,
    StateInvariantError,
    UndefinedTransition,
    ZeroCondition,
)

ZERO = Fraction(0)
ONE = Fraction(1)

DEFAULT_VERTEX_BUDGET = 100_000


def format_rational(q: Fraction) -> str:
    return f"{q.numerator}/{q.denominator}"


def parse_rational(text: str) -> Fraction:
    return Fraction(text.strip())


class State:
    """A probability assignment on a validated logic.

    Values are exact ``Fraction`` objects indexed by element.  The
    constructor checks bounds, normalization and additivity; internal
    code that builds states from feasible atom vectors skips the check.
    """

    __slots__ = ("logic", "values")

    def __init__(self, logic: FiniteLogic, values, _checked=False):
        vals = tuple(Fraction(v) for v in values)
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

    def by_label(self) -> dict:
        return {lbl: self.values[i] for i, lbl in enumerate(self.logic.labels)}

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
    for e in range(logic.n):
        if vals[e] != space.value(p, e):
            raise StateInvariantError(
                f"value of {logic.labels[e]!r} is not the sum over its "
                "orthogonal atom decomposition"
            )
    # ...plus the deduplicated additivity rows give full additivity
    for row in space.rows:
        if sum(c * x for c, x in zip(row, p)) != 0:
            raise StateInvariantError("additivity fails on an orthogonal pair")


class ReducedStateSpace:
    """Constraint system for the states of one logic, in atom coordinates."""

    def __init__(self, logic: FiniteLogic):
        self.logic = logic
        self.atoms = logic.atoms
        self.k = len(self.atoms)
        self.pos = {a: i for i, a in enumerate(self.atoms)}
        self.decomp = self._decompositions()
        self.rows = self._additivity_rows()
        self.norm = self.indicator(logic.one)

    # -- construction ---------------------------------------------------

    def _decompositions(self):
        logic = self.logic
        if logic.is_powerset:
            bits = []
            for e in range(logic.n):
                mask = logic.atom_masks[e]
                bits.append(tuple(i for i in range(self.k) if mask >> i & 1))
            return tuple(bits)
        out = []
        for e in range(logic.n):
            parts = []
            r = e
            while r != logic.zero:
                a = next((x for x in self.atoms if logic.leq[x, r]), None)
                if a is None:  # finiteness guarantees an atom below r
                    raise InternalInvariantError(
                        f"no atom below {logic.labels[r]!r}"
                    )
                parts.append(self.pos[a])
                try:
                    r = logic.inf(r, logic.orthocomplement(a))
                except NoInfimum as exc:  # validation guarantees existence
                    raise InternalInvariantError(
                        f"decomposition of {logic.labels[e]!r} stalled"
                    ) from exc
            out.append(tuple(parts))
        return tuple(out)

    def _additivity_rows(self):
        logic = self.logic
        if logic.is_powerset:
            # decompositions are atom sets and orthogonal pairs are
            # disjoint unions, so every additivity row cancels exactly
            return ()
        orth = logic.leq[:, logic.ortho]
        rows = set()
        for e in range(logic.n):
            for f in range(e, logic.n):
                if not orth[e, f]:
                    continue
                s = find_sup(logic.leq, e, f)
                coeffs = [0] * self.k
                for p in self.decomp[s]:
                    coeffs[p] += 1
                for p in self.decomp[e]:
                    coeffs[p] -= 1
                for p in self.decomp[f]:
                    coeffs[p] -= 1
                if any(coeffs):
                    rows.add(tuple(Fraction(c) for c in coeffs))
        return tuple(sorted(rows))

    # -- helpers ----------------------------------------------------------

    def indicator(self, e: int):
        row = [ZERO] * self.k
        for p in self.decomp[e]:
            row[p] += 1
        return tuple(row)

    def value(self, p, e: int) -> Fraction:
        return sum((p[i] for i in self.decomp[e]), ZERO)

    def state(self, p) -> State:
        vals = [self.value(p, e) for e in range(self.logic.n)]
        return State(self.logic, vals, _checked=True)

    def system(self, extra=()):
        A = [list(r) for r in self.rows]
        b = [ZERO] * len(self.rows)
        A.append(list(self.norm))
        b.append(ONE)
        for coeffs, rhs in extra:
            A.append(list(coeffs))
            b.append(Fraction(rhs))
        return A, b

    def polyhedron(self, extra=()) -> rlp.Polyhedron:
        return rlp.Polyhedron(*self.system(extra))

    def feasible(self, extra=()) -> bool:
        return self.polyhedron(extra).feasible

    def face_rows(self, e: int, value=ONE):
        return ((self.indicator(e), Fraction(value)),)


@derived
def reduced_space(logic: FiniteLogic) -> ReducedStateSpace:
    return ReducedStateSpace(logic)


# ---------------------------------------------------------------------------
# state polytope
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class StatePolytope:
    """All states of a logic: vertex list plus the defining constraints.

    Constraints are given in atom coordinates (one coordinate per atom,
    in ``atom_order``); every other element value is the sum over its
    orthogonal atom decomposition.
    """

    logic: FiniteLogic
    vertices: tuple
    atom_order: tuple
    equality_constraints: tuple  # ((coeffs, rhs), ...)
    bound_constraints: tuple     # ((lo, hi), ...) per atom


@derived
def _polytope_vertices(logic, budget=DEFAULT_VERTEX_BUDGET):
    """Vertices in atom coordinates, enumerated once per logic and budget."""
    return rlp.enumerate_vertices_basis(*reduced_space(logic).system(), budget)


def state_polytope(logic: FiniteLogic,
                   budget=DEFAULT_VERTEX_BUDGET) -> StatePolytope:
    """Enumerate every extreme state in exact arithmetic."""
    space = reduced_space(logic)
    verts = _polytope_vertices(logic, budget)
    if not verts:
        raise EmptyStateSpace(f"{logic!r} admits no state")
    constraints = tuple((row, ZERO) for row in space.rows)
    constraints += ((space.norm, ONE),)
    return StatePolytope(
        logic=logic,
        vertices=tuple(space.state(p) for p in verts),
        atom_order=space.atoms,
        equality_constraints=constraints,
        bound_constraints=tuple((ZERO, ONE) for _ in range(space.k)),
    )


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

    One state positive on e is found per element by maximizing the value
    of e over the polytope; their uniform average is positive everywhere
    at once, so faithfulness reduces to n - 1 objectives over one system.
    """
    space = reduced_space(logic)
    poly = space.polyhedron()
    if not poly.feasible:
        raise EmptyStateSpace("no state exists, so no faithful state exists")
    maximizers = []
    for e in range(logic.n):
        if e == logic.zero:
            continue
        res = poly.solve(space.indicator(e), maximize=True)
        if not res.optimal:
            raise InternalInvariantError("bounded LP did not solve")
        if res.value == 0:
            return FaithfulnessReport(holds=False, failing_element=e)
        maximizers.append(res.x)
    m = len(maximizers)
    avg = [sum(p[i] for p in maximizers) / m for i in range(space.k)]
    return FaithfulnessReport(holds=True, witness=space.state(avg))


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
    logic = space.logic
    pe = base[e]
    rows = []
    for a in space.atoms:
        if logic.leq[a, e]:
            unit = [ZERO] * space.k
            unit[space.pos[a]] = ONE
            rows.append((tuple(unit), base[a] / pe))
    return tuple(rows)


def conditional_probability(logic: FiniteLogic, base: State,
                            e: int) -> ConditionalResult:
    """States mu with mu(f) = base(f)/base(e) for all f <= e."""
    if base[e] == 0:
        raise ZeroCondition(
            f"base state vanishes on {logic.labels[e]!r}; conditional undefined"
        )
    space = reduced_space(logic)
    poly = space.polyhedron(_conditional_rows(space, base, e))
    if not poly.feasible:
        return ConditionalResult("non_existent", e, base)

    lo_states, hi_states = {}, {}
    unique = True
    first_gap = None
    for i, a in enumerate(space.atoms):
        lo = poly.solve(space.indicator(a))
        hi = poly.solve(space.indicator(a), maximize=True)
        lo_states[i], hi_states[i] = lo, hi
        if lo.value != hi.value and first_gap is None:
            unique = False
            first_gap = i

    if unique:
        p = tuple(lo_states[i].value for i in range(space.k))
        return ConditionalResult("unique", e, base, state=space.state(p))
    w1 = space.state(lo_states[first_gap].x)
    w2 = space.state(hi_states[first_gap].x)
    return ConditionalResult("non_unique", e, base, witnesses=(w1, w2))


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
    """Existence on polytope vertices plus a two-state gap LP per event.

    Scaled restrictions of mixtures are convex combinations of scaled
    vertex restrictions, so vertex existence implies existence for every
    base state.  Non-uniqueness for any base yields two states with value
    1 on e agreeing below e, which the gap LP detects coordinatewise.
    """
    space = reduced_space(logic)
    verts = _polytope_vertices(logic, budget)
    for e in range(logic.n):
        if e == logic.zero:
            continue
        # the maximum over the polytope is attained at a vertex
        if all(space.value(p, e) == 0 for p in verts):
            continue  # never conditionable; imposes nothing
        if not logic.is_powerset:
            # on a powerset the ratio state itself is a conditional, so
            # existence never fails and only other logics need the LPs
            for p in verts:
                if space.value(p, e) == 0:
                    continue
                base = space.state(p)
                rows = _conditional_rows(space, base, e)
                if not space.feasible(rows):
                    return UniqueConditionalsReport(
                        holds=False, failure_kind="non_existent",
                        element=e, vertex=base,
                    )
        gap = _uniqueness_gap(space, e)
        if gap is not None:
            return UniqueConditionalsReport(
                holds=False, failure_kind="non_unique",
                element=e, witnesses=gap,
            )
    return UniqueConditionalsReport(holds=True)


def _uniqueness_gap(space, e):
    """Two distinct states with value 1 on e that agree below e, or None.

    Maximizes mu1_a - mu2_a for each free atom a over one doubled system
    (mu1, mu2): both are states on the face value(e) = 1 with equal
    values below e.
    """
    logic = space.logic
    k = space.k
    A, b = [], []
    base_A, base_b = space.system(space.face_rows(e))
    for row, rhs in zip(base_A, base_b):
        A.append(list(row) + [ZERO] * k)
        b.append(rhs)
        A.append([ZERO] * k + list(row))
        b.append(rhs)
    # agreement below e reduces to agreement on the atoms below e (values
    # of every f <= e are sums over atoms below e)
    free = []
    for a in space.atoms:
        if logic.leq[a, e]:
            row = [ZERO] * (2 * k)
            row[space.pos[a]] = ONE
            row[k + space.pos[a]] = -ONE
            A.append(row)
            b.append(ZERO)
        else:
            free.append(space.pos[a])
    if not free:
        return None
    # if the face pins the total free-atom mass to zero, two face states
    # agreeing on the atoms below e agree on every atom, hence are equal
    total = [ZERO] * k
    for i in free:
        total[i] = ONE
    top = space.polyhedron(space.face_rows(e)).solve(total, maximize=True)
    if top.optimal and top.value == 0:
        return None
    doubled = rlp.Polyhedron(A, b)
    # a gap can only open on atoms not pinned by an agreement row
    for i in free:
        obj = [ZERO] * (2 * k)
        obj[i] = ONE
        obj[k + i] = -ONE
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
    on e.  The separation optimum (maximize 1 - value(e) on the face
    value(f) = 1) is attained at a face vertex, and the face's vertices
    are exactly the polytope vertices lying on it, so one vertex sweep
    answers every pair."""
    space = reduced_space(logic)
    verts = _polytope_vertices(logic, budget)
    ones = []
    for e in range(logic.n):
        mask = 0
        for vi, p in enumerate(verts):
            if space.value(p, e) == 1:
                mask |= 1 << vi
        ones.append(mask)
    vacuous = tuple(f for f in range(logic.n) if ones[f] == 0)
    for f in range(logic.n):
        if ones[f] == 0:
            continue
        for e in range(logic.n):
            if logic.leq[f, e]:
                continue
            if ones[f] & ~ones[e] == 0:
                vi = ones[f].bit_length() - 1
                return StrongStateSpaceReport(
                    holds=False, violating_pair=(e, f),
                    evidence=space.state(verts[vi]),
                    vacuous_premises=vacuous,
                )
    return StrongStateSpaceReport(holds=True, vacuous_premises=vacuous)


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


@derived
def transition_probability(logic: FiniteLogic, f: int, e: int) -> TransitionProbability:
    """Minimize and maximize value(f) over the face value(e) = 1."""
    space = reduced_space(logic)
    face = space.polyhedron(space.face_rows(e))
    obj = space.indicator(f)
    lo = face.solve(obj)
    if not lo.optimal:
        raise UndefinedTransition(
            f"no state concentrates on {logic.labels[e]!r}"
        )
    hi = face.solve(obj, maximize=True)
    return TransitionProbability(
        exists=lo.value == hi.value,
        value=lo.value if lo.value == hi.value else None,
        low=lo.value, high=hi.value,
    )


@derived
def atomic_state(logic: FiniteLogic, e: int) -> State:
    """The unique state with value 1 on the atom e.

    Componentwise this is f -> P(f|e).  Raises ``NotUnique`` when the
    face is empty or not a single point, which signals input outside the
    faithfulness/uniqueness assumptions.
    """
    if not logic.is_atom(e):
        raise NotAnAtom(f"{logic.labels[e]!r} is not an atom")
    space = reduced_space(logic)
    face = space.polyhedron(space.face_rows(e))
    p = []
    for a in space.atoms:
        lo = face.solve(space.indicator(a))
        if not lo.optimal:
            raise NotUnique(
                f"no state assigns probability 1 to atom {logic.labels[e]!r}"
            )
        hi = face.solve(space.indicator(a), maximize=True)
        if lo.value != hi.value:
            raise NotUnique(
                f"states concentrated on atom {logic.labels[e]!r} are not unique: "
                f"value of {logic.labels[a]!r} ranges over "
                f"[{lo.value}, {hi.value}]"
            )
        p.append(lo.value)
    return space.state(p)


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
