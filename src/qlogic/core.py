"""Finite orthomodular posets: validation, order/orthogonality/atom queries.

An event logic is described by its element labels, a generating set of
order pairs (typically the Hasse diagram), an orthocomplementation given
as an index permutation, and the indices of the bottom and top elements.
``validate_logic`` closes the order pairs, checks the orthomodular axioms
and returns an immutable ``FiniteLogic`` on which all further queries run.

Suprema and infima are computed in batches by ``joins`` and ``meets``.
``join_table`` holds, once per logic, the joins of all orthogonal pairs
and the meets ``e ^ f'`` for ``f <= e`` that axiom (E) is about; axioms
(C)-(E), the atom decompositions and additivity rows of the state space
and the compatibility closure all read that one table.
``is_powerset`` is the one Boolean test, of a logic
(``FiniteLogic.is_boolean``) and of the closed subsets that
compatibility tests: the order must be the inclusion of atom masks,
packed by ``bitmasks``, and ' their complement.  ``orthogonality_masks`` packs
the atom orthogonality graph that automorphisms and compatibility read.
"""

from __future__ import annotations

import functools
import inspect
import json
from dataclasses import dataclass
from functools import cached_property
from itertools import chain

import numpy as np

from .errors import (
    AxiomViolation,
    LogicInputError,
    NoBounds,
    NoInfimum,
    NoSupremum,
    NotAPartialOrder,
    OrthoNotInvolutive,
)

DEFAULT_MAX_ELEMENTS = 1024

_EMPTY = inspect.Parameter.empty


def derived(fn):
    """Store ``fn(obj, *args)`` in ``obj._cache`` under ``(fn, *args)``.

    Keyword and default arguments are put in positional order first, so
    every spelling of one call shares one entry.  Exceptions are not
    stored.  The key holds the undecorated ``fn``, so entries survive a
    rebinding of the decorated name (as the benchmark tracer does).
    """
    sig = inspect.signature(fn)
    params = tuple(sig.parameters.values())[1:]
    names = tuple(p.name for p in params)
    defaults = tuple(p.default for p in params)

    @functools.wraps(fn)
    def memo(obj, *args, **kwargs):
        given = len(args)
        if given < len(names):
            args += tuple(kwargs.get(name, default) for name, default
                          in zip(names[given:], defaults[given:]))
            if _EMPTY in args or not kwargs.keys() <= set(names[given:]):
                sig.bind(obj, *args[:given], **kwargs)  # raises TypeError
        elif kwargs:
            sig.bind(obj, *args, **kwargs)  # raises TypeError
        key = (fn, *args)
        value = obj._cache.get(key, _EMPTY)
        if value is _EMPTY:
            value = obj._cache[key] = fn(obj, *args)
        return value

    return memo


def list_of(value, kind, what: str) -> list:
    """A JSON list of ``kind`` items; a string is not read as its
    characters, nor a float or a boolean as an int."""
    if not (isinstance(value, list) and all(type(x) is kind for x in value)):
        raise LogicInputError(
            f"malformed {what}: not a list of {kind.__name__}")
    return value


@dataclass(frozen=True)
class LogicDescription:
    """Unvalidated raw input for a finite event logic.

    Only well-formedness of the indices is guaranteed here; the axioms are
    checked by ``validate_logic``.
    """

    labels: tuple[str, ...]
    le_pairs: tuple[tuple[int, int], ...]
    ortho: tuple[int, ...]
    zero_index: int
    one_index: int

    def __post_init__(self):
        n = len(self.labels)
        if n == 0:
            raise LogicInputError("empty element list")
        if len(set(self.labels)) != n:
            raise LogicInputError("labels must be unique")
        if any(not lbl for lbl in self.labels):
            raise LogicInputError("labels must be non-empty strings")
        if len(self.ortho) != n:
            raise LogicInputError("ortho permutation must list every element")
        for idx in (self.zero_index, self.one_index, *self.ortho):
            if not 0 <= idx < n:
                raise LogicInputError(f"index {idx} out of range 0..{n - 1}")
        for i, j in self.le_pairs:
            if not (0 <= i < n and 0 <= j < n):
                raise LogicInputError(f"le pair ({i}, {j}) out of range")

    def to_dict(self) -> dict:
        """Interchange form; key order is part of the format."""
        return {
            "labels": list(self.labels),
            "le": [list(p) for p in sorted(self.le_pairs)],
            "ortho": list(self.ortho),
            "zero": self.zero_index,
            "one": self.one_index,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)

    @classmethod
    def from_dict(cls, data: dict) -> "LogicDescription":
        try:
            pairs = list_of(data["le"], list, "le")
            # every entry of every pair in one pass; unpacking comes later
            list_of(list(chain.from_iterable(pairs)), int, "le pair")
            zero, one = list_of([data["zero"], data["one"]], int,
                                "zero and one")
            return cls(
                labels=tuple(list_of(data["labels"], str, "labels")),
                le_pairs=tuple((i, j) for i, j in pairs),
                ortho=tuple(list_of(data["ortho"], int, "ortho")),
                zero_index=zero,
                one_index=one,
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise LogicInputError(f"malformed logic description: {exc}") from exc

    @classmethod
    def from_json(cls, text: str) -> "LogicDescription":
        return cls.from_dict(json.loads(text))


def _bool_matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    # float32 keeps counts below 2^24 exact and hits BLAS
    return (a.astype(np.float32) @ b.astype(np.float32)) > 0.5


def transitive_closure(n: int, pairs) -> np.ndarray:
    """Reflexive-transitive closure of the given pairs as a bool matrix.

    Each element's up-set is a Python-int bitset.  One depth-first pass
    finds Tarjan's (1972) strongly connected components, which come out
    sinks first, so each component's up-set is its members' bits ORed
    with the finished up-sets that its arcs reach: O(n + pairs) big-int
    ORs, on cyclic (invalid) input as well.
    """
    succ = [[] for _ in range(n)]
    for i, j in pairs:
        succ[i].append(j)
    order = [0] * n   # visit number from 1; 0 while unvisited
    low = [0] * n
    up = [0] * n      # the finished up-set; 0 while on Tarjan's stack
    stack = []
    visits = 0
    for root in range(n):
        if order[root]:
            continue
        visits += 1
        order[root] = low[root] = visits
        stack.append(root)
        path = [(root, iter(succ[root]))]
        while path:
            v, arcs = path[-1]
            for w in arcs:
                if not order[w]:
                    visits += 1
                    order[w] = low[w] = visits
                    stack.append(w)
                    path.append((w, iter(succ[w])))
                    break
                if not up[w]:
                    low[v] = min(low[v], order[w])
            else:
                path.pop()
                if path:
                    u = path[-1][0]
                    low[u] = min(low[u], low[v])
                if low[v] == order[v]:
                    # v roots a component: every arc out of it reaches a
                    # finished component or the component itself
                    members, bits = [], 0
                    while not members or members[-1] != v:
                        members.append(stack.pop())
                        bits |= 1 << members[-1]
                    for m in members:
                        for w in succ[m]:
                            bits |= up[w]
                    for m in members:
                        up[m] = bits
    width = (n + 7) // 8
    rows = np.frombuffer(b"".join(x.to_bytes(width, "little") for x in up),
                         dtype=np.uint8).reshape(n, width)
    return np.unpackbits(rows, axis=1, count=n, bitorder="little").astype(bool)


# pairs per numpy pass of ``joins``/``meets``: bounds the (pairs, n)
# temporaries, so no pass ever holds an n x n x n array
_PAIR_CHUNK = 512


def _least_bounds(up: np.ndarray, E, F) -> np.ndarray:
    """Least common element of the rows ``up[E[i]] & up[F[i]]``, or -1.

    ``up[x]`` is the set of elements above x (below it, for meets),
    including x.  Everything above a bound u of a pair is a bound too, and
    all bounds are above u exactly when u is the least one: the bound with
    the most elements above it is least if that many elements are bounds.
    """
    E = np.asarray(E, dtype=np.intp)
    F = np.asarray(F, dtype=np.intp)
    out = np.full(E.size, -1, dtype=np.intp)
    # at least 1 (x is above itself), so a pair without bounds never
    # matches; int32 halves the (pairs, n) temporary of np.where
    above = np.count_nonzero(up, axis=1).astype(np.int32)
    for start in range(0, E.size, _PAIR_CHUNK):
        chunk = slice(start, start + _PAIR_CHUNK)
        bounds = up[E[chunk]] & up[F[chunk]]
        best = np.where(bounds, above, -1).argmax(axis=1)
        least = above[best] == bounds.sum(axis=1)
        out[chunk] = np.where(least, best, -1)
    return out


def joins(leq: np.ndarray, E, F) -> np.ndarray:
    """Least upper bounds of the pairs (E[i], F[i]) in the order matrix,
    -1 where a pair has none."""
    return _least_bounds(leq, E, F)


def meets(leq: np.ndarray, E, F) -> np.ndarray:
    """Greatest lower bounds of the pairs (E[i], F[i]), -1 where none."""
    return _least_bounds(leq.T, E, F)


def bitmasks(bits: np.ndarray) -> np.ndarray:
    """Each row of a bool matrix as one mask, bit j for column j:
    ``np.int64`` below 63 columns, Python ints (``dtype=object``), which
    have no word limit, from 63 on."""
    k = bits.shape[1]
    if k < 63:
        return bits.astype(np.int64) @ (1 << np.arange(k, dtype=np.int64))
    rows = np.packbits(bits, axis=1, bitorder="little")
    return np.array([int.from_bytes(r.tobytes(), "little") for r in rows],
                    dtype=object)


def is_powerset(leq: np.ndarray, ortho: np.ndarray) -> bool:
    """Is the order, with ``ortho`` as ', the powerset of its atoms?

    The atoms are the elements with exactly two elements below them.
    With n = 2^k elements over k atoms, e <= f must be the inclusion of
    their atom masks and e' must hold exactly the atoms that e does not.
    On a finite orthomodular poset, or on a subset of one that is closed
    under ' and holds 0 and 1, this is the Boolean test.
    """
    n = len(leq)
    atoms = np.flatnonzero(leq.sum(axis=0) == 2)
    if n != 1 << len(atoms):
        return False
    masks = bitmasks(leq[atoms].T)
    inside = (masks[:, None] & ~masks[None, :]) == 0
    return (np.array_equal(inside, leq)
            and np.array_equal(masks[ortho], (n - 1) ^ masks))


def _one_or_none(bounds: np.ndarray):
    x = int(bounds[0])
    return None if x < 0 else x


class FiniteLogic:
    """A validated finite orthomodular poset.

    Immutable after construction; every query is a pure function of the
    stored order matrix and orthocomplementation, so concurrent readers
    are safe.  Instances are only created by ``validate_logic``.
    """

    def __init__(self, labels, leq, ortho, zero, one, _token=None):
        if _token is not _CONSTRUCTION_TOKEN:
            raise TypeError("use validate_logic() to construct a FiniteLogic")
        self.labels = tuple(labels)
        self.n = len(self.labels)
        leq = np.array(leq, dtype=bool)
        leq.setflags(write=False)
        self.leq = leq
        ortho = np.array(ortho, dtype=np.int64)
        ortho.setflags(write=False)
        self.ortho = ortho
        self.zero = int(zero)
        self.one = int(one)
        self._cache: dict = {}  # storage of ``derived``

    # -- basic queries ------------------------------------------------

    def le(self, e: int, f: int) -> bool:
        return bool(self.leq[e, f])

    def orthocomplement(self, e: int) -> int:
        return int(self.ortho[e])

    def orthogonal(self, e: int, f: int) -> bool:
        """True iff e <= f'; symmetric by axiom (A)+(B)."""
        return bool(self.leq[e, self.ortho[f]])

    def sup(self, e: int, f: int) -> int:
        s = self.sup_or_none(e, f)
        if s is None:
            raise NoSupremum(
                f"no least upper bound of {self.labels[e]!r} and {self.labels[f]!r}"
            )
        return s

    def inf(self, e: int, f: int) -> int:
        m = self.inf_or_none(e, f)
        if m is None:
            raise NoInfimum(
                f"no greatest lower bound of {self.labels[e]!r} and {self.labels[f]!r}"
            )
        return m

    def sup_or_none(self, e: int, f: int):
        return _one_or_none(joins(self.leq, [e], [f]))

    def inf_or_none(self, e: int, f: int):
        return _one_or_none(meets(self.leq, [e], [f]))

    def is_atom(self, e: int) -> bool:
        if e == self.zero:
            return False
        # exactly 0 and e itself lie below an atom
        return int(self.leq[:, e].sum()) == 2

    @cached_property
    def atoms(self) -> tuple[int, ...]:
        below_counts = self.leq.sum(axis=0)
        out = [int(e) for e in range(self.n)
               if e != self.zero and below_counts[e] == 2]
        return tuple(out)

    def atoms_below(self, e: int) -> tuple[int, ...]:
        return tuple(a for a in self.atoms if self.leq[a, e])

    def index(self, label: str) -> int:
        try:
            return self._label_index[label]
        except KeyError:
            raise LogicInputError(f"unknown element label {label!r}") from None

    @cached_property
    def _label_index(self) -> dict:
        return {lbl: i for i, lbl in enumerate(self.labels)}

    # -- structure hints (cached, derived, never part of equality) -----

    @cached_property
    def atom_masks(self) -> tuple[int, ...]:
        """Bitmask over ``self.atoms`` of the atoms below each element."""
        return tuple(bitmasks(self.leq[list(self.atoms)].T).tolist())

    @cached_property
    def is_boolean(self) -> bool:
        """True iff the logic is a Boolean algebra, which for a finite
        orthomodular poset means the powerset of its atoms.

        Validation asks this before it checks axioms C-E, so the order is
        compared with mask inclusion rather than assumed to be it.
        """
        return is_powerset(self.leq, self.ortho)

    # -- serialization --------------------------------------------------

    @cached_property
    def cover_pairs(self) -> tuple[tuple[int, int], ...]:
        """Hasse diagram edges (i covered-by j) of the order."""
        lt = self.leq & ~np.eye(self.n, dtype=bool)
        cover = lt & ~_bool_matmul(lt, lt)
        return tuple((int(i), int(j)) for i, j in np.argwhere(cover))

    def describe(self) -> LogicDescription:
        return LogicDescription(
            labels=self.labels,
            le_pairs=self.cover_pairs,
            ortho=tuple(int(x) for x in self.ortho),
            zero_index=self.zero,
            one_index=self.one,
        )

    def to_json(self) -> str:
        return self.describe().to_json()

    def __repr__(self):
        return f"FiniteLogic(n={self.n}, atoms={len(self.atoms)})"


_CONSTRUCTION_TOKEN = object()


def validate_logic(raw: LogicDescription,
                   max_elements: int = DEFAULT_MAX_ELEMENTS) -> FiniteLogic:
    """Check axioms (A)-(E) on the closed order and build a FiniteLogic.

    Raises ``NotAPartialOrder``, ``NoBounds``, ``OrthoNotInvolutive`` or
    ``AxiomViolation`` (with witness elements) when the description is not
    an orthomodular poset.
    """
    n = len(raw.labels)
    if n > max_elements:
        raise LogicInputError(
            f"{n} elements exceeds the configured maximum {max_elements}")
    labels = raw.labels
    leq = transitive_closure(n, raw.le_pairs)

    sym = leq & leq.T & ~np.eye(n, dtype=bool)
    if sym.any():
        i, j = map(int, np.argwhere(sym)[0])
        raise NotAPartialOrder(i, j, labels)

    ortho = np.array(raw.ortho, dtype=np.int64)
    if not np.array_equal(ortho[ortho], np.arange(n)):
        bad = int(np.flatnonzero(ortho[ortho] != np.arange(n))[0])
        raise OrthoNotInvolutive(
            f"({labels[bad]!r})'' is {labels[ortho[ortho[bad]]]!r}"
        )

    zero, one = raw.zero_index, raw.one_index
    if not leq[zero].all():
        raise NoBounds(f"{labels[zero]!r} is not a minimum")
    if not leq[:, one].all():
        raise NoBounds(f"{labels[one]!r} is not a maximum")

    # axiom (A): e <= f implies f' <= e'
    reversed_ = leq[np.ix_(ortho, ortho)].T
    violated = leq & ~reversed_
    if violated.any():
        e, f = map(int, np.argwhere(violated)[0])
        raise AxiomViolation(
            "A", (e, f),
            f"{labels[e]!r} <= {labels[f]!r} but not "
            f"{labels[ortho[f]]!r} <= {labels[ortho[e]]!r}",
        )
    # (B) is the involution check above

    logic = FiniteLogic(labels, leq, ortho, zero, one, _token=_CONSTRUCTION_TOKEN)
    if logic.is_boolean:
        # order is set inclusion and ' is set complement, so the supremum of
        # orthogonal pairs is the disjoint union, e v e' is everything, and
        # the orthomodular identity is plain set algebra: (C)-(E) hold.
        return logic

    _check_axioms_cde(logic)
    return logic


@dataclass(frozen=True)
class JoinTable:
    """The bounds of one logic that additivity and axioms (C)-(E) use.

    ``join[e, f]`` is e v f for every orthogonal pair, ``meet[e, f]`` is
    e ^ f' for every f <= e; both are -1 where the pair is not of that
    kind or the bound does not exist.
    """

    join: np.ndarray
    meet: np.ndarray


@derived
def join_table(logic: FiniteLogic) -> JoinTable:
    """Both tables in one batched pass each.  Orthogonality is symmetric
    once axioms (A) and (B) hold, which validation checks first, so each
    unordered orthogonal pair is joined once."""
    n, leq, ortho = logic.n, logic.leq, logic.ortho
    join = np.full((n, n), -1, dtype=np.int32)
    e, f = np.nonzero(np.triu(leq[:, ortho]))
    join[e, f] = join[f, e] = joins(leq, e, f)
    meet = np.full((n, n), -1, dtype=np.int32)
    f, e = np.nonzero(leq)
    meet[e, f] = meets(leq, e, ortho[f])
    join.setflags(write=False)
    meet.setflags(write=False)
    return JoinTable(join, meet)


def orthogonality_masks(logic: FiniteLogic) -> np.ndarray:
    """Bit j of entry i is set when atoms i and j are orthogonal, that is,
    when atom i lies below the complement of atom j."""
    atoms = list(logic.atoms)
    return bitmasks(logic.leq[np.ix_(atoms, logic.ortho[atoms])])


def _check_axioms_cde(logic: FiniteLogic) -> None:
    """Raise on the first violation in the order of a scan over e, then f
    (axioms C and D), and over f, then e (axiom E)."""
    n, leq, ortho, labels = logic.n, logic.leq, logic.ortho, logic.labels
    table = join_table(logic)
    missing = np.argwhere(leq[:, ortho] & (table.join < 0))
    if missing.size:
        e, f = map(int, missing[0])
        raise AxiomViolation(
            "C", (e, f),
            f"orthogonal pair {labels[e]!r}, {labels[f]!r} has no supremum",
        )
    units = table.join[np.arange(n), ortho]
    wrong = np.flatnonzero(units != logic.one)
    if wrong.size:
        e = int(wrong[0])
        raise AxiomViolation(
            "D", (e,),
            f"{labels[e]!r} v {labels[ortho[e]]!r} is {labels[units[e]]!r}, "
            "not the unit",
        )
    f, e = np.nonzero(leq)  # f <= e, row-major
    m = table.meet[e, f]
    j = np.where(m < 0, -1, table.join[f, m])  # f v m, m orthogonal to f
    wrong = np.flatnonzero(j != e)
    if wrong.size:
        i = wrong[0]
        e, f, m, j = int(e[i]), int(f[i]), int(m[i]), int(j[i])
        if m < 0:
            raise AxiomViolation(
                "E", (e, f),
                f"{labels[e]!r} ^ {labels[ortho[f]]!r} does not exist "
                f"although {labels[f]!r} <= {labels[e]!r}",
            )
        got = "nothing" if j < 0 else repr(labels[j])
        raise AxiomViolation(
            "E", (e, f),
            f"{labels[f]!r} v ({labels[e]!r} ^ {labels[ortho[f]]!r}) "
            f"is {got}, expected {labels[e]!r}",
        )
