"""Finite orthomodular posets: validation, order/orthogonality/atom queries.

An event logic is described by its element labels, a generating set of
order pairs (typically the Hasse diagram), an orthocomplementation given
as an index permutation, and the indices of the bottom and top elements.
``validate_logic`` closes the order pairs, checks the orthomodular axioms
and returns an immutable ``FiniteLogic`` on which all further queries run.
"""

from __future__ import annotations

import functools
import inspect
import json
from dataclasses import dataclass
from functools import cached_property

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
            return cls(
                labels=tuple(data["labels"]),
                le_pairs=tuple((int(i), int(j)) for i, j in data["le"]),
                ortho=tuple(int(i) for i in data["ortho"]),
                zero_index=int(data["zero"]),
                one_index=int(data["one"]),
            )
        except (KeyError, OverflowError, TypeError, ValueError) as exc:
            raise LogicInputError(f"malformed logic description: {exc}") from exc

    @classmethod
    def from_json(cls, text: str) -> "LogicDescription":
        return cls.from_dict(json.loads(text))


def _bool_matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    # float32 keeps counts below 2^24 exact and hits BLAS
    return (a.astype(np.float32) @ b.astype(np.float32)) > 0.5


def transitive_closure(n: int, pairs) -> np.ndarray:
    """Reflexive-transitive closure of the given pairs as a bool matrix."""
    leq = np.zeros((n, n), dtype=bool)
    leq[np.diag_indices(n)] = True
    for i, j in pairs:
        leq[i, j] = True
    while True:
        new = leq | _bool_matmul(leq, leq)
        if np.array_equal(new, leq):
            return leq
        leq = new


def find_sup(leq: np.ndarray, e: int, f: int):
    """Unique least upper bound of e and f in the order matrix, or None."""
    cands = np.flatnonzero(leq[e] & leq[f])
    if cands.size == 0:
        return None
    sub = leq[np.ix_(cands, cands)]
    below_all = sub.all(axis=1)  # candidate below every other candidate
    hits = np.flatnonzero(below_all)
    return int(cands[hits[0]]) if hits.size else None


def find_inf(leq: np.ndarray, e: int, f: int):
    """Unique greatest lower bound of e and f, or None."""
    cands = np.flatnonzero(leq[:, e] & leq[:, f])
    if cands.size == 0:
        return None
    sub = leq[np.ix_(cands, cands)]
    above_all = sub.all(axis=0)
    hits = np.flatnonzero(above_all)
    return int(cands[hits[0]]) if hits.size else None


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
        s = find_sup(self.leq, e, f)
        if s is None:
            raise NoSupremum(
                f"no least upper bound of {self.labels[e]!r} and {self.labels[f]!r}"
            )
        return s

    def inf(self, e: int, f: int) -> int:
        m = find_inf(self.leq, e, f)
        if m is None:
            raise NoInfimum(
                f"no greatest lower bound of {self.labels[e]!r} and {self.labels[f]!r}"
            )
        return m

    def sup_or_none(self, e: int, f: int):
        return find_sup(self.leq, e, f)

    def inf_or_none(self, e: int, f: int):
        return find_inf(self.leq, e, f)

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
        masks = []
        for e in range(self.n):
            m = 0
            for pos, a in enumerate(self.atoms):
                if self.leq[a, e]:
                    m |= 1 << pos
            masks.append(m)
        return tuple(masks)

    @cached_property
    def is_powerset(self) -> bool:
        """True iff the logic is exactly the powerset of its atoms.

        Validation asks this before it checks axioms C-E, so the order is
        compared with mask inclusion here rather than assumed to be it.
        """
        k = len(self.atoms)
        if k > 62 or self.n != (1 << k):
            return False
        masks = self.atom_masks
        if set(masks) != set(range(1 << k)):
            return False
        arr = np.array(masks, dtype=np.int64)
        incl = (arr[:, None] & arr[None, :]) == arr[:, None]
        if not np.array_equal(incl, self.leq):
            return False
        full = (1 << k) - 1
        comp_ok = all(masks[self.ortho[e]] == (full ^ masks[e])
                      for e in range(self.n))
        return comp_ok and masks[self.zero] == 0 and masks[self.one] == full

    @cached_property
    def _mask_index(self) -> dict:
        return {m: i for i, m in enumerate(self.atom_masks)}

    @cached_property
    def is_boolean(self) -> bool:
        """True iff the whole logic is a Boolean algebra.

        Powerset realization is checked first; otherwise meets/joins are
        scanned and distributivity is tested over all triples.
        """
        if self.is_powerset:
            return True
        n = self.n
        meet = np.full((n, n), -1, dtype=np.int64)
        join = np.full((n, n), -1, dtype=np.int64)
        for e in range(n):
            for f in range(e, n):
                m = find_inf(self.leq, e, f)
                j = find_sup(self.leq, e, f)
                if m is None or j is None:
                    return False
                meet[e, f] = meet[f, e] = m
                join[e, f] = join[f, e] = j
        for e in range(n):
            # e /\ (f \/ g) == (e /\ f) \/ (e /\ g) for all f, g
            lhs = meet[e][join]
            rhs = join[meet[e][:, None], meet[e][None, :]]
            if not np.array_equal(lhs, rhs):
                return False
        return True

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
    if logic.is_powerset:
        # order is set inclusion and ' is set complement, so the supremum of
        # orthogonal pairs is the disjoint union, e v e' is everything, and
        # the orthomodular identity is plain set algebra: (C)-(E) hold.
        return logic

    _check_axioms_cde(logic)
    return logic


def _check_axioms_cde(logic: FiniteLogic) -> None:
    n, leq, ortho, labels = logic.n, logic.leq, logic.ortho, logic.labels
    sups = {}
    orth_matrix = leq[:, ortho]  # orth_matrix[e, f] iff e <= f'
    for e in range(n):
        for f in range(n):
            if not orth_matrix[e, f]:
                continue
            s = find_sup(leq, e, f)
            if s is None:
                raise AxiomViolation(
                    "C", (e, f),
                    f"orthogonal pair {labels[e]!r}, {labels[f]!r} has no supremum",
                )
            sups[(e, f)] = s
    for e in range(n):
        s = sups[(e, int(ortho[e]))]
        if s != logic.one:
            raise AxiomViolation(
                "D", (e,),
                f"{labels[e]!r} v {labels[ortho[e]]!r} is {labels[s]!r}, not the unit",
            )
    for f in range(n):
        for e in range(n):
            if not leq[f, e]:
                continue
            m = find_inf(leq, e, int(ortho[f]))
            if m is None:
                raise AxiomViolation(
                    "E", (e, f),
                    f"{labels[e]!r} ^ {labels[ortho[f]]!r} does not exist "
                    f"although {labels[f]!r} <= {labels[e]!r}",
                )
            j = find_sup(leq, f, m)
            if j != e:
                got = "nothing" if j is None else repr(labels[j])
                raise AxiomViolation(
                    "E", (e, f),
                    f"{labels[f]!r} v ({labels[e]!r} ^ {labels[ortho[f]]!r}) "
                    f"is {got}, expected {labels[e]!r}",
                )


def load_logic(path) -> LogicDescription:
    """Read a logic interchange file (UTF-8 JSON)."""
    with open(path, encoding="utf-8") as fh:
        return LogicDescription.from_json(fh.read())


def save_logic(desc: LogicDescription, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(desc.to_json())
        fh.write("\n")
