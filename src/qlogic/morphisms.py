"""Structure-preserving maps, dual state maps, and automorphism search.

A morphism preserves order, orthocomplement and the unit; its dual pulls
states on the target back to states on the source.  Automorphisms of an
atomistic logic are determined by where they send the atoms, so the
search backtracks over atom images (pruned by the orthogonality pattern)
and extends each complete atom bijection through the atom masks; logics
whose order is not atom-mask inclusion fall back to element-level
backtracking.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations

import numpy as np

from .core import FiniteLogic, derived
from .errors import (
    InternalInvariantError,
    LemmaViolated,
    LogicInputError,
    NotInjective,
    NotOrderPreserving,
    OrthoNotPreserved,
    PreconditionFailed,
    SearchBudgetExceeded,
    StateInvariantError,
    UnitNotPreserved,
)
from .states import State, atomic_state, transition_probability

DEFAULT_SEARCH_BUDGET = 2_000_000


@dataclass(frozen=True)
class Morphism:
    source: FiniteLogic
    target: FiniteLogic
    map: tuple

    def __call__(self, e: int) -> int:
        return self.map[e]

    @property
    def is_injective(self) -> bool:
        return len(set(self.map)) == len(self.map)

    def image(self):
        return tuple(sorted(set(self.map)))


@dataclass(frozen=True)
class Automorphism(Morphism):
    inverse: tuple = ()

    def inverted(self) -> "Automorphism":
        return Automorphism(self.source, self.target, self.inverse, self.map)

    def compose(self, other: "Automorphism") -> "Automorphism":
        """self after other (apply other first)."""
        m = tuple(self.map[x] for x in other.map)
        inv = tuple(other.inverse[x] for x in self.inverse)
        return Automorphism(self.source, self.target, m, inv)


def validate_morphism(source: FiniteLogic, target: FiniteLogic, mapping) -> Morphism:
    """Exhaustively check the three morphism conditions."""
    m = tuple(int(x) for x in mapping)
    if len(m) != source.n:
        raise LogicInputError(f"map must list all {source.n} source elements")
    if any(not 0 <= x < target.n for x in m):
        raise LogicInputError("map image out of range")
    if m[source.one] != target.one:
        raise UnitNotPreserved(
            f"unit maps to {target.labels[m[source.one]]!r}"
        )
    for e in range(source.n):
        if m[source.orthocomplement(e)] != target.orthocomplement(m[e]):
            raise OrthoNotPreserved(
                f"({source.labels[e]!r})' maps to "
                f"{target.labels[m[source.orthocomplement(e)]]!r}, "
                f"not the complement of {target.labels[m[e]]!r}"
            )
    marr = np.array(m)
    image_leq = target.leq[np.ix_(marr, marr)]
    bad = source.leq & ~image_leq
    if bad.any():
        e1, e2 = map(int, np.argwhere(bad)[0])
        raise NotOrderPreserving(
            f"{source.labels[e1]!r} <= {source.labels[e2]!r} but images "
            f"{target.labels[m[e1]]!r}, {target.labels[m[e2]]!r} are not ordered"
        )
    return Morphism(source, target, m)


def validate_automorphism(logic: FiniteLogic, mapping) -> Automorphism:
    mor = validate_morphism(logic, logic, mapping)
    if not mor.is_injective:
        raise NotInjective("automorphism candidate is not a bijection")
    inverse = [0] * logic.n
    for e, img in enumerate(mor.map):
        inverse[img] = e
    validate_morphism(logic, logic, inverse)  # the inverse must be a morphism too
    return Automorphism(logic, logic, mor.map, tuple(inverse))


def dual_state(T: Morphism, rho: State) -> State:
    """Pull a state on the target back along the morphism: e -> rho(T e).

    Validity of the result is a theorem; a violation indicates a broken
    morphism or state and aborts.
    """
    if rho.logic is not T.target:
        raise LogicInputError("state lives on a different logic than the target")
    values = [rho[T.map[e]] for e in range(T.source.n)]
    try:
        return State(T.source, values)
    except StateInvariantError as exc:
        raise InternalInvariantError(
            f"dual of a valid state is not a state: {exc}"
        ) from exc


# ---------------------------------------------------------------------------
# automorphism enumeration
# ---------------------------------------------------------------------------

class _AtomExtender:
    """Extends atom-position permutations to full element maps via masks."""

    def __init__(self, logic: FiniteLogic):
        self.logic = logic
        atoms = logic.atoms
        self.k = len(atoms)
        masks = np.array(logic.atom_masks, dtype=np.int64)
        self.bits = np.array(
            [[(m >> i) & 1 for i in range(self.k)] for m in logic.atom_masks],
            dtype=np.int64,
        )
        self.sort_order = np.argsort(masks)
        self.sorted_masks = masks[self.sort_order]
        self.ortho = np.array(logic.ortho)
        self.trivial = logic.is_powerset

    def extend(self, sigma) -> Automorphism | None:
        """sigma[i] = new position of atom i; None if no automorphism."""
        logic = self.logic
        weights = np.int64(1) << np.array(sigma, dtype=np.int64)
        new_masks = self.bits @ weights
        idx = np.searchsorted(self.sorted_masks, new_masks)
        if not self.trivial:
            if idx.max() >= logic.n or not np.array_equal(
                    self.sorted_masks[idx], new_masks):
                return None
        tmap = self.sort_order[idx]
        if not self.trivial:
            # order preservation is mask inclusion, which any bit
            # permutation respects; equivariance of ' still needs a check
            if not np.array_equal(tmap[self.ortho], self.ortho[tmap]):
                return None
        inverse = np.empty(logic.n, dtype=np.int64)
        inverse[tmap] = np.arange(logic.n)
        return Automorphism(logic, logic,
                            tuple(int(x) for x in tmap),
                            tuple(int(x) for x in inverse))


@derived
def _atom_extender(logic: FiniteLogic) -> _AtomExtender:
    return _AtomExtender(logic)


def _iter_atom_perms(logic: FiniteLogic, budget):
    """Atom-position permutations respecting the orthogonality pattern,
    in lexicographic order."""
    atoms = logic.atoms
    k = len(atoms)
    orth = [[logic.orthogonal(a, b) for b in atoms] for a in atoms]
    if logic.is_powerset:
        # all atoms are mutually orthogonal: no pruning is possible
        count = 0
        for perm in permutations(range(k)):
            count += 1
            if count > budget:
                raise SearchBudgetExceeded(
                    f"automorphism search visited {count} candidates"
                )
            yield perm
        return

    sigma = [-1] * k
    used = [False] * k
    nodes = 0

    def backtrack(i):
        nonlocal nodes
        if i == k:
            yield tuple(sigma)
            return
        for img in range(k):
            if used[img]:
                continue
            ok = all(orth[i][j] == orth[img][sigma[j]] for j in range(i))
            if not ok:
                continue
            nodes += 1
            if nodes > budget:
                raise SearchBudgetExceeded(
                    f"automorphism search visited {nodes} nodes"
                )
            sigma[i] = img
            used[img] = True
            yield from backtrack(i + 1)
            used[img] = False
            sigma[i] = -1

    yield from backtrack(0)


def _iter_automorphisms_generic(logic: FiniteLogic, budget):
    """Element-level backtracking for logics without atomistic order."""
    n = logic.n
    leq, ortho = logic.leq, logic.ortho
    mapping = [-1] * n
    used = [False] * n
    nodes = 0

    def consistent(e, img):
        if (e == logic.zero) != (img == logic.zero):
            return False
        if (e == logic.one) != (img == logic.one):
            return False
        partner = mapping[ortho[e]]
        if partner != -1 and partner != ortho[img]:
            return False
        for d in range(n):
            if mapping[d] == -1:
                continue
            if leq[d, e] != leq[mapping[d], img]:
                return False
            if leq[e, d] != leq[img, mapping[d]]:
                return False
        return True

    def backtrack(e):
        nonlocal nodes
        if e == n:
            inverse = [0] * n
            for x, img in enumerate(mapping):
                inverse[img] = x
            yield Automorphism(logic, logic, tuple(mapping), tuple(inverse))
            return
        for img in range(n):
            if used[img] or not consistent(e, img):
                continue
            nodes += 1
            if nodes > budget:
                raise SearchBudgetExceeded(
                    f"automorphism search visited {nodes} nodes"
                )
            mapping[e] = img
            used[img] = True
            yield from backtrack(e + 1)
            used[img] = False
            mapping[e] = -1

    yield from backtrack(0)


def iter_automorphisms(logic: FiniteLogic, budget=DEFAULT_SEARCH_BUDGET):
    """Lazily enumerate the automorphism group in deterministic order."""
    if logic.order_is_mask_inclusion:
        ext = _atom_extender(logic)
        for sigma in _iter_atom_perms(logic, budget):
            auto = ext.extend(sigma)
            if auto is not None:
                yield auto
    else:
        yield from _iter_automorphisms_generic(logic, budget)


def automorphisms(logic: FiniteLogic, budget=DEFAULT_SEARCH_BUDGET):
    """The complete automorphism group as a list."""
    return list(iter_automorphisms(logic, budget))


# ---------------------------------------------------------------------------
# Lemma 1
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Lemma1aReport:
    holds: bool
    source_value: object
    target_value: object
    pair: tuple


def check_lemma1a(T: Morphism, e1: int, e2: int) -> Lemma1aReport:
    """Transitions are invariant: P(T e2 | T e1) = P(e2 | e1)."""
    source, target = T.source, T.target
    if T.map[e1] == target.zero:
        raise PreconditionFailed("conditioning image T e1 must be nonzero")
    s = transition_probability(source, e2, e1)
    if not s.exists:
        raise PreconditionFailed(
            f"P({source.labels[e2]!r} | {source.labels[e1]!r}) does not exist"
        )
    t = transition_probability(target, T.map[e2], T.map[e1])
    if not t.exists or t.value != s.value:
        raise LemmaViolated(
            f"pullback transition mismatch: source {s.value}, "
            f"target {'undefined' if not t.exists else t.value}",
            details={"source": s, "target": t, "pair": (e1, e2)},
        )
    return Lemma1aReport(True, s.value, t.value, (e1, e2))


@dataclass(frozen=True)
class Lemma1bReport:
    holds: bool
    atom: int
    preimage_atom: int


def check_lemma1b(T: Automorphism, f: int) -> Lemma1bReport:
    """Dual of an atomic state is the atomic state of the preimage atom."""
    logic = T.target
    if not logic.is_atom(f):
        raise PreconditionFailed(f"{logic.labels[f]!r} is not an atom")
    pre = T.inverse[f]
    if not logic.is_atom(pre):
        raise LemmaViolated(
            f"inverse image {logic.labels[pre]!r} of atom {logic.labels[f]!r} "
            "is not an atom",
            details={"atom": f, "preimage": pre},
        )
    pulled = dual_state(T, atomic_state(logic, f))
    expected = atomic_state(T.source, pre)
    if pulled != expected:
        raise LemmaViolated(
            "dual of the atomic state differs from the preimage atomic state",
            details={"atom": f, "preimage": pre,
                     "pulled": pulled, "expected": expected},
        )
    return Lemma1bReport(True, f, pre)
