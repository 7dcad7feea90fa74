"""Structure-preserving maps, dual state maps, and automorphism search.

A morphism preserves order, orthocomplement and the unit; its dual pulls
states on the target back to states on the source.  Every validated
logic is atomistic, so an automorphism is determined by where it sends
the atoms, and an ``Automorphism`` stores only its map: the inverse is
read off the map when asked for.  One generator, ``_atom_perm_blocks``,
lists the atom permutations that respect orthogonality, in
lexicographic order and in blocks.  On a powerset they are all
automorphisms, cut from ``itertools.permutations``, and the budget
counts these leaves, called candidates.  Otherwise the search walks
atom images depth first, a block of partial permutations per numpy
pass: an image is admitted by one bitmask test of its orthogonal atoms
against the images already used, for every row and candidate at once.
Its budget counts nodes in preorder exactly as a one-node-at-a-time walk
would.  Each block of complete atom bijections is extended through the
atom masks in one numpy pass, and the element maps of the block become
one tuple each, so enumeration costs roughly its output.  The first
automorphism with some atom images forced, and its index, come from
``_first_automorphism_with``: computed on a powerset, walked otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice, permutations, repeat

import numpy as np

from .core import FiniteLogic, derived, orthogonality_masks
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


@dataclass(frozen=True, slots=True)
class Morphism:
    source: FiniteLogic
    target: FiniteLogic
    map: tuple

    def __call__(self, e: int) -> int:
        return self.map[e]

    @property
    def is_injective(self) -> bool:
        return len(set(self.map)) == len(self.map)


@dataclass(frozen=True, slots=True)
class Automorphism(Morphism):
    """A bijective morphism of a logic onto itself whose inverse is a
    morphism too.  The map alone is stored: the inverse is read off it."""

    @property
    def inverse(self) -> tuple:
        inverse = [0] * len(self.map)
        for e, img in enumerate(self.map):
            inverse[img] = e
        return tuple(inverse)

    def inverted(self) -> "Automorphism":
        return Automorphism(self.source, self.target, self.inverse)

    def compose(self, other: "Automorphism") -> "Automorphism":
        """self after other (apply other first)."""
        return Automorphism(self.source, self.target,
                            tuple(self.map[x] for x in other.map))


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
    auto = Automorphism(logic, logic, mor.map)
    validate_morphism(logic, logic, auto.inverse)  # the inverse must be a morphism too
    return auto


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

# element entries (rows x logic.n) per numpy pass of ``extend_many``:
# bounds its (rows, n) temporaries, and the (rows, k) candidate tests of
# each pass of the atom search, whatever the size of the logic
_EXTEND_ENTRIES = 1 << 15


class _AtomExtender:
    """Extends atom-position permutations to full element maps via masks.

    In a validated logic each element is the orthogonal join of the atoms
    below it (peel atoms off with axiom E, join them with axiom C), so
    elements have distinct atom masks and the order is mask inclusion.
    Masks are ``np.int64`` below 63 atoms and Python ints, which have no
    word limit, from 63 atoms on.
    """

    def __init__(self, logic: FiniteLogic):
        self.logic = logic
        self.k = len(logic.atoms)
        self.dtype = np.int64 if self.k < 63 else object
        masks = np.array(logic.atom_masks, dtype=self.dtype)
        self.bits = logic.leq[list(logic.atoms)].T.astype(self.dtype)
        self.sort_order = np.argsort(masks)
        self.sorted_masks = masks[self.sort_order]
        self.ortho = np.array(logic.ortho)

    def extend(self, sigma) -> Automorphism | None:
        """sigma[i] = new position of atom i; None if no automorphism."""
        return self.extend_many([sigma])[0]

    def extend_many(self, sigmas) -> list:
        """``extend`` of every permutation in one numpy pass: an
        ``Automorphism`` or None per row."""
        logic, n = self.logic, self.logic.n
        S = np.asarray(sigmas, dtype=self.dtype).reshape(len(sigmas), self.k)
        new_masks = (1 << S) @ self.bits.T
        if logic.is_boolean:
            # a powerset's masks are exactly 0 .. n-1, so a mask is its own
            # index among the sorted masks, and every permutation extends
            tmap = self.sort_order[new_masks]
        else:
            idx = np.searchsorted(self.sorted_masks, new_masks)
            inside = idx < n
            idx[~inside] = 0
            ok = inside.all(axis=1) & (
                self.sorted_masks[idx] == new_masks).all(axis=1)
            tmap = self.sort_order[idx]
            # order preservation is mask inclusion, which any bit
            # permutation respects; equivariance of ' still needs a check
            ok &= (tmap[:, self.ortho] == self.ortho[tmap]).all(axis=1)
            rows = np.flatnonzero(ok)
            tmap = tmap[rows]
        # a list per element column, zipped into one tuple per row: no
        # list is made per row
        autos = list(map(Automorphism, repeat(logic), repeat(logic),
                         zip(*tmap.T.tolist())))
        if len(autos) == len(S):
            return autos
        out = [None] * len(S)
        for r, auto in zip(rows.tolist(), autos):
            out[r] = auto
        return out


@derived
def _atom_extender(logic: FiniteLogic) -> _AtomExtender:
    return _AtomExtender(logic)


def _budget_exceeded(budget, unit) -> SearchBudgetExceeded:
    """The error of an atom search that reads past ``budget`` of its unit:
    "candidates" (complete permutations) on a powerset, "nodes" in
    preorder on any other logic."""
    return SearchBudgetExceeded(
        f"automorphism search visited {max(budget, 0) + 1} {unit}"
    )


def _first_perm_with(k: int, forced: dict, budget):
    """The first permutation of range(k) in lexicographic order with
    sigma[i] = forced[i], a partial injection, and its 1-based index in
    ``permutations(range(k))``: the candidate at which the powerset
    search of ``_atom_perm_blocks`` meets it, found without the walk.

    The positions that are not forced take the images that no forced
    position takes, in increasing order.  The index is the Lehmer rank
    plus one: the digit of position i counts the later images below
    sigma[i], and the digits are read in the factorial number system
    (Lehmer 1960; Knuth, TAOCP vol. 2, 3.3.2).  Past the budget this
    raises what the walk raises there.
    """
    free = iter(sorted(set(range(k)) - set(forced.values())))
    sigma = tuple(forced[i] if i in forced else next(free)
                  for i in range(k))
    rank = 0
    for i, s in enumerate(sigma):
        rank = rank * (k - i) + sum(t < s for t in sigma[i + 1:])
    if rank + 1 > budget:
        raise _budget_exceeded(budget, "candidates")
    return sigma, rank + 1


def _atom_perm_blocks(logic: FiniteLogic, budget, rows):
    """Atom-position permutations respecting the orthogonality pattern,
    in lexicographic order, in blocks of at most ``rows``: lists of tuples
    on a powerset, (r, k) int arrays otherwise.  The budget counts leaves
    (candidates) on a powerset, where nothing is pruned and the blocks
    are cut from ``itertools.permutations``, and preorder nodes on any
    other logic.  The permutations within it are yielded before the error.

    Elsewhere, depth first over the atoms in index order, a chunk of
    partial permutations per numpy pass.  Atom d may take a free image c
    exactly when the used images orthogonal to c are the images of the
    atoms before d that are orthogonal to d: one mask test per row and
    candidate.  A pass takes at most ``rows`` rows, and no more than the
    nodes handed out so far over k, so it tests no more candidates than
    there are nodes already found: the first permutations come after k
    passes of a row or a few, and a consumer that stops early (a clone
    search) pays little for the rows it never reads.

    A node's children are its admitted images in increasing order, and
    the chunks are expanded depth first, so each depth hands out its
    ranks in lexicographic order.  The preorder index of a permutation is
    the sum over depths of its ancestor's rank there plus one: it is
    yielded exactly when that is within the budget.  A partial sum beyond
    the budget prunes its node and every later one.
    """
    if logic.is_boolean:
        perms = permutations(range(len(logic.atoms)))
        within = islice(perms, max(budget, 0))
        while block := list(islice(within, rows)):
            yield block
        if next(perms, None) is not None:
            raise _budget_exceeded(budget, "candidates")
        return
    k = len(logic.atoms)
    omask = orthogonality_masks(logic)
    dtype = omask.dtype
    earlier = [np.array([j for j in range(d) if omask[d] >> j & 1],
                        dtype=np.intp) for d in range(k)]
    bit = np.array([1 << c for c in range(k)], dtype=dtype)
    seen = [0] * k  # nodes handed out at each depth so far
    # a chunk: images (r, d) of atoms 0 .. d-1, their masks, and the
    # partial preorder sums, rows in lexicographic order
    stack = [(np.zeros((1, 0), dtype=np.intp), np.zeros(1, dtype=dtype),
              np.zeros(1, dtype=np.int64))]
    pruned = False
    while stack:
        images, used, pre = stack.pop()
        step = min(rows, max(1, sum(seen) // k))
        if len(images) > step:
            stack.append((images[step:], used[step:], pre[step:]))
            images, used, pre = images[:step], used[:step], pre[:step]
        d = images.shape[1]
        want = bit[images[:, earlier[d]]].sum(axis=1)
        free = used[:, None] & bit == 0
        r, c = np.nonzero(free & (used[:, None] & omask == want[:, None]))
        pre = pre[r] + np.arange(seen[d] + 1, seen[d] + 1 + len(r))
        seen[d] += len(r)
        if len(r) and int(pre[-1]) > budget:
            # this node and every one after it in preorder lie beyond
            keep = int(np.searchsorted(pre, budget, side="right"))
            r, c, pre = r[:keep], c[:keep], pre[:keep]
            stack.clear()
            pruned = True
        images = np.column_stack((images[r], c))
        if d + 1 == k:
            if len(images):
                yield images
            continue
        stack.append((images, used[r] | bit[c], pre))
    if pruned or sum(seen) > budget:
        raise _budget_exceeded(budget, "nodes")


def _first_automorphism_with(logic: FiniteLogic, forced: dict, budget):
    """The first automorphism, in the order of ``_atom_perm_blocks``,
    whose atom permutation has sigma[i] = forced[i], and its 1-based index
    among the permutations: (automorphism, index), or (None, the number
    of permutations) when there is none.  Past the budget this raises
    what the search raises there.

    On a powerset every atom permutation extends, so the first with the
    forced images is computed by ``_first_perm_with`` and extended once.
    Otherwise the blocks are walked, and only the rows with the forced
    images are extended.
    """
    ext = _atom_extender(logic)
    if logic.is_boolean:
        sigma, scanned = _first_perm_with(len(logic.atoms), forced, budget)
        auto = ext.extend(sigma)
        if auto is None:
            raise InternalInvariantError(
                "an atom permutation of a Boolean logic does not extend")
        return auto, scanned
    sources, targets = list(forced), list(forced.values())
    rows = max(1, _EXTEND_ENTRIES // logic.n)
    walked = 0
    for block in _atom_perm_blocks(logic, budget, rows):
        hits = np.flatnonzero((block[:, sources] == targets).all(axis=1))
        if len(hits):
            for hit, auto in zip(hits.tolist(), ext.extend_many(block[hits])):
                if auto is not None:
                    return auto, walked + hit + 1
        walked += len(block)
    return None, walked


def iter_automorphisms(logic: FiniteLogic, budget=DEFAULT_SEARCH_BUDGET):
    """Lazily enumerate the automorphism group in deterministic order.

    Each block of atom permutations, at most about ``_EXTEND_ENTRIES``
    element entries, is extended as the search hands it over.  When the
    budget runs out, the automorphisms of the permutations already found
    are yielded first, so a lazy consumer sees every automorphism before
    the error.
    """
    ext = _atom_extender(logic)
    rows = max(1, _EXTEND_ENTRIES // logic.n)
    for block in _atom_perm_blocks(logic, budget, rows):
        for auto in ext.extend_many(block):
            if auto is not None:
                yield auto


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
