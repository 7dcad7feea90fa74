"""Compatibility: enclosing Boolean sublattices inside an event logic.

A subset is compatible when some subset B between it and the whole logic
is closed under orthocomplement and suprema of orthogonal pairs,
contains the bounds, and forms a distributive ortholattice in the
induced order.  The closure of the members under those operations is
contained in every such B, so the search grows closed supersets from
that minimal candidate, adding generators in index order.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .core import FiniteLogic, derived
from .errors import SearchBudgetExceeded

DEFAULT_NODE_BUDGET = 1_000_000


@dataclass(frozen=True)
class CompatibilityVerdict:
    compatible: bool
    witness: frozenset | None = None  # a Boolean subalgebra containing the members


def closure(logic: FiniteLogic, members) -> frozenset:
    """Close under ' and suprema of orthogonal pairs; includes 0 and 1."""
    cur = set(members) | {logic.zero, logic.one}
    grew = True
    while grew:
        grew = False
        for e in list(cur):
            c = logic.orthocomplement(e)
            if c not in cur:
                cur.add(c)
                grew = True
        for e, f in combinations(sorted(cur), 2):
            if logic.orthogonal(e, f):
                s = logic.sup_or_none(e, f)  # exists by axiom (C)
                if s is not None and s not in cur:
                    cur.add(s)
                    grew = True
    return frozenset(cur)


def _induced_tables(logic: FiniteLogic, subset):
    """Meet and join tables of the induced order, or None if not a lattice."""
    elems = sorted(subset)
    k = len(elems)
    pos = {e: i for i, e in enumerate(elems)}
    leq = logic.leq
    meet = [[0] * k for _ in range(k)]
    join = [[0] * k for _ in range(k)]
    for i in range(k):
        for j in range(i, k):
            e, f = elems[i], elems[j]
            lower = [z for z in elems if leq[z, e] and leq[z, f]]
            best = next((z for z in lower if all(leq[w, z] for w in lower)), None)
            if best is None:
                return None
            meet[i][j] = meet[j][i] = pos[best]
            upper = [z for z in elems if leq[e, z] and leq[f, z]]
            best = next((z for z in upper if all(leq[z, w] for w in upper)), None)
            if best is None:
                return None
            join[i][j] = join[j][i] = pos[best]
    return elems, meet, join


def is_boolean_subalgebra(logic: FiniteLogic, subset) -> bool:
    """Is the closed subset a Boolean lattice under the induced order?

    The subset is assumed closed under ' with 0 and 1 present, which
    already forces b v b' = 1 and b ^ b' = 0 inside the subset, so only
    lattice structure and distributivity remain to be tested.
    """
    tables = _induced_tables(logic, subset)
    if tables is None:
        return False
    elems, meet, join = tables
    k = len(elems)
    for a in range(k):
        for b in range(k):
            for c in range(k):
                if meet[a][join[b][c]] != join[meet[a][b]][meet[a][c]]:
                    return False
    return True


def is_compatible_subset(logic: FiniteLogic, members,
                         budget=DEFAULT_NODE_BUDGET) -> CompatibilityVerdict:
    """Search for a Boolean subalgebra of the logic containing the members.

    Raises ``SearchBudgetExceeded`` when the backtracking examines more
    candidate closed sets than the budget allows; that outcome means
    "unknown", never "incompatible".
    """
    return _compatibility_search(logic, frozenset(members), budget)


@derived
def _compatibility_search(logic: FiniteLogic, members: frozenset,
                          budget) -> CompatibilityVerdict:
    if logic.is_boolean:
        return CompatibilityVerdict(True, frozenset(range(logic.n)))
    seen = set()
    nodes = 0
    base = closure(logic, members)
    stack = [(base, 0)]
    seen.add(base)
    while stack:
        current, start = stack.pop()
        nodes += 1
        if nodes > budget:
            raise SearchBudgetExceeded(
                f"compatibility search examined {nodes} candidate sets"
            )
        if is_boolean_subalgebra(logic, current):
            return CompatibilityVerdict(True, current)
        # grow by one generator; descending push keeps index-order DFS
        for x in range(logic.n - 1, start - 1, -1):
            if x in current:
                continue
            child = closure(logic, current | {x})
            if child not in seen:
                seen.add(child)
                stack.append((child, x + 1))
    return CompatibilityVerdict(False, None)


def _compatible_subsets(logic: FiniteLogic, members, budget):
    """All compatible subsets of the member set, found monotonically:
    supersets of an incompatible set are pruned."""
    members = sorted(members)
    out = []
    nodes = 0

    def grow(current, start):
        nonlocal nodes
        nodes += 1
        if nodes > budget:
            raise SearchBudgetExceeded(
                f"compatible-subset enumeration examined {nodes} sets"
            )
        out.append(frozenset(current))
        for i in range(start, len(members)):
            candidate = current | {members[i]}
            if is_compatible_subset(logic, candidate, budget).compatible:
                grow(candidate, i + 1)

    grow(frozenset(), 0)
    return out


def _maximal_sets(sets):
    out = []
    for s in sets:
        if not any(s < t for t in sets):
            out.append(s)
    return out


def mutually_compatible(logic: FiniteLogic, s1, s2,
                        budget=DEFAULT_NODE_BUDGET) -> bool:
    """Must every union of compatible subsets of s1 and s2 be compatible?

    If s1 | s2 is compatible as a whole, monotonicity settles every
    sub-union at once; otherwise the compatible subsets of both sides
    are enumerated and only the maximal ones need their unions checked.
    """
    s1, s2 = frozenset(s1), frozenset(s2)
    union = is_compatible_subset(logic, s1 | s2, budget)
    if union.compatible:
        return True
    max1 = _maximal_sets(_compatible_subsets(logic, s1, budget))
    max2 = _maximal_sets(_compatible_subsets(logic, s2, budget))
    for a in max1:
        for b in max2:
            if not is_compatible_subset(logic, a | b, budget).compatible:
                return False
    return True
