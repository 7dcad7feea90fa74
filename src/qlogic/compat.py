"""Compatibility: enclosing Boolean sublattices inside an event logic.

A subset is compatible when some subset B between it and the whole logic
is closed under orthocomplement and suprema of orthogonal pairs,
contains the bounds, and is a Boolean algebra in the induced order.  The
closure of the members under those operations is contained in every
such B, so the search grows closed supersets from that minimal
candidate, adding generators in index order.  Closures read the logic's
join table, and each candidate is tested by ``core.is_powerset`` on its
induced order and ', the mask test that also decides
``FiniteLogic.is_boolean``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import FiniteLogic, derived, is_powerset, join_table
from .errors import SearchBudgetExceeded

DEFAULT_NODE_BUDGET = 1_000_000


@dataclass(frozen=True)
class CompatibilityVerdict:
    compatible: bool
    witness: frozenset | None = None  # a Boolean subalgebra containing the members


def closure(logic: FiniteLogic, members) -> frozenset:
    """Close under ' and suprema of orthogonal pairs; includes 0 and 1."""
    join = join_table(logic).join
    cur = set(members) | {logic.zero, logic.one}
    while True:
        elems = sorted(cur)
        sups = join[np.ix_(elems, elems)]  # exist by axiom (C)
        new = set(logic.ortho[elems].tolist()) | set(sups[sups >= 0].tolist())
        if new <= cur:
            return frozenset(cur)
        cur |= new


def is_boolean_subalgebra(logic: FiniteLogic, subset) -> bool:
    """Is the closed subset a Boolean algebra under the induced order?

    The subset is assumed closed under ' with 0 and 1 present.  Then
    b v b' = 1 and b ^ b' = 0 inside it, so it is Boolean exactly when
    it is the powerset of its atoms with ' as mask complement, which
    ``core.is_powerset`` tests on the induced order and '.
    """
    elems = np.array(sorted(subset), dtype=np.intp)
    return is_powerset(logic.leq[np.ix_(elems, elems)],
                       np.searchsorted(elems, logic.ortho[elems]))


def is_compatible_subset(logic: FiniteLogic, members,
                         budget=DEFAULT_NODE_BUDGET) -> CompatibilityVerdict:
    """Search for a Boolean subalgebra of the logic containing the members.

    Raises ``SearchBudgetExceeded`` when the backtracking examines more
    candidate closed sets than the budget allows; that outcome means
    "unknown", never "incompatible".  The search starts from the closure
    of the members, so verdicts are stored by that closure: member sets
    with the same closure share one entry.
    """
    if logic.is_boolean:
        return CompatibilityVerdict(True, frozenset(range(logic.n)))
    return _compatibility_search(logic, closure(logic, members), budget)


@derived
def _compatibility_search(logic: FiniteLogic, base: frozenset,
                          budget) -> CompatibilityVerdict:
    seen = set()
    nodes = 0
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
