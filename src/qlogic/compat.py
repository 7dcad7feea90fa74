"""Compatibility: enclosing Boolean subalgebras inside an event logic.

A subset is compatible when some subset between it and the whole logic
is closed under ' and suprema of orthogonal pairs, holds 0 and 1, and is
a Boolean algebra in the induced order.  Say a maximal orthogonal set M
of atoms splits s when each atom of M lies below s or below s'.  A set
is compatible exactly when some M splits each of its members.  (<=)
The joins of subsets of M are closed under ' and orthogonal joins and
form a Boolean algebra, and a split s is the join of the atoms of M
below it.  (=>) Split each atom of an enclosing Boolean subalgebra into
a maximal orthogonal set of atoms below it; by orthomodularity,
e = j v (e ^ j'), so these sets join back to each atom.  The sets M,
``blocks``, are the maximal cliques of the atom orthogonality graph
(Bron & Kerbosch 1973; Tomita, Tanaka & Takahashi 2006), and M splits s
when M & ~(mask(s) | mask(s')) is 0.

``mutually_compatible`` decides condition I by that test alone.
``is_compatible_subset`` names a witness: the whole logic if it is
Boolean, else the closure of the members if that is Boolean, else the
elements that the first block splitting every member splits, which by
(<=) are the joins of subsets of that block.  Where that block has five
or more atoms, an index-order search of closures can meet a smaller
Boolean set first; the verdict is the same.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from operator import or_

import numpy as np

from .core import (FiniteLogic, derived, is_powerset, join_table,
                   orthogonality_masks)


@dataclass(frozen=True)
class CompatibilityVerdict:
    compatible: bool
    witness: frozenset | None = None  # a Boolean subalgebra containing the members


@derived
def blocks(logic: FiniteLogic) -> tuple[int, ...]:
    """The maximal orthogonal sets of atoms as masks over ``logic.atoms``,
    in increasing order.  A stack entry is Bron-Kerbosch's (R, P, X), and
    the pivot is the vertex of P | X with the most neighbours in P."""
    adj = orthogonality_masks(logic).tolist()
    out, stack = [], [(0, (1 << len(adj)) - 1, 0)]
    while stack:
        r, p, x = stack.pop()
        if not p | x:
            out.append(r)
            continue
        u = max(_bits(p | x), key=lambda v: (adj[v] & p).bit_count())
        for v in _bits(p & ~adj[u]):
            stack.append((r | 1 << v, p & adj[v], x & adj[v]))
            p, x = p & ~(1 << v), x | 1 << v
    return tuple(sorted(out))


def _bits(mask: int) -> list[int]:
    return [v for v in range(mask.bit_length()) if mask >> v & 1]


def _unsplit(logic: FiniteLogic, s: int) -> int:
    """Atoms below neither s nor s': the blocks that split s miss them."""
    return ~(logic.atom_masks[s] | logic.atom_masks[logic.ortho[s]])


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
    """Is the subset, closed under ' with 0 and 1 present, a Boolean
    algebra under the induced order?  Then b v b' = 1 and b ^ b' = 0
    inside it, so ``core.is_powerset`` decides it."""
    elems = np.array(sorted(subset), dtype=np.intp)
    return is_powerset(logic.leq[np.ix_(elems, elems)],
                       np.searchsorted(elems, logic.ortho[elems]))


def is_compatible_subset(logic: FiniteLogic, members) -> CompatibilityVerdict:
    """A Boolean subalgebra of the logic containing the members, if any.
    A block splits the members exactly when it splits their closure."""
    if logic.is_boolean:
        return CompatibilityVerdict(True, frozenset(range(logic.n)))
    base = closure(logic, members)
    if is_boolean_subalgebra(logic, base):
        return CompatibilityVerdict(True, base)
    unsplit = reduce(or_, (_unsplit(logic, s) for s in base))
    for m in blocks(logic):
        if not m & unsplit:
            return CompatibilityVerdict(True, frozenset(
                e for e in range(logic.n) if not m & _unsplit(logic, e)))
    return CompatibilityVerdict(False, None)


def mutually_compatible(logic: FiniteLogic, s1, s2) -> bool:
    """Is every union of a compatible subset of s1 and one of s2 compatible?
    The compatible subsets of a side lie in what one block splits there,
    so for each pair of blocks, what the first splits of s1 and the
    second of s2 must together be split by some block."""
    if logic.is_boolean:
        return True
    s1, s2 = set(s1), set(s2)
    members = sorted(s1 | s2)
    unsplit = [_unsplit(logic, s) for s in members]
    split = {sum(1 << i for i, u in enumerate(unsplit) if not m & u)
             for m in blocks(logic)}
    side1 = sum(1 << i for i, s in enumerate(members) if s in s1)
    side2 = sum(1 << i for i, s in enumerate(members) if s in s2)
    return all(any(not (a | b) & ~c for c in split)
               for a in {m & side1 for m in split}
               for b in {m & side2 for m in split})
