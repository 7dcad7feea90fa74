"""Constructors for standard finite event logics.

All builders return an unvalidated ``LogicDescription``; run the result
through ``validate_logic`` to obtain a usable ``FiniteLogic``.  The
Greechie pasting helper only assembles the poset, so assembly mistakes
(forbidden loops, colliding blocks) surface as axiom violations during
validation rather than being silently accepted.
"""

from __future__ import annotations

from itertools import combinations

from .core import LogicDescription
from .errors import LogicInputError

_ATOM_ALPHABET = "xyzw"
_BLOCK_ALPHABET = "abcdefgh"


def _default_atom_names(k: int) -> list[str]:
    if k <= len(_ATOM_ALPHABET):
        return list(_ATOM_ALPHABET[:k])
    return [f"x{i + 1}" for i in range(k)]


def _subset_label(mask: int, names: list[str], k: int) -> str:
    if mask == 0:
        return "0"
    if mask == (1 << k) - 1:
        return "1"
    members = [names[i] for i in range(k) if mask >> i & 1]
    if len(members) == 1:
        return members[0]
    if len(members) == k - 1 and k > 2:
        (missing,) = (names[i] for i in range(k) if not mask >> i & 1)
        return missing + "'"
    return "{" + ",".join(members) + "}"


def boolean_algebra(k: int, atom_names: list[str] | None = None) -> LogicDescription:
    """Powerset algebra on k atoms (2^1 is the two-element logic {0, 1})."""
    if k < 0:
        raise LogicInputError("atom count must be non-negative")
    if k == 0:
        # single element 0 = 1 is not a valid logic; callers want k >= 1
        raise LogicInputError("a Boolean algebra needs at least one atom")
    names = atom_names if atom_names is not None else _default_atom_names(k)
    if len(names) != k:
        raise LogicInputError("need exactly one name per atom")
    masks = sorted(range(1 << k), key=lambda m: (bin(m).count("1"), m))
    index = {m: i for i, m in enumerate(masks)}
    labels = [_subset_label(m, names, k) for m in masks]
    full = (1 << k) - 1
    pairs = []
    for m in masks:
        for bit in range(k):
            if not m >> bit & 1:
                pairs.append((index[m], index[m | (1 << bit)]))
    ortho = [index[full ^ m] for m in masks]
    return LogicDescription(
        labels=tuple(labels),
        le_pairs=tuple(pairs),
        ortho=tuple(ortho),
        zero_index=index[0],
        one_index=index[full],
    )


def mo_logic(n_blocks: int, block_names: list[str] | None = None) -> LogicDescription:
    """The 'Chinese lantern' MO_n: n orthogonal pairs pasted at 0 and 1."""
    if n_blocks < 1:
        raise LogicInputError("MO_n needs at least one block")
    if block_names is None:
        if n_blocks <= len(_BLOCK_ALPHABET):
            block_names = list(_BLOCK_ALPHABET[:n_blocks])
        else:
            block_names = [f"a{i + 1}" for i in range(n_blocks)]
    labels = ["0"]
    for name in block_names:
        labels += [name, name + "'"]
    labels.append("1")
    one = len(labels) - 1
    pairs = []
    ortho = [one]
    for i in range(n_blocks):
        a, ac = 1 + 2 * i, 2 + 2 * i
        pairs += [(0, a), (0, ac), (a, one), (ac, one)]
        ortho += [ac, a]
    ortho.append(0)
    return LogicDescription(
        labels=tuple(labels),
        le_pairs=tuple(pairs),
        ortho=tuple(ortho),
        zero_index=0,
        one_index=one,
    )


def hexagon_o6() -> LogicDescription:
    """The hexagon O6 = {0, x, y, y', x', 1} with x < y.

    An ortholattice that violates the orthomodular law; the standard
    negative fixture for axiom (E).
    """
    labels = ("0", "x", "y", "y'", "x'", "1")
    pairs = ((0, 1), (1, 2), (2, 5), (0, 3), (3, 4), (4, 5))
    ortho = (5, 4, 3, 2, 1, 0)
    return LogicDescription(labels, pairs, ortho, 0, 5)


def greechie(blocks: list[tuple[str, ...]]) -> LogicDescription:
    """Paste Boolean blocks that share at most one atom.

    Each block is a tuple of atom labels and contributes the Boolean
    algebra on those atoms; blocks are glued at 0, 1 and shared atoms.
    Supported block sizes are 2, 3 and 4 (a 2-block makes its members a
    complementary pair, so they may not appear in any other block).
    """
    atom_order: list[str] = []
    seen: set[str] = set()
    for block in blocks:
        if len(block) != len(set(block)):
            raise LogicInputError(f"repeated atom in block {block}")
        if not 2 <= len(block) <= 4:
            raise LogicInputError("blocks must have 2, 3 or 4 atoms")
        for atom in block:
            if atom not in seen:
                seen.add(atom)
                atom_order.append(atom)
    for b1, b2 in combinations(blocks, 2):
        shared = set(b1) & set(b2)
        if len(shared) > 1:
            raise LogicInputError(f"blocks {b1} and {b2} share {sorted(shared)}")

    in_two_block = set()
    for block in blocks:
        if len(block) == 2:
            in_two_block.update(block)
    for block in blocks:
        if len(block) > 2 and in_two_block & set(block):
            raise LogicInputError(
                "atoms of a 2-block cannot appear in larger blocks"
            )

    labels = ["0"] + list(atom_order)
    index = {lbl: i for i, lbl in enumerate(labels)}

    # orthocomplements of atoms: partner atom for 2-blocks, fresh coatom else
    partner = {}
    for block in blocks:
        if len(block) == 2:
            a, b = block
            partner[a], partner[b] = b, a
    coatom_of = {}
    for atom in atom_order:
        if atom in partner:
            continue
        lbl = atom + "'"
        if lbl in index:
            raise LogicInputError(f"label collision on {lbl!r}")
        coatom_of[atom] = lbl

    middles = {}  # (block idx, frozenset of 2 atoms) -> label
    middle_order = []
    for bi, block in enumerate(blocks):
        if len(block) == 4:
            for pair in combinations(block, 2):
                lbl = "+".join(pair)
                if lbl in index or lbl in middles.values():
                    raise LogicInputError(f"label collision on {lbl!r}")
                middles[(bi, frozenset(pair))] = lbl
                middle_order.append(lbl)

    labels += middle_order
    labels += [coatom_of[a] for a in atom_order if a in coatom_of]
    labels.append("1")
    index = {lbl: i for i, lbl in enumerate(labels)}
    one = index["1"]

    pairs = [(0, index[a]) for a in atom_order]
    pairs += [(index[c], one) for c in coatom_of.values()]
    for a, b in partner.items():
        pairs.append((index[a], one))
    for bi, block in enumerate(blocks):
        if len(block) == 2:
            continue
        for b in block:
            for a in block:
                if a != b and b in coatom_of:
                    pairs.append((index[a], index[coatom_of[b]]))
        if len(block) == 4:
            for pair in combinations(block, 2):
                m = index[middles[(bi, frozenset(pair))]]
                rest = [x for x in block if x not in pair]
                for a in pair:
                    pairs.append((index[a], m))
                for c in rest:
                    pairs.append((m, index[coatom_of[c]]))

    ortho = [one] * len(labels)
    ortho[one] = 0
    for atom in atom_order:
        comp = partner.get(atom) or coatom_of[atom]
        ortho[index[atom]] = index[comp]
        ortho[index[comp]] = index[atom]
    for (bi, pair), lbl in middles.items():
        block = blocks[bi]
        rest = frozenset(block) - pair
        ortho[index[lbl]] = index[middles[(bi, rest)]]

    return LogicDescription(
        labels=tuple(labels),
        le_pairs=tuple(sorted(set(pairs))),
        ortho=tuple(ortho),
        zero_index=0,
        one_index=one,
    )


def equality_gadget_blocks(left: str, right: str, prefix: str) -> list[tuple[str, ...]]:
    """Blocks of a 6-cycle pasting that force every state to assign
    the same value to the two named atoms.

    The cycle alternates fresh corner atoms c1..c6 with middles; the
    middles of blocks 4 and 6 reuse those of blocks 1 and 3, which makes
    the alternating block-sum identity collapse to value(left) =
    value(right).  All fresh labels carry ``prefix``.
    """
    c = [f"{prefix}c{i}" for i in range(1, 7)]
    m1, m3 = f"{prefix}m1", f"{prefix}m3"
    return [
        (c[0], m1, c[1]),
        (c[1], left, c[2]),
        (c[2], m3, c[3]),
        (c[3], m1, c[4]),
        (c[4], right, c[5]),
        (c[5], m3, c[0]),
    ]


def _nonfaithful_blocks() -> list[tuple[str, ...]]:
    """The blocks of ``nonfaithful_logic``: the 4-block {x, y, p, q} and,
    for each of y, p, q, a 3-block with two companions that equality
    gadgets pin to its value."""
    blocks = [("x", "y", "p", "q")]
    for name in ("y", "p", "q"):
        u1, u2 = f"{name}u1", f"{name}u2"
        blocks.append((name, u1, u2))
        blocks += equality_gadget_blocks(name, u1, f"{name}g1")
        blocks += equality_gadget_blocks(name, u2, f"{name}g2")
    return blocks


def nonfaithful_logic() -> LogicDescription:
    """A pasting whose states all vanish on the atom ``x``.

    Around the 4-block {x, y, p, q}, each of y, p, q sits in a 3-block
    with two companions that equality gadgets pin to the same value, so
    every state gives y, p, q the value 1/3 and x the value 0.  The state
    space is nonempty, so this logic separates "no faithful state" from
    "no state at all".
    """
    return greechie(_nonfaithful_blocks())


def stateless_logic() -> LogicDescription:
    """A pasting with an empty state space.

    Extends ``nonfaithful_logic``: a further 3-block {x, t1, t2} with t1
    and t2 pinned to the value of y forces value(x) = 1/3, contradicting
    the forced value(x) = 0.
    """
    blocks = _nonfaithful_blocks()
    blocks.append(("x", "t1", "t2"))
    blocks += equality_gadget_blocks("y", "t1", "tg1")
    blocks += equality_gadget_blocks("y", "t2", "tg2")
    return greechie(blocks)
