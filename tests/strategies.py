"""Hypothesis strategies of small Greechie pastings shared by the tests."""

from itertools import islice

from hypothesis import strategies as st

from qlogic.builders import greechie
from qlogic.core import validate_logic
from qlogic.errors import QLogicError


@st.composite
def pastings(draw):
    """Up to three blocks of 2-4 atoms over a pool of seven, drawn to keep
    the rules of builders.greechie: two blocks share at most one atom,
    and the atoms of a block of two lie in no other block.  A pasting
    that validation refuses, such as a loop of three blocks, is None."""
    blocks = []
    for _ in range(draw(st.integers(1, 3))):
        size = draw(st.integers(2, 4))
        block = []
        for _ in range(size):
            free = [a for a in "abcdefg" if a not in block and not any(
                a in b and (size == 2 or len(b) == 2 or set(block) & set(b))
                for b in blocks)]
            if not free:
                break
            block.append(draw(st.sampled_from(free)))
        if len(block) >= 2:
            blocks.append(tuple(block))
    try:
        return validate_logic(greechie(blocks))
    except QLogicError:
        return None


@st.composite
def loose_pastings(draw):
    """Two or three blocks over a pool of seven atoms, each block sharing
    at most one atom with the blocks before it, and none with a block of
    two: no loops, so the pasting is a logic, and not a Boolean one."""
    fresh = iter("abcdefg")
    blocks = []
    for _ in range(draw(st.integers(2, 3))):
        used = sorted({a for block in blocks if len(block) > 2
                       for a in block})
        shared = draw(st.sampled_from([None] + used)) if used else None
        size = draw(st.integers(3 if shared else 2, 3))
        block = [shared] if shared else []
        block += islice(fresh, size - len(block))
        if len(block) == size:
            blocks.append(tuple(block))
    return validate_logic(greechie(blocks))
