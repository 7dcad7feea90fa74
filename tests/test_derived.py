"""The memo for derived data: one entry per call, whatever its spelling;
results depend on the arguments only; exceptions are never stored."""

import pytest

from qlogic.core import derived
from qlogic.errors import NotAnAtom, UnknownFixture, VertexBudgetExceeded
from qlogic.fixtures import load_fixture
from qlogic.states import (
    DEFAULT_VERTEX_BUDGET,
    atomic_state,
    check_condition_G,
    check_condition_H,
    state_polytope,
    transition_probability,
)


class Counted:
    def __init__(self):
        self._cache = {}
        self.runs = 0

    @derived
    def scaled(self, x, factor=2):
        self.runs += 1
        if x < 0:
            raise ValueError("negative")
        return [x * factor]


def test_every_spelling_shares_one_entry():
    obj = Counted()
    first = obj.scaled(3)
    for again in (obj.scaled(3, 2), obj.scaled(3, factor=2),
                  obj.scaled(x=3), obj.scaled(factor=2, x=3)):
        assert again is first
    assert obj.runs == 1
    assert obj.scaled(3, 5) == [15] and obj.runs == 2


def test_bad_arguments_raise_type_error():
    obj = Counted()
    for call in (lambda: obj.scaled(), lambda: obj.scaled(3, y=1),
                 lambda: obj.scaled(3, x=3), lambda: obj.scaled(3, 2, 1)):
        with pytest.raises(TypeError):
            call()
    assert obj.runs == 0 and not obj._cache


def test_exceptions_are_not_stored():
    obj = Counted()
    for _ in range(2):
        with pytest.raises(ValueError):
            obj.scaled(-1)
    assert obj.runs == 2 and not obj._cache


def test_library_calls_share_entries(mo2):
    a, b = mo2.index("a"), mo2.index("b")
    tp = transition_probability(mo2, b, a)
    assert transition_probability(mo2, f=b, e=a) is tp
    assert transition_probability(mo2, b, e=a) is tp
    rep = check_condition_G(mo2)
    assert check_condition_G(mo2, DEFAULT_VERTEX_BUDGET) is rep
    assert check_condition_G(mo2, budget=DEFAULT_VERTEX_BUDGET) is rep
    poly = state_polytope(mo2)
    assert state_polytope(mo2) is poly
    assert state_polytope(mo2, budget=DEFAULT_VERTEX_BUDGET) is poly


def test_library_exceptions_are_not_stored(mo2):
    for _ in range(2):
        with pytest.raises(NotAnAtom):
            atomic_state(mo2, mo2.one)
        with pytest.raises(UnknownFixture):
            load_fixture("nope")


@pytest.mark.parametrize("budget", [0, 1])
@pytest.mark.parametrize("call", [state_polytope, check_condition_G,
                                  check_condition_H],
                         ids=lambda fn: fn.__name__)
def test_smaller_budget_after_a_stored_result_raises(mo2, call, budget):
    call(mo2)
    with pytest.raises(VertexBudgetExceeded):
        call(mo2, budget=budget)

