"""The join table against the pair-by-pair oracles: batched joins and
meets, the per-pair queries, the additivity rows built from the table,
the first axiom (C)-(E) violation that validation reports, and the
Boolean mask test against the lattice oracle, on whole logics and on
closed subsets."""

from itertools import chain, combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from oracles import (
    additivity_rows,
    check_axioms_cde,
    decompositions,
    find_inf,
    find_sup,
)
from qlogic import core
from qlogic.builders import boolean_algebra, greechie, hexagon_o6, mo_logic
from qlogic.compat import closure, is_boolean_subalgebra
from qlogic.core import (
    FiniteLogic,
    LogicDescription,
    join_table,
    joins,
    meets,
    transitive_closure,
    validate_logic,
)
from qlogic.errors import AxiomViolation, QLogicError
from qlogic.fixtures import fixture_names, load_fixture
from qlogic.states import reduced_space


def _as_index(bound):
    return -1 if bound is None else bound


def _assert_bounds_match_oracle(logic, queried):
    """Every pair in batches and in the table; the one-pair queries for
    the pairs (e, f) with e in ``queried``."""
    n, leq, ortho = logic.n, logic.leq, logic.ortho
    E, F = np.divmod(np.arange(n * n), n)
    want_sup = [_as_index(find_sup(leq, e, f)) for e, f in zip(E, F)]
    want_inf = [_as_index(find_inf(leq, e, f)) for e, f in zip(E, F)]
    assert joins(leq, E, F).tolist() == want_sup
    assert meets(leq, E, F).tolist() == want_inf
    for e in queried:
        for f in range(n):
            assert _as_index(logic.sup_or_none(e, f)) == want_sup[e * n + f]
            assert _as_index(logic.inf_or_none(e, f)) == want_inf[e * n + f]
    table = join_table(logic)
    orth = leq[:, ortho].ravel()
    assert table.join.ravel().tolist() == np.where(orth, want_sup, -1).tolist()
    below = leq.T.ravel()  # f <= e at position (e, f)
    want_meet = [_as_index(find_inf(leq, e, int(ortho[f]))) if b else -1
                 for e, f, b in zip(E, F, below)]
    assert table.meet.ravel().tolist() == want_meet


def _assert_space_matches_oracle(logic):
    space = reduced_space(logic)
    assert not space.counts.flags.writeable
    assert space.counts.tolist() == decompositions(logic).tolist()
    rows = space.rows
    assert all(type(c) is int for row in rows for c in row)
    if not logic.is_boolean:  # a Boolean logic needs no additivity rows
        assert list(rows) == additivity_rows(logic)


def _valid_fixture_logics():
    seen = {}
    for name in fixture_names():
        fx = load_fixture(name)
        if fx.kind == "composite":
            logics = (fx.composite().factor, fx.composite().ambient)
        elif fx.kind == "logic" and fx.annotations["valid"]:
            logics = (fx.logic(),)
        else:
            continue
        for logic in logics:
            seen.setdefault(logic.labels, (name, logic))
    return list(seen.values())


@pytest.mark.parametrize("name, logic", _valid_fixture_logics(),
                         ids=lambda x: x if isinstance(x, str) else "")
def test_join_table_matches_oracle_on_fixtures(name, logic):
    # the one-pair queries cost tens of microseconds each, so logics
    # beyond 64 elements answer them on a sample of rows
    sample = np.random.default_rng(0).choice(logic.n, min(logic.n, 16),
                                             replace=False).tolist()
    if logic.n > 200:
        # the 512-element prod33 ambient: the oracle on all of its 2^18
        # pairs takes seconds, so the table is checked on the sample too
        table = join_table(logic)
        for e in sample:
            for f in range(logic.n):
                if logic.orthogonal(e, f):
                    assert table.join[e, f] == find_sup(logic.leq, e, f)
                if logic.le(f, e):
                    assert table.meet[e, f] == find_inf(
                        logic.leq, e, logic.orthocomplement(f))
    else:
        _assert_bounds_match_oracle(
            logic, range(logic.n) if logic.n <= 64 else sample)
    _assert_space_matches_oracle(logic)


_POOL = "abcdefgh"


@st.composite
def _pasting_blocks(draw):
    """Blocks of 2-4 atoms over a pool of eight, or a loop of 3-atom
    blocks of order 3-5: loops of order 4 and 5 paste to orthomodular
    posets that are not lattices, a loop of order 3 fails the axioms."""
    if draw(st.booleans()):
        order = draw(st.integers(3, 5))
        atoms = [f"x{i}" for i in range(2 * order)]
        return [(atoms[2 * i], atoms[2 * i + 1], atoms[(2 * i + 2) % (2 * order)])
                for i in range(order)]
    return draw(st.lists(
        st.lists(st.sampled_from(_POOL), min_size=2, max_size=4,
                 unique=True).map(tuple),
        min_size=1, max_size=4))


def _description(blocks):
    try:
        return greechie(blocks)
    except QLogicError:
        return None


@given(_pasting_blocks())
@settings(max_examples=60, deadline=None)
def test_join_table_matches_oracle_on_pastings(blocks):
    desc = _description(blocks)
    if desc is None:
        return
    leq = transitive_closure(len(desc.labels), desc.le_pairs)
    E, F = np.divmod(np.arange(leq.size), len(leq))
    assert joins(leq, E, F).tolist() == [
        _as_index(find_sup(leq, e, f)) for e, f in zip(E, F)]
    try:
        logic = validate_logic(desc)
    except QLogicError:
        return
    _assert_bounds_match_oracle(logic, range(logic.n))
    _assert_space_matches_oracle(logic)


def _violation(check, arg):
    try:
        check(arg)
    except AxiomViolation as exc:
        return exc.axiom, exc.witness, str(exc)
    return None


def _assert_same_first_violation(desc):
    """validate_logic and the oracle scan report the same axiom (C)-(E)
    outcome; descriptions that fail an earlier check are skipped."""
    try:
        got = _violation(validate_logic, desc)
    except QLogicError:
        return None
    if got is not None and got[0] not in "CDE":
        return None
    unchecked = FiniteLogic(desc.labels,
                            transitive_closure(len(desc.labels), desc.le_pairs),
                            desc.ortho, desc.zero_index, desc.one_index,
                            _token=core._CONSTRUCTION_TOKEN)
    assert got == _violation(check_axioms_cde, unchecked)
    return got


@st.composite
def _perturbed(draw):
    """A pasting with one Hasse edge dropped or added, each together with
    its mirror (f', e') so that axiom (A) can still hold, or with the
    orthocomplements of two elements swapped."""
    desc = _description(draw(_pasting_blocks()))
    if desc is None:
        return None
    n, ortho = len(desc.labels), list(desc.ortho)
    pairs = set(desc.le_pairs)
    how = draw(st.sampled_from(["drop", "add", "swap"]))
    if how == "drop":
        i, j = draw(st.sampled_from(sorted(pairs)))
        pairs -= {(i, j), (ortho[j], ortho[i])}
    elif how == "add":
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        pairs |= {(i, j), (ortho[j], ortho[i])}
    else:
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        a, b = ortho[i], ortho[j]
        if len({i, j, a, b}) < 4:
            return None
        ortho[i], ortho[b], ortho[j], ortho[a] = b, i, a, j
    return LogicDescription(desc.labels, tuple(sorted(pairs)), tuple(ortho),
                            desc.zero_index, desc.one_index)


@given(_perturbed())
@settings(max_examples=150, deadline=None)
def test_first_violation_matches_oracle_on_perturbed_pastings(desc):
    if desc is not None:
        _assert_same_first_violation(desc)


def _swap_complements(desc, x, y):
    """The description with x' and y' exchanged (and so x'' = x, y'' = y
    kept)."""
    ortho = list(desc.ortho)
    i, j = desc.labels.index(x), desc.labels.index(y)
    a, b = ortho[i], ortho[j]
    ortho[i], ortho[b], ortho[j], ortho[a] = b, i, a, j
    return LogicDescription(desc.labels, desc.le_pairs, tuple(ortho),
                            desc.zero_index, desc.one_index)


@pytest.mark.parametrize("desc, axiom", [
    (greechie([("a", "b", "c"), ("c", "d", "e"), ("e", "f", "a")]), "C"),
    (_swap_complements(greechie([("a", "b", "c")]), "a", "b"), "D"),
    (hexagon_o6(), "E"),
], ids=["loop-of-order-3", "swapped-complements", "hexagon"])
def test_first_violation_matches_oracle(desc, axiom):
    got = _assert_same_first_violation(desc)
    assert got is not None and got[0] == axiom


LOOP4 = greechie([("a", "b", "c"), ("c", "d", "e"), ("e", "f", "g"),
                  ("g", "h", "a")])


def _induced(logic, elems):
    elems = sorted(elems)
    return logic.leq[np.ix_(elems, elems)]


@pytest.mark.parametrize("desc, boolean", [
    (mo_logic(2), False),  # modular, not distributive
    (LOOP4, False),        # 18 elements, not a lattice
    *[(boolean_algebra(k), True) for k in range(1, 5)],
], ids=["MO2", "loop-of-order-4", "B1", "B2", "B3", "B4"])
def test_is_boolean_lattice_matches_oracle(desc, boolean):
    logic = validate_logic(desc)
    assert oracles.is_boolean_lattice(logic.leq) == boolean
    assert logic.is_boolean == boolean
    # the whole logic is closed, so the subalgebra test agrees too
    assert is_boolean_subalgebra(logic, range(logic.n)) == boolean


@given(_pasting_blocks(), st.data())
@settings(max_examples=60, deadline=None)
def test_is_boolean_lattice_matches_oracle_on_pastings(blocks, data):
    desc = _description(blocks)
    if desc is None:
        return
    try:
        logic = validate_logic(desc)
    except QLogicError:
        return
    assert logic.is_boolean == oracles.is_boolean_lattice(logic.leq)
    elements = st.integers(0, logic.n - 1)
    closed = closure(logic, data.draw(st.sets(elements, max_size=3)))
    assert (is_boolean_subalgebra(logic, closed)
            == oracles.is_boolean_lattice(_induced(logic, closed)))


@st.composite
def _relisted(draw):
    """A Boolean algebra on 1-4 atoms or a lantern MO1-MO4 with its
    elements listed in a drawn order, so neither the atoms nor the
    masks come in index order."""
    raw, boolean = draw(st.sampled_from(
        [(boolean_algebra(k), True) for k in range(1, 5)]
        # MO1 is the 4-element algebra
        + [(mo_logic(k), k == 1) for k in range(1, 5)]))
    order = draw(st.permutations(range(len(raw.labels))))
    new = {old: i for i, old in enumerate(order)}
    return validate_logic(LogicDescription(
        labels=tuple(raw.labels[old] for old in order),
        le_pairs=tuple((new[a], new[b]) for a, b in raw.le_pairs),
        ortho=tuple(new[raw.ortho[old]] for old in order),
        zero_index=new[raw.zero_index],
        one_index=new[raw.one_index],
    )), boolean


@given(_relisted())
@settings(max_examples=40, deadline=None)
def test_boolean_test_matches_oracle_in_any_element_order(drawn):
    logic, boolean = drawn
    assert logic.is_boolean == boolean
    assert oracles.is_boolean_lattice(logic.leq) == boolean


def _closures(logic, size):
    """The closures of every member set of at most ``size`` elements."""
    seen = set()
    for members in chain.from_iterable(
            combinations(range(logic.n), r) for r in range(size + 1)):
        seen.add(closure(logic, members))
    return sorted(seen, key=sorted)


def test_subalgebra_test_matches_oracle_on_closures():
    outcomes = []
    for desc, size in ((mo_logic(2), 2), (mo_logic(3), 2), (LOOP4, 2),
                       (boolean_algebra(3), 2)):
        logic = validate_logic(desc)
        for closed in _closures(logic, size):
            got = is_boolean_subalgebra(logic, closed)
            assert got == oracles.is_boolean_lattice(_induced(logic, closed))
            outcomes.append(got)
    assert True in outcomes and False in outcomes
