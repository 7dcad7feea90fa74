"""Catalog loading, annotation verification, self-consistency."""

import pytest

from qlogic.composite import check_condition_I, check_condition_J
from qlogic.errors import AxiomViolation, EmptyStateSpace, UnknownFixture
from qlogic.fixtures import (
    build_fixture_payloads,
    fixture_names,
    load_fixture,
    verify_fixture,
    _read_data_json,
)
from qlogic.states import check_condition_F, state_polytope


def test_all_names_load():
    for name in fixture_names():
        fx = load_fixture(name)
        assert fx.name == name


def test_unknown_fixture():
    with pytest.raises(UnknownFixture):
        load_fixture("boolean99")


def test_boolean3_annotations():
    fx = load_fixture("boolean3")
    ann = fx.annotations
    assert ann["atoms"] == 3 and ann["aut_order"] == 6
    assert ann["F"] and ann["G"] and ann["H"]


def test_mo2_annotations():
    ann = load_fixture("MO2").annotations
    assert ann["F"] and not ann["G"] and ann["H"]
    assert ann["aut_order"] == 8


def test_o6_fails_validation():
    fx = load_fixture("O6")
    assert fx.annotations["valid"] is False
    with pytest.raises(AxiomViolation) as err:
        fx.logic()
    assert err.value.axiom == fx.annotations["axiom_violation"] == "E"


def test_nonfaithful_and_stateless():
    nf = load_fixture("nonfaithful").logic()
    assert not check_condition_F(nf).holds
    sl = load_fixture("stateless").logic()
    with pytest.raises(EmptyStateSpace):
        state_polytope(sl)


def test_composites_load_with_conditions():
    for name in ("prod22", "prod33"):
        comp = load_fixture(name).composite()
        assert check_condition_I(comp).holds
        assert check_condition_J(comp).holds


def test_hilbert_demo_vectors():
    vecs = load_fixture("hilbert_demo").vectors()
    assert set(vecs) == {"basis0", "basis1", "plus", "minus"}
    overlap = abs(vecs["basis0"].conj() @ vecs["plus"]) ** 2
    ann = load_fixture("hilbert_demo").annotations
    assert abs(overlap - ann["overlap_basis0_plus"]) < 1e-12


@pytest.mark.parametrize("name", [
    name for name in fixture_names()
    if load_fixture(name).kind in ("logic", "composite")])
def test_deep_verification(name):
    derived = verify_fixture(name, deep=True)
    ann = load_fixture(name).annotations
    # every annotation is re-derived, except the deferred ones
    wanted = set(ann) - set(ann.get("deferred", ())) - {"deferred"}
    assert derived == {key: ann[key] for key in wanted}


def test_catalog_self_consistency():
    # regenerating every payload reproduces the shipped files exactly
    payloads = build_fixture_payloads()
    for name in fixture_names():
        manifest = _read_data_json("manifest.json")
        shipped = _read_data_json(manifest[name]["file"])
        assert payloads[name] == shipped, f"{name} drifted from its builder"
