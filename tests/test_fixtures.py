"""Catalog loading, annotation verification, pinned export digests."""

import hashlib

import pytest

from qlogic.cli import main
from qlogic.composite import check_condition_I, check_condition_J
from qlogic.errors import AxiomViolation, EmptyStateSpace, UnknownFixture
from qlogic.fixtures import (
    _manifest,
    fixture_names,
    load_fixture,
    verify_fixture,
)
from qlogic.states import check_condition_F, state_polytope


def test_all_names_load():
    assert sorted(fixture_names()) == sorted(_manifest())
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


# SHA-256 of each ``qlogic fixture export`` file: the builders must keep
# producing the payloads that were once shipped as these files
EXPORT_SHA256 = {
    "boolean1": "59062944bca82a96476cb6aed46816fb2c0d0b099055cbf4824c6401474fb4c5",
    "boolean2": "7973a8945b5f253120dceaa6c87a6d4a858d07002a718c80a03d47071e4af48d",
    "boolean3": "8e9dde9ed04a3f2a1834e65dc6c25dbe1874af0eb6b11574a4a9b793a15fc985",
    "boolean4": "45e8f5a22fab637b5ef8396a148cfa5b80b3e4b6dc5e19e186a0b0c1d938b4d6",
    "MO1": "ba971ce5652ee8501bb367326e5de2bb5ebefbd5c855a95797e288b5df24a31c",
    "MO2": "bc88be3ee2453ed956412ed903277b366024b1efef211e70050a5d17c4820ee7",
    "MO3": "775949e6065f9f85ce5d6eafad94d6e28a885a765ed3efc94ca25f5e777652c2",
    "O6": "9068db72922e09159b1cc0f436c084221e0fab6a8fb7b68c422602fe45d7724d",
    "nonfaithful": "9abd8149b6efa582ace73b24dff387e5799baa3436e004ea4ba52d6aec89a00a",
    "stateless": "a6ffc3f51346eaad1a74d51e7d4b08203574f2d5b7e4b2dbc9c199f832c06e66",
    "prod22": "1c6e38cae534ef2a66809464bd9732bb37945a15d82d537e722a42aedc883878",
    "prod33": "129a0f40b33e100756844922dc9e1c582641ae768d9c94fcf02dbe225f164575",
    "hilbert_demo": "78bf5f1da11f664cf97d4a4414e74efd47e0308451658d2619a215a4c2c44a5b",
}


def test_every_fixture_has_a_pinned_export():
    assert tuple(EXPORT_SHA256) == fixture_names()


@pytest.mark.parametrize("name", list(EXPORT_SHA256))
def test_export_digest(name, tmp_path):
    path = tmp_path / f"{name}.json"
    assert main(["fixture", "export", name, str(path)]) == 0
    assert hashlib.sha256(path.read_bytes()).hexdigest() == EXPORT_SHA256[name]
