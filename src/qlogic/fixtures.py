"""Bundled corpus of example logics, composites and demo vectors.

Each fixture's payload (a logic interchange dict, a composite with its
factor and ambient inline, or named demo vectors) is built by
``qlogic.builders`` on its first load in a process.  ``fixtures_data/
manifest.json`` holds each fixture's kind and its derived annotations
(axiom verdicts, atom counts, state-condition verdicts, automorphism group
orders).  Annotations are regression baselines: loading re-derives the
cheap ones and fails on any mismatch; ``verify_fixture(deep=True)``
re-derives the expensive ones.  A few annotations marked "deferred" (the
big product's group order) are exercised by the acceptance suite instead
of at load time.  The tests pin the SHA-256 of every exported payload.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass, field
from importlib import resources

import numpy as np

from . import builders
from .composite import (
    CompositeLogic,
    boolean_product,
    composite_from_dict,
    structural_verdicts,
)
from .core import FiniteLogic, LogicDescription, derived, validate_logic
from .errors import AxiomViolation, InternalInvariantError, QLogicError, UnknownFixture
from .morphisms import automorphisms
from .states import (
    check_condition_F,
    check_condition_G,
    check_condition_H,
    face,
)


def _boolean_product(k: int) -> dict:
    return boolean_product(validate_logic(builders.boolean_algebra(k))).to_dict()


def _hilbert_demo() -> dict:
    r = 2 ** -0.5
    return {"vectors": {
        "basis0": [[1.0, 0.0], [0.0, 0.0]],
        "basis1": [[0.0, 0.0], [1.0, 0.0]],
        "plus": [[r, 0.0], [r, 0.0]],
        "minus": [[r, 0.0], [-r, 0.0]],
    }}


# name -> zero-argument function building the fixture's payload, in the
# order ``fixture list`` prints
_PAYLOADS = {
    "boolean1": lambda: builders.boolean_algebra(1).to_dict(),
    "boolean2": lambda: builders.boolean_algebra(2).to_dict(),
    "boolean3": lambda: builders.boolean_algebra(3).to_dict(),
    "boolean4": lambda: builders.boolean_algebra(4).to_dict(),
    "MO1": lambda: builders.mo_logic(1).to_dict(),
    "MO2": lambda: builders.mo_logic(2).to_dict(),
    "MO3": lambda: builders.mo_logic(3).to_dict(),
    "O6": lambda: builders.hexagon_o6().to_dict(),
    "nonfaithful": lambda: builders.nonfaithful_logic().to_dict(),
    "stateless": lambda: builders.stateless_logic().to_dict(),
    "prod22": lambda: _boolean_product(2),
    "prod33": lambda: _boolean_product(3),
    "hilbert_demo": _hilbert_demo,
}


@dataclass
class LoadedFixture:
    name: str
    kind: str                      # "logic" | "composite" | "vectors"
    annotations: dict
    data: dict = field(repr=False)
    _cache: dict = field(default_factory=dict, init=False, repr=False,
                         compare=False)

    def description(self) -> LogicDescription:
        if self.kind != "logic":
            raise UnknownFixture(f"{self.name} is not a plain logic fixture")
        return LogicDescription.from_dict(self.data)

    @derived
    def logic(self) -> FiniteLogic:
        """Validate the logic once; invalid fixtures raise here."""
        return validate_logic(self.description())

    @derived
    def composite(self) -> CompositeLogic:
        if self.kind != "composite":
            raise UnknownFixture(f"{self.name} is not a composite fixture")
        return _inline_composite(self.data)

    def vectors(self) -> dict:
        if self.kind != "vectors":
            raise UnknownFixture(f"{self.name} carries no vectors")
        out = {}
        for name, comps in self.data["vectors"].items():
            out[name] = np.array([complex(re, im) for re, im in comps])
        return out


def _inline_composite(data: dict) -> CompositeLogic:
    """A composite whose factor and ambient are given inline."""
    return composite_from_dict(
        data, lambda d: validate_logic(LogicDescription.from_dict(d)))


def fixture_names() -> tuple:
    return tuple(_PAYLOADS)


def _manifest() -> dict:
    return json.loads(
        (resources.files("qlogic") / "fixtures_data" / "manifest.json")
        .read_text(encoding="utf-8")
    )


@functools.cache
def load_fixture(name: str) -> LoadedFixture:
    """Load a fixture and check its cheap annotations.

    Loaded fixtures are cached per name so derived structures (state
    spaces, condition verdicts) are shared across uses.
    """
    if name not in _PAYLOADS:
        raise UnknownFixture(
            f"unknown fixture {name!r}; available: {', '.join(sorted(_PAYLOADS))}"
        )
    entry = _manifest()[name]
    fx = LoadedFixture(name=name, kind=entry["kind"],
                       annotations=entry["annotations"], data=_PAYLOADS[name]())
    _verify(fx, deep=False)
    return fx


_DEEP = {
    "F": lambda logic: check_condition_F(logic).holds,
    "G": lambda logic: check_condition_G(logic).holds,
    "H": lambda logic: check_condition_H(logic).holds,
    "aut_order": lambda logic: len(automorphisms(logic)),
    "empty_state_space": lambda logic: not face(logic).feasible,
}


def _derive(fx: LoadedFixture, deep: bool) -> dict:
    """The fixture's annotations re-derived: the cheap ones always, and
    with ``deep`` the expensive ones the manifest carries outside
    "deferred"."""
    ann = fx.annotations
    wanted = set(ann) - set(ann.get("deferred", ()))
    if fx.kind == "composite":
        comp = fx.composite()
        got = {"factor_n": comp.factor.n, "ambient_n": comp.ambient.n,
               **structural_verdicts(comp)}
        if deep and "ambient_aut_order" in wanted:
            got["ambient_aut_order"] = len(automorphisms(comp.ambient))
        return got
    if fx.kind != "logic":
        return {}
    try:
        logic = fx.logic()
    except AxiomViolation as exc:
        return {"valid": False, "axiom_violation": exc.axiom,
                "n": len(fx.description().labels)}
    except QLogicError as exc:
        raise InternalInvariantError(
            f"fixture {fx.name}: unexpected failure {exc}") from exc
    got = {"valid": True, "n": logic.n, "atoms": len(logic.atoms),
           "boolean": logic.is_boolean}
    if deep:
        got.update((key, derive(logic)) for key, derive in _DEEP.items()
                   if key in wanted)
    return got


def _verify(fx: LoadedFixture, deep: bool) -> dict:
    """The re-derived annotations; raises on any that disagrees with the
    manifest."""
    got = _derive(fx, deep)
    for key, value in got.items():
        if key in fx.annotations and fx.annotations[key] != value:
            raise InternalInvariantError(
                f"fixture {fx.name}: annotation {key}={fx.annotations[key]} "
                f"but derived {value}"
            )
    return got


def verify_fixture(name: str, deep: bool = False) -> dict:
    """Re-derive annotations; returns the derived values.

    With ``deep`` the state conditions, automorphism group orders and the
    empty state space are recomputed too (except annotations listed under
    "deferred", which the acceptance suite covers)."""
    return _verify(load_fixture(name), deep)
