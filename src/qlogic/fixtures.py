"""Bundled corpus of example logics, composites and demo vectors.

Fixture files live in ``fixtures_data/`` as logic interchange files plus
one manifest carrying derived annotations (axiom verdicts, atom counts,
state-condition verdicts, automorphism group orders).  Annotations are
regression baselines: loading re-derives the cheap ones and fails on any
mismatch; ``verify_fixture(deep=True)`` re-derives the expensive ones.
A few annotations marked "deferred" (the big product's group order) are
exercised by the acceptance suite instead of at load time.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path

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
from .states import check_condition_F, check_condition_G, check_condition_H

def _read_data_json(fname: str) -> dict:
    return json.loads(
        (resources.files("qlogic") / "fixtures_data" / fname)
        .read_text(encoding="utf-8")
    )

FIXTURE_NAMES = (
    "boolean1", "boolean2", "boolean3", "boolean4",
    "MO1", "MO2", "MO3",
    "O6",
    "nonfaithful", "stateless",
    "prod22", "prod33",
    "hilbert_demo",
)


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
    return FIXTURE_NAMES


def _manifest() -> dict:
    return _read_data_json("manifest.json")


@functools.cache
def load_fixture(name: str) -> LoadedFixture:
    """Load a fixture and check its cheap annotations.

    Loaded fixtures are cached per name so derived structures (state
    spaces, condition verdicts) are shared across uses.
    """
    manifest = _manifest()
    if name not in manifest:
        raise UnknownFixture(
            f"unknown fixture {name!r}; available: {', '.join(sorted(manifest))}"
        )
    entry = manifest[name]
    data = _read_data_json(entry["file"])
    fx = LoadedFixture(name=name, kind=entry["kind"],
                       annotations=entry["annotations"], data=data)
    _verify_basic(fx)
    return fx


def _verify_basic(fx: LoadedFixture) -> None:
    ann = fx.annotations
    if fx.kind == "logic":
        if ann.get("valid", True):
            logic = fx.logic()
            checks = {
                "n": logic.n,
                "atoms": len(logic.atoms),
                "boolean": logic.is_boolean,
            }
            for key, got in checks.items():
                if key in ann and ann[key] != got:
                    raise InternalInvariantError(
                        f"fixture {fx.name}: annotation {key}={ann[key]} "
                        f"but derived {got}"
                    )
        else:
            try:
                fx.logic()
            except AxiomViolation as exc:
                if exc.axiom != ann.get("axiom_violation"):
                    raise InternalInvariantError(
                        f"fixture {fx.name}: expected axiom "
                        f"({ann.get('axiom_violation')}) violation, got ({exc.axiom})"
                    ) from exc
            except QLogicError as exc:
                raise InternalInvariantError(
                    f"fixture {fx.name}: unexpected failure {exc}"
                ) from exc
            else:
                raise InternalInvariantError(
                    f"fixture {fx.name}: annotated invalid but validated"
                )
    elif fx.kind == "composite":
        comp = fx.composite()
        checks = {
            "factor_n": comp.factor.n,
            "ambient_n": comp.ambient.n,
            **structural_verdicts(comp),
        }
        for key, got in checks.items():
            if key in ann and ann[key] != got:
                raise InternalInvariantError(
                    f"fixture {fx.name}: annotation {key}={ann[key]} "
                    f"but derived {got}"
                )


def verify_fixture(name: str, deep: bool = False) -> dict:
    """Re-derive annotations; returns the derived values.

    With ``deep`` the state conditions and automorphism group order are
    recomputed (except annotations listed under "deferred", which the
    acceptance suite covers)."""
    fx = load_fixture(name)
    ann = fx.annotations
    rederived: dict = {}
    if fx.kind == "logic" and ann.get("valid", True) and deep:
        logic = fx.logic()
        deferred = set(ann.get("deferred", ()))
        if "F" in ann:
            rederived["F"] = check_condition_F(logic).holds
        if "G" in ann and "G" not in deferred:
            rederived["G"] = check_condition_G(logic).holds
        if "H" in ann and "H" not in deferred:
            rederived["H"] = check_condition_H(logic).holds
        if "aut_order" in ann and "aut_order" not in deferred:
            rederived["aut_order"] = len(automorphisms(logic))
        for key, got in rederived.items():
            if ann[key] != got:
                raise InternalInvariantError(
                    f"fixture {name}: annotation {key}={ann[key]} "
                    f"but derived {got}"
                )
    return rederived


# ---------------------------------------------------------------------------
# regeneration (development aid; the catalog self-consistency test runs it)
# ---------------------------------------------------------------------------

def build_fixture_payloads() -> dict:
    """Construct every fixture description from scratch."""
    payloads = {}
    for k in range(1, 5):
        payloads[f"boolean{k}"] = builders.boolean_algebra(k).to_dict()
    for k in range(1, 4):
        payloads[f"MO{k}"] = builders.mo_logic(k).to_dict()
    payloads["O6"] = builders.hexagon_o6().to_dict()
    payloads["nonfaithful"] = builders.nonfaithful_logic().to_dict()
    payloads["stateless"] = builders.stateless_logic().to_dict()
    for name, k in (("prod22", 2), ("prod33", 3)):
        comp = boolean_product(validate_logic(builders.boolean_algebra(k)))
        payloads[name] = comp.to_dict()
    payloads["hilbert_demo"] = {
        "vectors": {
            "basis0": [[1.0, 0.0], [0.0, 0.0]],
            "basis1": [[0.0, 0.0], [1.0, 0.0]],
            "plus": [[2 ** -0.5, 0.0], [2 ** -0.5, 0.0]],
            "minus": [[2 ** -0.5, 0.0], [-(2 ** -0.5), 0.0]],
        }
    }
    return payloads


def regenerate(target_dir) -> None:
    """Rewrite all fixture files and the manifest into a directory."""
    target = Path(target_dir)
    target.mkdir(parents=True, exist_ok=True)
    payloads = build_fixture_payloads()
    manifest = {}
    for name in FIXTURE_NAMES:
        payload = payloads[name]
        fname = f"{name}.json"
        with open(target / fname, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2)
            fh.write("\n")
        manifest[name] = {
            "kind": ("vectors" if name == "hilbert_demo"
                     else "composite" if name.startswith("prod")
                     else "logic"),
            "file": fname,
            "annotations": _derive_annotations(name, payload),
        }
    with open(target / "manifest.json", "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _derive_annotations(name: str, payload: dict) -> dict:
    if name == "hilbert_demo":
        return {"overlap_basis0_plus": 0.5, "cloneable_basis0_plus": False}
    if name.startswith("prod"):
        comp = _inline_composite(payload)
        ann = {
            "factor_n": comp.factor.n,
            "ambient_n": comp.ambient.n,
            **structural_verdicts(comp),
            "ambient_aut_order": math.factorial(len(comp.ambient.atoms)),
        }
        if name == "prod33":
            ann["deferred"] = ["ambient_aut_order"]
        return ann
    desc = LogicDescription.from_dict(payload)
    try:
        logic = validate_logic(desc)
    except AxiomViolation as exc:
        return {"valid": False, "axiom_violation": exc.axiom,
                "n": len(desc.labels)}
    ann = {
        "valid": True,
        "n": logic.n,
        "atoms": len(logic.atoms),
        "boolean": logic.is_boolean,
    }
    if name == "stateless":
        ann["empty_state_space"] = True
        return ann
    ann["F"] = check_condition_F(logic).holds
    if name == "nonfaithful":
        # vertex enumeration is beyond budget here; (F) is its purpose
        return ann
    ann["G"] = check_condition_G(logic).holds
    ann["H"] = check_condition_H(logic).holds
    ann["aut_order"] = len(automorphisms(logic))
    return ann
