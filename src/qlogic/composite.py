"""Two embedded copies of a factor logic inside an ambient logic.

Carries the two injections, the verification of the compatibility
condition on their images and of the atomicity condition on embedded
atom meets, the Boolean product construction, and the mechanical checks
of the product identity for transitions and of the restriction
equivalence for atomic states.  Every embedded meet pi1(e) ^ pi2(f) is
read from one table per composite, ``embedded_meets``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .builders import boolean_algebra
from .compat import mutually_compatible
from .core import FiniteLogic, derived, list_of, meets, validate_logic
from .errors import (
    InternalInvariantError,
    LemmaViolated,
    LogicInputError,
    NoInfimum,
    NotBoolean,
    NotInjective,
    PreconditionFailed,
)
from .morphisms import Morphism, dual_state, validate_morphism
from .states import (
    atomic_state,
    check_condition_F,
    check_condition_G,
    check_condition_H,
    transition_probability,
    transitions,
)


@dataclass
class CompositeLogic:
    """A factor logic E with two injections into an ambient logic L."""

    factor: FiniteLogic
    ambient: FiniteLogic
    pi1: Morphism
    pi2: Morphism
    _cache: dict = field(default_factory=dict, init=False, repr=False,
                         compare=False)

    def to_dict(self, factor_ref=None, ambient_ref=None) -> dict:
        return {
            "factor": factor_ref if factor_ref is not None
            else self.factor.describe().to_dict(),
            "ambient": ambient_ref if ambient_ref is not None
            else self.ambient.describe().to_dict(),
            "pi1": list(self.pi1.map),
            "pi2": list(self.pi2.map),
        }


def make_composite(factor: FiniteLogic, ambient: FiniteLogic,
                   map1, map2) -> CompositeLogic:
    pi1 = validate_morphism(factor, ambient, map1)
    pi2 = validate_morphism(factor, ambient, map2)
    for name, pi in (("pi1", pi1), ("pi2", pi2)):
        if not pi.is_injective:
            raise NotInjective(f"{name} is not injective")
    return CompositeLogic(factor, ambient, pi1, pi2)


# ---------------------------------------------------------------------------
# Boolean product construction
# ---------------------------------------------------------------------------

def boolean_product(factor: FiniteLogic) -> CompositeLogic:
    """The product algebra of a Boolean logic with itself.

    Ambient atoms are pairs of factor atoms; the first injection sends e
    to e x 1, the second to 1 x e.  Conditions (I) and (J) hold on the
    result by construction; ``structural_verdicts`` reports them.
    """
    if not factor.is_boolean:
        raise NotBoolean("boolean_product needs a Boolean factor")
    atoms = factor.atoms
    k = len(atoms)
    if k * k > 12:
        raise LogicInputError(
            f"product would have 2^{k * k} elements; the dense order matrix "
            "supports factors with at most 3 atoms"
        )
    names = [
        f"({factor.labels[a]},{factor.labels[b]})" for a in atoms for b in atoms
    ]
    ambient = validate_logic(boolean_algebra(k * k, atom_names=names))
    mask_index = {m: i for i, m in enumerate(ambient.atom_masks)}
    # ambient atom (i, j) is bit i k + j; bit i of a factor mask is atom i:
    # e x 1 takes the whole row i for each atom i below e, 1 x e takes the
    # mask of e in every row
    full = (1 << k) - 1
    map1, map2 = [], []
    for m in factor.atom_masks:
        map1.append(mask_index[sum(full << i * k for i in range(k)
                                   if m >> i & 1)])
        map2.append(mask_index[sum(m << i * k for i in range(k))])
    return make_composite(factor, ambient, map1, map2)


# ---------------------------------------------------------------------------
# conditions (I) and (J)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CompatImagesReport:
    holds: bool


@dataclass(frozen=True)
class AtomMeetsReport:
    holds: bool
    failing_pair: tuple | None = None  # (e, f) factor atoms
    meet: int | None = None            # ambient element, None if no infimum


@derived
def check_condition_I(comp: CompositeLogic) -> CompatImagesReport:
    """Are the two embedded copies compatible with each other?"""
    return CompatImagesReport(holds=mutually_compatible(
        comp.ambient, comp.pi1.map, comp.pi2.map))


@derived
def embedded_meets(comp: CompositeLogic) -> np.ndarray:
    """``table[e, f]`` is the ambient meet pi1(e) ^ pi2(f) for every pair
    of factor elements, -1 where it does not exist."""
    n = comp.factor.n
    e, f = np.divmod(np.arange(n * n), n)
    table = meets(comp.ambient.leq, np.asarray(comp.pi1.map)[e],
                  np.asarray(comp.pi2.map)[f]).reshape(n, n)
    table.setflags(write=False)
    return table


@derived
def check_condition_J(comp: CompositeLogic) -> AtomMeetsReport:
    """Is every meet of embedded factor atoms an ambient atom?"""
    table = embedded_meets(comp)
    for e in comp.factor.atoms:
        for f in comp.factor.atoms:
            m = int(table[e, f])
            if m < 0 or not comp.ambient.is_atom(m):
                return AtomMeetsReport(holds=False, failing_pair=(e, f),
                                       meet=None if m < 0 else m)
    return AtomMeetsReport(holds=True)


def structural_verdicts(comp: CompositeLogic) -> dict:
    """Conditions (I) and (J) as the "holds"/"fails" words that the CLI
    and the fixture manifest print."""
    return {key: "holds" if check(comp).holds else "fails"
            for key, check in (("compat_images", check_condition_I),
                               ("atom_meets", check_condition_J))}


def meet_embed(comp: CompositeLogic, e: int, f: int) -> int:
    """The ambient infimum of pi1(e) and pi2(f)."""
    m = int(embedded_meets(comp)[e, f])
    if m < 0:
        raise NoInfimum(
            f"pi1({comp.factor.labels[e]!r}) ^ pi2({comp.factor.labels[f]!r}) "
            "does not exist in the ambient logic"
        )
    return m


# ---------------------------------------------------------------------------
# state conditions on a logic
# ---------------------------------------------------------------------------

def require_state_conditions(logic: FiniteLogic, context: str) -> None:
    missing = [name for name, check in (("F", check_condition_F),
                                        ("G", check_condition_G),
                                        ("H", check_condition_H))
               if not check(logic).holds]
    if missing:
        raise PreconditionFailed(
            f"{context} needs conditions {', '.join(missing)} to hold"
        )


# ---------------------------------------------------------------------------
# Lemma 2: transitions multiply across the two copies
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Lemma2Report:
    holds: bool
    tuple_: tuple               # (e1, e2, f1, f2)
    factor_values: tuple        # (P(e2|e1), P(f2|f1))
    ambient_value: object       # P(meet2 | meet1)


def check_lemma2(comp: CompositeLogic, e1: int, e2: int,
                 f1: int, f2: int) -> Lemma2Report:
    if not check_condition_I(comp).holds:
        raise PreconditionFailed(
            "the product identity is only proved under mutual compatibility "
            "of the embedded copies"
        )
    factor = comp.factor
    se = transition_probability(factor, e2, e1)
    sf = transition_probability(factor, f2, f1)
    if not (se.exists and sf.exists):
        raise PreconditionFailed(
            "both factor transitions must exist for the product identity"
        )
    m1 = meet_embed(comp, e1, f1)
    m2 = meet_embed(comp, e2, f2)
    lhs = transition_probability(comp.ambient, m2, m1)
    product = se.value * sf.value
    if not lhs.exists or lhs.value != product:
        raise LemmaViolated(
            f"product identity fails: ambient transition "
            f"{'undefined' if not lhs.exists else lhs.value} vs "
            f"{se.value} * {sf.value} = {product}",
            details={"tuple": (e1, e2, f1, f2), "ambient": lhs,
                     "factors": (se, sf)},
        )
    return Lemma2Report(True, (e1, e2, f1, f2), (se.value, sf.value), lhs.value)


def lemma2_sweep(comp: CompositeLogic, pairs) -> int:
    """``check_lemma2`` on every tuple (e1, e2, f1, f2) with (e1, e2) and
    (f1, f2) in ``pairs``, in that order; returns the number of tuples.

    The factor and the ambient transitions are asked once each for the
    whole grid, and every tuple is compared in one array pass over the
    embedded meets.  The first failing tuple is replayed through
    ``check_lemma2``, so it raises what a loop over the tuples raises.
    """
    n = len(pairs)
    ok = np.zeros((n, n), dtype=bool)
    if n and check_condition_I(comp).holds:
        E, F = np.array(pairs, dtype=np.intp).T  # P(F[i] | E[i])
        low, high = transitions(comp.factor, F, E)
        exists = low == high
        i, j = np.nonzero(exists[:, None] & exists[None, :])
        table = embedded_meets(comp)
        m1, m2 = table[E[i], E[j]], table[F[i], F[j]]
        have = (m1 >= 0) & (m2 >= 0)
        i, j = i[have], j[have]
        amb_low, amb_high = transitions(comp.ambient, m2[have], m1[have])
        ok[i, j] = (amb_low == amb_high) & (amb_low == low[i] * low[j])
    bad = np.flatnonzero(~ok)
    if bad.size:
        i, j = divmod(int(bad[0]), n)
        check_lemma2(comp, *pairs[i], *pairs[j])
        raise InternalInvariantError(
            f"the Lemma 2 sweep fails tuple {(*pairs[i], *pairs[j])} "
            "and check_lemma2 passes it"
        )
    return n * n


# ---------------------------------------------------------------------------
# Lemma 3: restrictions are atomic iff the joint state is atomic
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Lemma3Report:
    holds: bool
    atoms: tuple                 # (e, f)
    restrictions_atomic: bool    # rho o pi1 = P_e and rho o pi2 = P_f
    joint_atomic: bool           # rho = P_(pi1 e ^ pi2 f)


def _require_lemma3_conditions(comp: CompositeLogic) -> None:
    if not (check_condition_I(comp).holds and check_condition_J(comp).holds):
        raise PreconditionFailed(
            "restriction equivalence requires both structural conditions"
        )
    require_state_conditions(comp.ambient, "the restriction equivalence")


def check_lemma3(comp: CompositeLogic, e: int, f: int, rho) -> Lemma3Report:
    _require_lemma3_conditions(comp)
    factor = comp.factor
    for x in (e, f):
        if not factor.is_atom(x):
            raise PreconditionFailed(f"{factor.labels[x]!r} is not an atom")
    lhs = (dual_state(comp.pi1, rho) == atomic_state(factor, e)
           and dual_state(comp.pi2, rho) == atomic_state(factor, f))
    joint = atomic_state(comp.ambient, meet_embed(comp, e, f))
    rhs = rho == joint
    if lhs != rhs:
        raise LemmaViolated(
            f"restriction equivalence fails for atoms "
            f"({factor.labels[e]!r}, {factor.labels[f]!r}): "
            f"restrictions atomic = {lhs}, joint atomic = {rhs}",
            details={"atoms": (e, f), "state": rho},
        )
    return Lemma3Report(True, (e, f), lhs, rhs)


def lemma3_sweep(comp: CompositeLogic, rhos, pairs) -> int:
    """``check_lemma3`` on every (e, f, rho) with rho in ``rhos`` (the
    outer loop) and (e, f) in ``pairs`` (the inner one); returns the
    number of tuples.

    The preconditions are asked once, and each state is pulled back
    along each projection at most once, when a tuple first needs it.
    Every tuple is decided by the comparisons ``check_lemma3`` makes, in
    its order, against the stored atomic states.  The first failing
    tuple is replayed through ``check_lemma3``, so it raises what a loop
    over the tuples raises.
    """
    if not (rhos and pairs):
        return 0
    _require_lemma3_conditions(comp)
    factor = comp.factor
    projections = (comp.pi1, comp.pi2)
    for rho in rhos:
        pulled = [None, None]

        def restriction(i):
            if pulled[i] is None:
                pulled[i] = dual_state(projections[i], rho)
            return pulled[i]

        for e, f in pairs:
            if not (factor.is_atom(e) and factor.is_atom(f)):
                holds = False
            else:
                lhs = (restriction(0) == atomic_state(factor, e)
                       and restriction(1) == atomic_state(factor, f))
                joint = atomic_state(comp.ambient, meet_embed(comp, e, f))
                holds = lhs == (rho == joint)
            if not holds:
                check_lemma3(comp, e, f, rho)
                raise InternalInvariantError(
                    f"the Lemma 3 sweep fails atoms {(e, f)} on {rho!r} "
                    "and check_lemma3 passes them"
                )
    return len(rhos) * len(pairs)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def composite_from_dict(data: dict, load_logic_fn) -> CompositeLogic:
    """Build a composite from its file form.

    ``load_logic_fn`` resolves a path string or inline object to a
    validated FiniteLogic.
    """
    try:
        factor = load_logic_fn(data["factor"])
        ambient = load_logic_fn(data["ambient"])
        map1 = list_of(data["pi1"], int, "pi1")
        map2 = list_of(data["pi2"], int, "pi2")
    except (KeyError, TypeError, ValueError) as exc:
        raise LogicInputError(f"malformed composite description: {exc}") from exc
    return make_composite(factor, ambient, map1, map2)
