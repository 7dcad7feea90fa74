"""Cloning transformations on composite logics and their impossibility.

A cloning transformation for a set C of factor atoms (with blank atom f)
is an ambient automorphism that, on every joint state whose first
restriction is an atomic state from C and whose second restriction is
the blank atomic state, copies the first restriction onto the second.
The qualifying joint states are exactly the atomic states of the input
meet atoms e ^ f, and by Lemma 1(b) the dual of an atomic state is the
atomic state of the preimage atom.  So an automorphism clones exactly
when the preimage of each input meet atom e ^ f is the copied meet atom
e ^ e.  An automorphism is a bijection, so that is read forwards here:
it clones exactly when it sends each copied meet atom e ^ e to the input
meet atom e ^ f.  The paper's definition, evaluated on states, is kept
in the tests as the reference this criterion is checked against.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import itemgetter

from .composite import (
    CompositeLogic,
    check_condition_I,
    check_condition_J,
    meet_embed,
    require_state_conditions,
)
from .errors import (
    CertificateFailed,
    ConstructionFailed,
    LogicInputError,
    NotBoolean,
    PreconditionFailed,
)
from .morphisms import (
    Automorphism,
    DEFAULT_SEARCH_BUDGET,
    _atom_extender,
    _iter_atom_perms,
)
from .states import atomic_state, transition_probability


class CloneProblem:
    """A composite logic, a set C of factor atoms to clone, a blank atom f.

    Construction verifies every precondition: C and f are atoms, both
    structural conditions hold on the composite, the ambient logic
    passes the three state-space conditions, and the atoms of C and f
    have unique atomic states in the factor (``factor_state``,
    ``blank_state``).  Condition G on the ambient makes the atomic state
    of each meet atom unique as well, so the cloning question reduces to
    the meet atoms ``input_atom[e]`` (e ^ f) and ``copied_atom[e]`` (e ^ e).
    """

    def __init__(self, composite: CompositeLogic, C, f: int):
        self.composite = composite
        self.C = tuple(sorted(set(C)))
        self.f = f
        factor = composite.factor
        if not self.C:
            raise PreconditionFailed("C must be a non-empty set of atoms")
        for a in self.C + (f,):
            if not factor.is_atom(a):
                raise PreconditionFailed(f"{factor.labels[a]!r} is not an atom")
        if not check_condition_I(composite).holds:
            raise PreconditionFailed("embedded copies are not mutually compatible")
        if not check_condition_J(composite).holds:
            raise PreconditionFailed("embedded atom meets are not all atoms")
        require_state_conditions(composite.ambient, "cloning analysis")

        # meet atoms carrying the qualifying joint states
        self.input_atom = {e: meet_embed(composite, e, f) for e in self.C}
        self.copied_atom = {e: meet_embed(composite, e, e) for e in self.C}
        self.factor_state = {e: atomic_state(factor, e) for e in self.C}
        self.blank_state = atomic_state(factor, f)


def is_cloning_transformation(problem: CloneProblem, T: Automorphism) -> bool:
    """Does the automorphism satisfy the cloning definition?

    By Lemma 1(b) it does exactly when the preimage of each input meet
    atom e ^ f is the copied meet atom e ^ e, that is, when it sends each
    copied meet atom to its input meet atom.
    """
    if T.source is not problem.composite.ambient:
        raise LogicInputError("automorphism does not act on the ambient logic")
    return all(T.map[problem.copied_atom[e]] == problem.input_atom[e]
               for e in problem.C)


# ---------------------------------------------------------------------------
# the classical cloner on Boolean ambients
# ---------------------------------------------------------------------------

def classical_cloner(problem: CloneProblem) -> Automorphism:
    """Swap each input meet atom with its copied meet atom, fix the rest.

    Extends the atom transposition to the whole Boolean ambient through
    the atom masks.  The swap sends each copied meet atom e ^ e to the
    input meet atom e ^ f, which is the cloning criterion.
    """
    comp = problem.composite
    ambient = comp.ambient
    if not ambient.is_boolean:
        raise NotBoolean("the explicit cloner construction needs a Boolean ambient")
    factor = comp.factor
    for i, e1 in enumerate(problem.C):
        for e2 in problem.C[i + 1:]:
            if not factor.orthogonal(e1, e2):
                raise PreconditionFailed(
                    f"atoms {factor.labels[e1]!r}, {factor.labels[e2]!r} "
                    "are not orthogonal"
                )
    pos = {a: i for i, a in enumerate(ambient.atoms)}
    sigma = list(range(len(ambient.atoms)))
    for e in problem.C:
        i, j = pos[problem.copied_atom[e]], pos[problem.input_atom[e]]
        sigma[i], sigma[j] = sigma[j], sigma[i]
    auto = _atom_extender(ambient).extend(tuple(sigma))
    if auto is None:
        raise ConstructionFailed("atom transposition does not extend")
    return auto


# ---------------------------------------------------------------------------
# exhaustive search and the impossibility certificate
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CloneReport:
    cloner: Automorphism | None
    pairwise: dict                 # (e1, e2) -> TransitionProbability of P(e2|e1)
    orthogonal: bool
    theorem_consistent: bool       # cloner found implies pairwise orthogonal
    scanned: int = 0               # automorphism candidates examined


def _pairwise_table(problem: CloneProblem) -> dict:
    factor = problem.composite.factor
    table = {}
    for e1 in problem.C:
        for e2 in problem.C:
            table[(e1, e2)] = transition_probability(factor, e2, e1)
    return table


def clone_search(problem: CloneProblem,
                 budget=DEFAULT_SEARCH_BUDGET) -> CloneReport:
    """Filter the full ambient automorphism group for cloning maps.

    The cloning criterion, read on atom positions, filters the atom
    permutations before they are extended: each must send the copied
    meet atom to the input meet atom.  So every permutation that
    passes and extends is a cloner, and the first one is reported.
    """
    comp = problem.composite
    ambient = comp.ambient
    ext = _atom_extender(ambient)
    pos = {a: i for i, a in enumerate(ambient.atoms)}
    sources = [pos[problem.copied_atom[e]] for e in problem.C]
    targets = tuple(pos[problem.input_atom[e]] for e in problem.C)
    images = itemgetter(*sources)
    if len(sources) == 1:
        targets = targets[0]  # a one-index itemgetter returns a scalar
    cloner = None
    scanned = 0
    for scanned, sigma in enumerate(_iter_atom_perms(ambient, budget), 1):
        if images(sigma) != targets:
            continue
        cloner = ext.extend(sigma)
        if cloner is not None:
            break

    factor = comp.factor
    orthogonal = all(
        factor.orthogonal(e1, e2)
        for i, e1 in enumerate(problem.C) for e2 in problem.C[i + 1:]
    )
    return CloneReport(
        cloner=cloner,
        pairwise=_pairwise_table(problem),
        orthogonal=orthogonal,
        theorem_consistent=(cloner is None) or orthogonal,
        scanned=scanned,
    )


@dataclass(frozen=True)
class CertificatePair:
    pair: tuple            # (e1, e2)
    transition: object     # P(e2|e1) in the factor
    direct: object         # ambient transition between input meet atoms
    pulled_back: object    # ambient transition between copied meet atoms
    idempotent: bool       # transition in {0, 1}


@dataclass(frozen=True)
class TheoremCertificate:
    holds: bool
    pairs: tuple
    cloner: Automorphism


def theorem1_certificate(problem: CloneProblem,
                         T: Automorphism | None = None,
                         budget=DEFAULT_SEARCH_BUDGET) -> TheoremCertificate:
    """Replay the impossibility argument numerically for a cloner.

    For every pair in C the ambient transition between the input meet
    atoms is computed twice: directly (which multiplies out to the
    factor transition) and through the cloner's inverse image (which
    squares it).  Their equality forces every pairwise transition into
    {0, 1}, i.e. the atoms of C are orthogonal or identical.
    """
    if T is None:
        T = clone_search(problem, budget).cloner
    if T is None:
        raise PreconditionFailed("no cloning transformation supplied or found")
    if not is_cloning_transformation(problem, T):
        raise PreconditionFailed("the supplied automorphism is not a cloner")
    comp = problem.composite
    factor, ambient = comp.factor, comp.ambient
    rows = []
    for e1 in problem.C:
        for e2 in problem.C:
            s = transition_probability(factor, e2, e1)
            if not s.exists:
                raise CertificateFailed(
                    f"transition between atoms {factor.labels[e1]!r}, "
                    f"{factor.labels[e2]!r} does not exist",
                    details={"pair": (e1, e2)},
                )
            direct = transition_probability(
                ambient, problem.input_atom[e2], problem.input_atom[e1]
            )
            pulled = transition_probability(
                ambient, problem.copied_atom[e2], problem.copied_atom[e1]
            )
            ok = (direct.exists and pulled.exists
                  and direct.value == s.value
                  and pulled.value == s.value * s.value
                  and direct.value == pulled.value)
            if not ok:
                raise CertificateFailed(
                    f"certificate mismatch for pair ({factor.labels[e1]!r}, "
                    f"{factor.labels[e2]!r}): transition {s.value}, direct "
                    f"{direct}, pulled back {pulled}",
                    details={"pair": (e1, e2), "transition": s,
                             "direct": direct, "pulled": pulled},
                )
            # s == direct == pulled == s * s, so s is 0 or 1 here
            rows.append(CertificatePair(
                pair=(e1, e2), transition=s.value,
                direct=direct.value, pulled_back=pulled.value,
                idempotent=s.value in (0, 1),
            ))
    return TheoremCertificate(holds=True, pairs=tuple(rows), cloner=T)
