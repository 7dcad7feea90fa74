"""Finite quantum logics with an exact conditional-probability calculus.

The package models event logics as finite orthomodular posets, computes
their state polytopes and conditional/transition probabilities in exact
rational arithmetic, enumerates morphisms and automorphisms, builds
composite logics from two embedded copies, searches for cloning
transformations, and certifies that cloners only exist for pairwise
orthogonal atomic states.  A complex-matrix model of the same calculus
(projections, densities, the trace rule) ties the combinatorics back to
ordinary quantum mechanics.
"""

from .builders import (
    boolean_algebra,
    greechie,
    hexagon_o6,
    mo_logic,
    nonfaithful_logic,
    stateless_logic,
)
from .cloning import (
    CloneProblem,
    CloneReport,
    TheoremCertificate,
    classical_cloner,
    clone_search,
    is_cloning_transformation,
    theorem1_certificate,
)
from .compat import (
    CompatibilityVerdict,
    is_compatible_subset,
    mutually_compatible,
)
from .composite import (
    CompositeLogic,
    boolean_product,
    check_condition_I,
    check_condition_J,
    check_lemma2,
    check_lemma3,
    make_composite,
    meet_embed,
)
from .core import (
    FiniteLogic,
    LogicDescription,
    validate_logic,
)
from .fixtures import fixture_names, load_fixture, verify_fixture
from .morphisms import (
    Automorphism,
    Morphism,
    automorphisms,
    check_lemma1a,
    check_lemma1b,
    dual_state,
    iter_automorphisms,
    validate_automorphism,
    validate_morphism,
)
from .states import (
    State,
    StatePolytope,
    atom_equivalences,
    atomic_state,
    check_condition_F,
    check_condition_G,
    check_condition_H,
    conditional_probability,
    state_polytope,
    transition_probability,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
