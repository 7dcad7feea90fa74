"""Matrix realization of the event calculus on small Hilbert spaces.

Events are self-adjoint projections, states are density operators, and
conditioning is the trace rule trace(aefe)/trace(ae) of the projective
measurement update.  The state-independent transition between events
corresponds to the operator identity efe = s e, and on rank-1
projections it reduces to the squared overlap of the carrying vectors.
All checks are numerical with configurable tolerances; dimension 2 is
allowed although conditionals are not unique there, and reports carry
that caveat.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    CheckFailed,
    DimensionMismatch,
    OperatorInvariantError,
    ZeroCondition,
)

DEFAULT_TOL = 1e-9
STRICT_TOL = 1e-12

DIM_TWO_CAVEAT = (
    "dimension 2 admits non-unique conditionals; transition formulas "
    "remain meaningful"
)


def _as_matrix(m, name):
    arr = np.array(m, dtype=np.complex128)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise OperatorInvariantError(f"{name} must be a square matrix")
    return arr


class ProjectionOperator:
    """Self-adjoint idempotent matrix within tolerance."""

    def __init__(self, matrix, tol=DEFAULT_TOL):
        m = _as_matrix(matrix, "projection")
        if np.abs(m - m.conj().T).max() > tol:
            raise OperatorInvariantError("projection is not self-adjoint")
        if np.abs(m @ m - m).max() > tol:
            raise OperatorInvariantError("projection is not idempotent")
        self.dim = m.shape[0]
        self.matrix = m

    @classmethod
    def identity(cls, dim):
        return cls(np.eye(dim))

    @classmethod
    def onto(cls, vectors, tol=DEFAULT_TOL):
        """Orthogonal projection onto the span of the given vectors."""
        arr = np.atleast_2d(np.array(vectors, dtype=np.complex128))
        q, _ = np.linalg.qr(arr.T)
        return cls(q @ q.conj().T, tol)

    def complement(self):
        return ProjectionOperator(np.eye(self.dim) - self.matrix)

    def rank(self):
        return int(round(np.trace(self.matrix).real))


class DensityOperator:
    """Self-adjoint trace-one matrix with non-negative spectrum."""

    def __init__(self, matrix, tol=DEFAULT_TOL):
        m = _as_matrix(matrix, "density")
        if np.abs(m - m.conj().T).max() > tol:
            raise OperatorInvariantError("density is not self-adjoint")
        eigs = np.linalg.eigvalsh(m)
        if eigs.min() < -tol:
            raise OperatorInvariantError(f"negative eigenvalue {eigs.min():.3e}")
        if abs(np.trace(m).real - 1.0) > tol:
            raise OperatorInvariantError(f"trace is {np.trace(m).real!r}, not 1")
        self.dim = m.shape[0]
        self.matrix = m

    @classmethod
    def maximally_mixed(cls, dim):
        return cls(np.eye(dim) / dim)


class PureVector:
    """Unit vector carrying an atomic (pure) state."""

    def __init__(self, components, tol=DEFAULT_TOL):
        v = np.array(components, dtype=np.complex128).reshape(-1)
        norm = np.linalg.norm(v)
        if abs(norm - 1.0) > tol:
            raise OperatorInvariantError(f"vector norm is {norm!r}, not 1")
        self.dim = v.size
        self.components = v

    def projector(self) -> ProjectionOperator:
        return ProjectionOperator(np.outer(self.components, self.components.conj()))


class UnitaryOperator:
    def __init__(self, matrix, tol=DEFAULT_TOL):
        m = _as_matrix(matrix, "unitary")
        if np.abs(m.conj().T @ m - np.eye(m.shape[0])).max() > tol:
            raise OperatorInvariantError("matrix is not unitary")
        self.dim = m.shape[0]
        self.matrix = m


# ---------------------------------------------------------------------------
# conditional and transition probabilities
# ---------------------------------------------------------------------------

def trace_cond_prob(a: DensityOperator, e: ProjectionOperator,
                    f: ProjectionOperator, tol=DEFAULT_TOL) -> float:
    """trace(a e f e) / trace(a e): the projective measurement update."""
    if not (a.dim == e.dim == f.dim):
        raise DimensionMismatch("operators live on different spaces")
    am, em, fm = a.matrix, e.matrix, f.matrix
    denom = np.trace(am @ em).real
    if denom <= tol:
        raise ZeroCondition(f"trace(ae) = {denom!r} is not positive")
    value = (np.trace(am @ em @ fm @ em) / denom).real
    return value


def transition_exists(e: ProjectionOperator, f: ProjectionOperator,
                      tol=DEFAULT_TOL):
    """The scalar s with e f e = s e, or None when no such scalar exists."""
    if e.dim != f.dim:
        raise DimensionMismatch("projections live on different spaces")
    em, fm = e.matrix, f.matrix
    efe = em @ fm @ em
    tr_e = np.trace(em).real
    if tr_e <= tol:
        return None  # the zero event fixes no scalar
    s = (np.trace(efe @ em) / tr_e).real
    if np.abs(efe - s * em).max() <= tol:
        return float(s)
    return None


def atom_transition(xi: PureVector, f: ProjectionOperator) -> float:
    """<xi | f xi>: transition probability out of a rank-1 event."""
    if xi.dim != f.dim:
        raise DimensionMismatch("vector and projection dimensions differ")
    return float((xi.components.conj() @ (f.matrix @ xi.components)).real)


def tensor_embed(e: ProjectionOperator, side: str, other_dim: int) -> ProjectionOperator:
    """Kronecker embedding e x 1 (side "first") or 1 x e (side "second")."""
    eye = np.eye(other_dim)
    if side == "first":
        return ProjectionOperator(np.kron(e.matrix, eye))
    if side == "second":
        return ProjectionOperator(np.kron(eye, e.matrix))
    raise ValueError(f"side must be 'first' or 'second', got {side!r}")


# ---------------------------------------------------------------------------
# product identity and cloning checks
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MatrixLemma2Report:
    holds: bool
    product_transition: float
    factor_transitions: tuple
    residual: float
    notes: tuple = ()


def lemma2_matrix_check(e1: ProjectionOperator, e2: ProjectionOperator,
                        f1: ProjectionOperator, f2: ProjectionOperator,
                        tol=DEFAULT_TOL) -> MatrixLemma2Report:
    """Transition on the product space must multiply the factor transitions."""
    s_e = transition_exists(e1, e2, tol)
    s_f = transition_exists(f1, f2, tol)
    if s_e is None or s_f is None:
        raise CheckFailed(
            "factor transitions must exist (rank-1 conditioners always do)",
            details={"s_e": s_e, "s_f": s_f},
        )
    g1 = ProjectionOperator(np.kron(e1.matrix, f1.matrix))
    g2 = ProjectionOperator(np.kron(e2.matrix, f2.matrix))
    s12 = transition_exists(g1, g2, tol)
    if s12 is None:
        raise CheckFailed(
            "product transition does not exist although the factors' do",
            details={"s_e": s_e, "s_f": s_f},
        )
    residual = abs(s12 - s_e * s_f)
    if residual > tol:
        raise CheckFailed(
            f"product identity off by {residual:.3e}",
            details={"s12": s12, "s_e": s_e, "s_f": s_f},
        )
    notes = (DIM_TWO_CAVEAT,) if e1.dim == 2 else ()
    return MatrixLemma2Report(True, s12, (s_e, s_f), residual, notes)


def test_unitary_cloner(U: UnitaryOperator, C, f: PureVector,
                        tol=DEFAULT_TOL) -> bool:
    """Does U send xi (x) f to xi (x) xi for every xi in C, up to phase?

    Phase is quotiented by comparing rank-1 projections instead of
    vectors: states, not vectors, are the physical objects.
    """
    dim = f.dim
    if U.dim != dim * dim:
        raise DimensionMismatch(
            f"unitary acts on dimension {U.dim}, expected {dim * dim}"
        )
    for xi in C:
        if xi.dim != dim:
            raise DimensionMismatch("vectors in C must match the blank vector")
        moved = U.matrix @ np.kron(xi.components, f.components)
        target = np.kron(xi.components, xi.components)
        got = np.outer(moved, moved.conj())
        want = np.outer(target, target.conj())
        if np.abs(got - want).max() > tol:
            return False
    return True


@dataclass(frozen=True)
class NoCloningReport:
    cloneable: bool
    overlap: float          # s = |<xi1|xi2>|^2
    squared: float          # s^2, the value a cloner would force
    contradiction: float    # |s - s^2|; positive iff cloning impossible
    notes: tuple = ()


def no_cloning_witness(xi1: PureVector, xi2: PureVector,
                       tol=DEFAULT_TOL) -> NoCloningReport:
    """Replay of the impossibility forcing on two pure states.

    A cloner would force the transition s between the two atomic states
    to equal its own square, so any overlap other than 0 or 1 is a
    witness against cloning the pair.
    """
    if xi1.dim != xi2.dim:
        raise DimensionMismatch("vectors live on different spaces")
    s = float(abs(xi1.components.conj() @ xi2.components) ** 2)
    cloneable = min(abs(s), abs(s - 1.0)) <= tol
    notes = (DIM_TWO_CAVEAT,) if xi1.dim == 2 else ()
    return NoCloningReport(
        cloneable=cloneable,
        overlap=s,
        squared=s * s,
        contradiction=abs(s - s * s),
        notes=notes,
    )


# ---------------------------------------------------------------------------
# constructions used by demos and tests
# ---------------------------------------------------------------------------

def basis_copy_unitary(dim: int) -> UnitaryOperator:
    """Permutation unitary copying the computational basis: |i,j> -> |i, j+i>."""
    size = dim * dim
    m = np.zeros((size, size))
    for i in range(dim):
        for j in range(dim):
            m[i * dim + (i + j) % dim, i * dim + j] = 1.0
    return UnitaryOperator(m)


def basis_vector(dim: int, i: int) -> PureVector:
    v = np.zeros(dim)
    v[i] = 1.0
    return PureVector(v)


def random_unit_vector(rng, dim: int) -> PureVector:
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return PureVector(v / np.linalg.norm(v))


def random_rank1_projection(rng, dim: int) -> ProjectionOperator:
    return random_unit_vector(rng, dim).projector()


def random_projection(rng, dim: int, rank: int) -> ProjectionOperator:
    g = rng.standard_normal((dim, rank)) + 1j * rng.standard_normal((dim, rank))
    q, _ = np.linalg.qr(g)
    return ProjectionOperator(q @ q.conj().T)


def random_unitary(rng, dim: int) -> UnitaryOperator:
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(g)
    q = q * (np.diagonal(r) / np.abs(np.diagonal(r)))
    return UnitaryOperator(q)


def random_density(rng, dim: int) -> DensityOperator:
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    m = g @ g.conj().T
    return DensityOperator(m / np.trace(m).real)
