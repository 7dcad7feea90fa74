"""Exception hierarchy shared by all qlogic modules.

Every class carries the exit code and the ``error`` kind the CLI reports
when an error of that class ends a command: 1 "refuted" or
"empty_state_space", 2 "input", 3 "budget_exceeded", 4 "internal".
"""


class QLogicError(Exception):
    """Base class for all errors raised by this package."""

    exit_code = 2
    kind = "input"


class Refuted(QLogicError):
    """A mechanically checked identity failed; carries the compared values."""

    exit_code = 1
    kind = "refuted"

    def __init__(self, message, details=None):
        self.details = details or {}
        super().__init__(message)


# ---------------------------------------------------------------------------
# Logic validation
# ---------------------------------------------------------------------------

class LogicInputError(QLogicError):
    """Raw logic description is malformed (bad indices, duplicate labels...)."""


class NotAPartialOrder(QLogicError):
    """The transitive closure of the input pairs is not antisymmetric."""

    def __init__(self, i, j, labels=None):
        self.pair = (i, j)
        a, b = (labels[i], labels[j]) if labels else (i, j)
        super().__init__(f"antisymmetry fails: {a!r} <= {b!r} and {b!r} <= {a!r}")


class NoBounds(QLogicError):
    """The poset has no minimum or no maximum at the declared indices."""


class OrthoNotInvolutive(QLogicError):
    """The orthocomplementation map is not an involution."""


class AxiomViolation(QLogicError):
    """One of the orthomodular axioms fails.

    Attributes:
        axiom: one of "A", "B", "C", "D", "E"
        witness: tuple of element indices exhibiting the failure
    """

    def __init__(self, axiom, witness, message):
        self.axiom = axiom
        self.witness = tuple(witness)
        super().__init__(f"axiom ({axiom}) fails: {message}")


class NoSupremum(QLogicError):
    """The pair has no unique least upper bound."""


class NoInfimum(QLogicError):
    """The pair has no unique greatest lower bound."""


# ---------------------------------------------------------------------------
# Budgets
# ---------------------------------------------------------------------------

class SearchBudgetExceeded(QLogicError):
    """A combinatorial search hit its node budget; the answer is unknown."""

    exit_code = 3
    kind = "budget_exceeded"


class VertexBudgetExceeded(QLogicError):
    """Vertex enumeration hit its budget; the vertex list is incomplete."""

    exit_code = 3
    kind = "budget_exceeded"


# ---------------------------------------------------------------------------
# State space
# ---------------------------------------------------------------------------

class EmptyStateSpace(QLogicError):
    """The logic admits no state at all."""

    exit_code = 1
    kind = "empty_state_space"


class ZeroCondition(QLogicError):
    """Conditioning on an event of probability zero."""


class UndefinedTransition(QLogicError):
    """No state concentrates on the conditioning event, so the
    state-independent transition probability has no meaning."""


class NotAnAtom(QLogicError):
    """The element is not an atom."""


class NotUnique(QLogicError):
    """A state required to be unique is not (or does not exist)."""


class StateInvariantError(QLogicError):
    """A value vector violates the state axioms (bounds or additivity)."""


class EquivalenceViolated(Refuted):
    """The four atom identities did not agree; carries the truth table."""

    def __init__(self, table, message):
        self.table = dict(table)
        super().__init__(message)


# ---------------------------------------------------------------------------
# Morphisms
# ---------------------------------------------------------------------------

class NotOrderPreserving(QLogicError):
    """Morphism candidate maps some e1 <= e2 to incomparable images."""


class OrthoNotPreserved(QLogicError):
    """Morphism candidate does not commute with orthocomplementation."""


class UnitNotPreserved(QLogicError):
    """Morphism candidate does not send the unit to the unit."""


class NotInjective(QLogicError):
    """Map required to be injective is not."""


class LemmaViolated(Refuted):
    """A mechanically checked lemma identity failed; carries both sides."""


# ---------------------------------------------------------------------------
# Composites and cloning
# ---------------------------------------------------------------------------

class NotBoolean(QLogicError):
    """The logic is not a Boolean algebra although one is required."""


class PreconditionFailed(QLogicError):
    """A documented precondition of the operation does not hold."""


class CertificateFailed(Refuted):
    """The no-cloning certificate found a mismatching value pair."""


class UnknownFixture(QLogicError):
    """Requested fixture name is not in the catalog."""


class InternalInvariantError(QLogicError):
    """A property that is a proven consequence failed; signals a bug."""

    exit_code = 4
    kind = "internal"


# ---------------------------------------------------------------------------
# Hilbert model
# ---------------------------------------------------------------------------

class CheckFailed(Refuted):
    """A numerical identity check exceeded its tolerance; carries values."""


class OperatorInvariantError(QLogicError):
    """Matrix does not satisfy the declared operator invariants."""


class DimensionMismatch(QLogicError):
    """Operator/vector dimensions are incompatible."""
