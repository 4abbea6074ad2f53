"""Exception types raised by the qembound library."""


class QemBoundError(Exception):
    """Base class for all qembound errors."""


class NonFiniteInput(QemBoundError):
    """A matrix, vector or weight given as input has a NaN or infinite entry."""


# --- CCR validation and eigenstructure ---

class OddDimension(QemBoundError):
    """A CCR matrix must have even order."""


class NotAntisymmetric(QemBoundError):
    """Antisymmetry violated beyond tolerance."""


class SingularCcr(QemBoundError):
    """The CCR matrix is numerically singular."""


class EigenSolverFailure(QemBoundError):
    """The eigenstructure backend failed or produced an invalid basis."""


class UnsupportedFunction(QemBoundError):
    """Requested matrix function is not in the supported set."""


# --- states and norms ---

class DimensionMismatch(QemBoundError):
    """Vector or matrix dimensions are inconsistent."""


class NotAdmissible(QemBoundError):
    """Covariance fails the quantum admissibility test C + i*Theta >= 0."""


class NotPositiveDefinite(QemBoundError):
    """A matrix required to be symmetric positive definite is not."""


class NormDivergent(QemBoundError):
    """The weighted norm integral diverges for the given weight."""


# --- moments and bounds ---

class RiskParameterTooLarge(QemBoundError):
    """The risk sensitivity exceeds the finiteness threshold of the moment."""


class WeightOutOfInterval(QemBoundError):
    """Weight matrix outside the admissible interval for the moment bound."""


class EmptyFeasibleWindow(QemBoundError):
    """No scalar weight satisfies both finiteness constraints."""


class InvalidRange(QemBoundError):
    """Invalid search range for the tail-bound optimization."""


class NumericalOverflowDespiteLogSpace(QemBoundError):
    """Non-finite intermediate in a log-space computation (defensive)."""


# --- dynamics ---

class ExpmFailure(QemBoundError):
    """Matrix-exponential or Lyapunov backend produced an unusable result."""


class NotHurwitz(QemBoundError):
    """Matrix has eigenvalues with nonnegative real part."""


class InternalAdmissibilityViolation(QemBoundError):
    """Propagated state lost quantum admissibility; indicates a numerical fault."""


# --- classical oracle ---

class SuspectedDivergence(QemBoundError):
    """Tail-weight diagnostics indicate a divergent expectation."""


# --- CLI ---

class ConfigParse(QemBoundError):
    """Scenario configuration is malformed."""
