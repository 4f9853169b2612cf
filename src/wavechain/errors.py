"""Exception types shared across the library.

Every contract violation raises a named error so callers can react to the
specific failure instead of parsing messages.
"""


class WavechainError(Exception):
    """Base class for all library-specific errors."""


class NegativeEntry(WavechainError, ValueError):
    """A matrix or vector that must be nonnegative has a negative entry."""


class RowSumViolation(WavechainError, ValueError):
    """A row of a would-be stochastic matrix does not sum to one."""

    def __init__(self, row: int, total: float):
        self.row = int(row)
        self.total = float(total)
        super().__init__(f"row {row} sums to {total!r}, expected 1 within 1e-12")


class NotBijective(WavechainError, ValueError):
    """A forward map is not a bijection of the state space."""


class SpaceMismatch(WavechainError, ValueError):
    """Two objects defined over different state spaces were combined."""


class WindowInverted(WavechainError, ValueError):
    """A composition window (n, m) with n > m was requested."""


class WaveMeasureMissing(WavechainError):
    """The invariant measure of the shifted kernel is unavailable."""


class NotIrreducible(WavechainError):
    """The kernel's support graph is not strongly connected."""


class NotConverged(WavechainError):
    """An iterative solver stopped before reaching its accuracy target."""


class FlowMismatch(WavechainError, ValueError):
    """A measure pair fails mu_out K = mu_in where a method relies on it."""


class ZeroWeight(WavechainError, ValueError):
    """A weight vector that must be strictly positive has a zero entry."""


class TooLarge(WavechainError):
    """A dense computation was requested above the supported size."""


class NotSelfAdjoint(WavechainError, ValueError):
    """A kernel is not self-adjoint in the given weighted inner product."""


class NotSymmetric(WavechainError, ValueError):
    """A matrix that must be symmetric is not."""


class StabilityNotCertified(WavechainError):
    """A stability ratio hypothesis failed for the supplied constant."""


class NotMerging(WavechainError):
    """A merging-based quantity was requested for a non-merging system."""


class HorizonTooShort(WavechainError, ValueError):
    """A time horizon does not reach the regime where a bound applies."""


class UniformMeasure(WavechainError):
    """An analysis that needs a non-uniform measure received a uniform one."""


class InvalidPivot(WavechainError, ValueError):
    """A pivot state fails the positivity conditions of the ratio bound."""


class PerturbationShapeViolated(WavechainError, ValueError):
    """A perturbation row does not have the required sign pattern."""


class EvenN(WavechainError, ValueError):
    """An odd-size construction was asked for an even number of states."""


class DeltaOutOfRange(WavechainError, ValueError):
    """A perturbation strength lies outside its admissible interval."""


class ConditionViolated(WavechainError, ValueError):
    """A named validity condition of a perturbation decomposition fails."""

    def __init__(self, condition: str, detail: str = ""):
        self.condition = condition
        msg = f"condition ({condition}) violated"
        if detail:
            msg += f": {detail}"
        super().__init__(msg)


class DegreeInfeasible(WavechainError, ValueError):
    """No simple regular graph exists for the requested size and degree."""


class ConfigInvalid(WavechainError, ValueError):
    """An experiment configuration is malformed or inconsistent."""


class ModelUnknown(WavechainError, ValueError):
    """A model name is not in the registry."""


class BoundViolated(WavechainError):
    """A quantitative inequality that the library asserts failed numerically."""
