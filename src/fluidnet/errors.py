"""Exception and warning types shared across the package."""


class FluidNetError(Exception):
    """Base class for all fluidnet errors."""


class SpecError(FluidNetError):
    """A network description failed validation."""


class SpectralRadiusTooLarge(SpecError):
    """Routing matrix has spectral radius >= 1, so fluid never leaves."""


class RoutingNotSubstochastic(SpecError):
    """Routing matrix has a negative entry or a row sum above one."""


class ConstituencyNotPartition(SpecError):
    """Constituency matrix does not assign every class to exactly one station."""


class NegativeRate(SpecError):
    """An arrival rate is negative, a service rate is not strictly positive, or
    either is not finite."""


class BadPermutation(SpecError):
    """Priority order is not a permutation of the class indices."""


class DimensionMismatch(FluidNetError):
    """Array shapes are inconsistent with the declared class/station counts."""


class InfeasibleActiveSet(FluidNetError):
    """No admissible control exists for the requested boundary configuration."""


class StepTooLarge(FluidNetError):
    """Event splitting exceeded the sub-step budget; reduce the step size."""


class EndpointMismatch(FluidNetError):
    """Concatenation endpoints differ beyond tolerance."""


class UnknownFixture(FluidNetError):
    """No built-in path family with the requested name."""


class NotCompletelyS(FluidNetError):
    """Reflection matrix is not completely-S, so the problem may have no solution."""


class PushBoundExceeded(FluidNetError):
    """The minimal boundary push exceeds the configured control bound."""


class DimensionTooLarge(FluidNetError):
    """Combinatorial check refused: too many principal submatrices or active indices."""


class BadHorizon(FluidNetError):
    """A simulation horizon is negative, infinite or NaN."""


class BadStep(FluidNetError):
    """A step size is zero, negative, infinite or NaN."""


class NoSeeds(FluidNetError):
    """A sampled comparison was given no seeds to run."""


# The classes below also derive from ValueError, so callers that catch
# ValueError around these checks keep catching them.


class NonFiniteInput(FluidNetError, ValueError):
    """An initial state, drift or reflection matrix holds NaN or infinity."""


class NegativeState(FluidNetError, ValueError):
    """An initial state has a negative component."""


class BadPushBound(FluidNetError, ValueError):
    """A reflection push bound is zero, negative or NaN."""


class BadSeed(FluidNetError, ValueError):
    """A seed is negative."""


class BadCount(FluidNetError, ValueError):
    """A sample, multistart or search-depth count is negative or above its cap."""


class BadFactor(FluidNetError, ValueError):
    """A scale factor, Lipschitz constant or draining time is not finite and positive."""


class ShiftBeyondHorizon(FluidNetError, ValueError):
    """Requested shift, cut or evaluation time lies outside the sampled time range."""


class NoNetwork(FluidNetError, ValueError):
    """A trajectory without its generating network was asked for a network quantity."""


class BadCandidate(FluidNetError, ValueError):
    """A Lyapunov candidate has a negative piece or vanishes on some coordinate."""


class NotStable(FluidNetError, ValueError):
    """A check that needs a stable verdict was given another."""


class UnknownDiscipline(SpecError, ValueError):
    """A network names a service discipline other than work_conserving or priority."""


class UnknownLaw(SpecError, ValueError):
    """A queueing class names an unknown law, or law 'none' while it has inflow."""


class EventBudgetExceeded(FluidNetError):
    """Discrete-event simulation exceeded its event budget."""


class IoError(FluidNetError):
    """Writing an artifact to disk failed."""


class ParseError(FluidNetError):
    """A network description file could not be parsed."""

    def __init__(self, message, line=None, column=None):
        if line is not None:
            message = f"{message} (line {line}" + (
                f", column {column})" if column is not None else ")"
            )
        super().__init__(message)
        self.line = line
        self.column = column


class TruncatedWarning(UserWarning):
    """Integral computed on a trajectory that never drained; value is a lower bound."""
