"""Exception types shared across the package."""


class RwpotError(Exception):
    pass


class DomainError(RwpotError, ValueError):
    """An argument lies outside the operation's domain (site not in region, etc.)."""


class ParameterError(RwpotError, ValueError):
    """A structurally invalid parameter (odd cube side, nonpositive scale, ...)."""


class CapacityError(RwpotError, RuntimeError):
    """A configured enumeration/budget cap would be exceeded."""


class AssumptionError(RwpotError, RuntimeError):
    """A distribution fails a moment hypothesis required by the experiment.

    ``name`` identifies the failed hypothesis ("A1", "A2", "A3" or
    "finite-support").
    """

    def __init__(self, name, message):
        self.name = name
        super().__init__(message)


class FeasibilityError(RwpotError, RuntimeError):
    """Rejection sampling acceptance rate too low to condition naively."""


class DegenerateWeightError(RwpotError, RuntimeError):
    """A travel weight underflowed to zero where a positive value is required."""


class SolverError(RwpotError, RuntimeError):
    """The linear solve did not reach the required residual."""
