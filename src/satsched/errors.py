"""Exception types shared across the package."""


class SatschedError(Exception):
    """Base class for all package-specific failures."""


class DomainError(SatschedError, ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class EstimationError(SatschedError):
    """A fit could not be produced from the given samples (degenerate data,
    rank-deficient design, or a model that violates its own constraints)."""


class ConvergenceError(SatschedError):
    """A numeric kernel used up its iteration cap before reaching its
    tolerance, so no value within the documented accuracy exists to return."""


class InfeasibleLinkError(SatschedError):
    """The radio link cannot deliver the payload (block error rate at or
    above one, so the retransmission process never terminates)."""


class InfeasibleBudgetError(SatschedError):
    """Communication delays consume the entire end-to-end deadline."""


class InfeasibleConstraintError(SatschedError):
    """No frequency in the admissible range meets the reliability target.

    Carries the reliability achievable at the top frequency so callers can
    report how far away the target was.
    """

    def __init__(self, message: str, achievable_reliability: float):
        super().__init__(message)
        self.achievable_reliability = achievable_reliability


class ConfigError(SatschedError):
    """A scenario configuration file is malformed. The message names the
    offending key path."""
