"""Exception types shared across the package, and the package's one
definition of a valid real, positive real and count (``check_real``,
``check_positive``, ``check_count``). A bool, a string or None is none of
them (``True`` is no batch size). A plain float or int is tested first, so
a well-typed argument costs one type test and one comparison.
"""

import math
import numbers

_INF = math.inf


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


def check_real(name: str, v) -> float:
    """``v`` as a finite float; DomainError for anything else."""
    if type(v) is float and -_INF < v < _INF:
        return v
    if isinstance(v, bool) or not isinstance(v, numbers.Real):
        raise DomainError(f"{name} must be a real number, got {v!r}")
    try:
        f = float(v)
    except OverflowError:
        f = _INF
    if not math.isfinite(f):
        raise DomainError(f"{name} must be finite, got {v!r}")
    return f


def check_positive(name: str, v) -> float:
    """``v`` as a finite float > 0; DomainError for anything else."""
    if type(v) is float and 0.0 < v < _INF:
        return v
    f = check_real(name, v)
    if f <= 0.0:
        raise DomainError(f"{name} must be > 0, got {v!r}")
    return f


def check_count(name: str, v, least: int = 1) -> int:
    """``v`` as an int >= ``least``; DomainError for anything else."""
    if type(v) is not int:
        if isinstance(v, bool) or not isinstance(v, numbers.Integral):
            raise DomainError(f"{name} must be an integer, got {v!r}")
        v = int(v)
    if v < least:
        raise DomainError(f"{name} must be >= {least}, got {v!r}")
    return v
