"""Special functions, Gamma-law utilities, and fitting routines.

This module is domain-free: it knows nothing about links, GPUs, or deadlines.
Everything downstream (channel, compute, estimation, scheduler) builds on the
functions here. Heavy inner loops are delegated to :mod:`satsched.kernels`,
which does no argument checking: the public functions here check scalars
with the helpers of :mod:`satsched.errors` and arrays with numpy, and raise
DomainError, before they call a kernel.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import kernels
from .errors import (ConvergenceError, DomainError, EstimationError,
                     check_count, check_positive, check_real)

_SQRT_2PI = 2.5066282746310002


def q_function(x: float) -> float:
    """Gaussian tail probability P(Z > x) for a standard normal Z."""
    x = check_real("x", x)
    return kernels.q_func(x)


def normal_quantile(p: float) -> float:
    """Inverse standard normal CDF, accurate to ~1 ulp.

    Rational initial guess polished with two Halley steps against the
    erfc-based CDF.
    """
    p = check_real("p", p)
    if not 0.0 < p < 1.0:
        raise DomainError(f"p must lie in (0, 1), got {p!r}")
    x = kernels.norm_ppf_approx(p)
    for _ in range(2):
        err = (1.0 - kernels.q_func(x)) - p
        u = err * _SQRT_2PI * math.exp(0.5 * x * x)
        x -= u / (1.0 + 0.5 * x * u)
    return x


def gamma_cdf(t, shape, scale):
    """Regularized lower incomplete gamma P(shape, t/scale).

    Any of the three arguments may be an ndarray; they broadcast together
    and an array comes back. All-scalar input returns a float. For shapes
    from 20 to 1e7 and t/scale within 8 sd of the shape, the smaller of P
    and 1 - P is within 1e-13 relative of its exact value (tested against
    mpmath).

    Raises:
        ConvergenceError: an evaluation needs more steps than the kernels'
            iteration cap. Shapes above 30 with |t/scale - shape| below
            0.3 x shape are evaluated by Temme's expansion, which has no
            loop, so large shapes near the mode do not raise.
    """
    if (isinstance(t, np.ndarray) or isinstance(shape, np.ndarray)
            or isinstance(scale, np.ndarray)):
        t_b, a_b, s_b = np.broadcast_arrays(
            np.asarray(t, dtype=np.float64),
            np.asarray(shape, dtype=np.float64),
            np.asarray(scale, dtype=np.float64))
        if not (np.all(np.isfinite(t_b)) and np.all(np.isfinite(a_b))
                and np.all(np.isfinite(s_b))):
            raise DomainError("t, shape, scale must all be finite")
        if np.any(t_b < 0.0):
            raise DomainError("t must be >= 0")
        if np.any(a_b <= 0.0) or np.any(s_b <= 0.0):
            raise DomainError("shape and scale must be > 0")
        x = np.ascontiguousarray(t_b.ravel() / s_b.ravel())
        a = np.ascontiguousarray(a_b.ravel().astype(np.float64))
        return kernels.reg_lower_gamma_arr(a, x).reshape(t_b.shape)
    shape = check_positive("shape", shape)
    scale = check_positive("scale", scale)
    t = check_real("t", t)
    if t < 0.0:
        raise DomainError(f"t must be >= 0, got {t!r}")
    return kernels.reg_lower_gamma(shape, t / scale)


def gamma_quantile(p: float, shape: float, scale: float) -> float:
    """Time t with gamma_cdf(t, shape, scale) = p, to ~1e-12 relative.

    Raises:
        ConvergenceError: the inversion found no upper bracket or did not
            converge within its step caps, or a CDF evaluation did not.
    """
    p = check_real("p", p)
    shape = check_positive("shape", shape)
    scale = check_positive("scale", scale)
    if not 0.0 < p < 1.0:
        raise DomainError(f"p must lie in (0, 1), got {p!r}")
    return kernels.gamma_quantile_unit(p, shape) * scale


def sample_gamma(shape: float, scale: float, rng: np.random.Generator, size=None):
    """Draw from Gamma(shape, scale) using the caller's generator."""
    shape = check_positive("shape", shape)
    scale = check_positive("scale", scale)
    return rng.gamma(shape, scale, size=size)


@dataclass(frozen=True)
class GammaLaw:
    """A Gamma distribution in shape/scale form.

    Attributes:
        shape: Shape parameter, > 0. Dimensionless.
        scale: Scale parameter, > 0. Carries the units (seconds here).
    """

    shape: float
    scale: float

    def __post_init__(self):
        check_positive("shape", self.shape)
        check_positive("scale", self.scale)

    @property
    def mean(self) -> float:
        return self.shape * self.scale

    @property
    def variance(self) -> float:
        return self.shape * self.scale * self.scale


@dataclass(frozen=True)
class GammaFitResult:
    """Outcome of a maximum-likelihood Gamma fit."""

    shape: float
    scale: float

    @property
    def law(self) -> GammaLaw:
        return GammaLaw(self.shape, self.scale)


def fit_gamma_mle(samples) -> GammaFitResult:
    """Fit Gamma(shape, scale) to positive samples by maximum likelihood.

    Solves ln(shape) - digamma(shape) = ln(mean) - mean(ln x) by Newton
    iteration (tolerance 1e-12 on the residual, at most 100 steps), then sets
    scale = mean/shape so the fitted mean matches the sample mean exactly.
    The solve converged, within 4 iterations, on 20000 log-spaced gaps from
    1e-22 to 3e3, wider than finite positive float64 samples give.

    Raises:
        DomainError: fewer than two samples, or any sample <= 0.
        EstimationError: the sample is (near-)degenerate, so no finite
            shape maximizes the likelihood.
        ConvergenceError: the Newton solve did not converge.
    """
    x = np.asarray(samples, dtype=np.float64)
    if x.ndim != 1:
        x = x.ravel()
    if x.size < 2:
        raise DomainError(f"need at least 2 samples, got {x.size}")
    # min and max carry a NaN through, so the two ends check every sample
    lo, hi = float(x.min()), float(x.max())
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise DomainError("samples must be finite")
    if lo <= 0.0:
        raise DomainError("samples must be strictly positive")
    mean = float(x.mean())
    spread = hi - lo
    if spread <= 1e-9 * mean:
        raise EstimationError(
            "sample is degenerate (zero or near-zero spread), shape diverges")
    s = math.log(mean) - float(np.mean(np.log(x)))
    if s <= 0.0:
        # log-moment gap can round to <= 0 when the spread is tiny
        raise EstimationError(
            "log-moment gap is nonpositive; sample too concentrated to fit")
    shape, _, converged = kernels.solve_gamma_shape(s)
    if not converged:
        raise ConvergenceError(
            "Gamma MLE shape solve did not converge within 100 Newton steps")
    return GammaFitResult(shape=shape, scale=mean / shape)


@dataclass(frozen=True)
class Polynomial:
    """Power-basis polynomial c_0 + c_1 x + ... + c_L x^L."""

    coefficients: tuple

    def __post_init__(self):
        coeffs = tuple(check_real("coefficient", c) for c in self.coefficients)
        if len(coeffs) == 0:
            raise DomainError("polynomial needs at least one coefficient")
        object.__setattr__(self, "coefficients", coeffs)

    def __call__(self, x):
        if isinstance(x, np.ndarray):
            acc = np.zeros_like(np.asarray(x, dtype=np.float64))
            for c in reversed(self.coefficients):
                acc = acc * x + c
            return acc
        acc = 0.0
        for c in reversed(self.coefficients):
            acc = acc * float(x) + c
        return acc


def polyfit(xs, ys, degree: int) -> Polynomial:
    """Least-squares polynomial fit in the power basis.

    Abscissae are rescaled to [-1, 1] internally for conditioning and the
    coefficients mapped back before returning. The coefficients equal
    ``np.polynomial.Polynomial.fit(xs, ys, degree).convert()`` bit for bit.

    Raises:
        DomainError: length mismatch, too few points, bad degree.
        EstimationError: rank-deficient design (e.g. all xs identical).
    """
    xs = np.asarray(xs, dtype=np.float64)
    ys = np.asarray(ys, dtype=np.float64)
    degree = check_count("degree", degree, least=0)
    if xs.shape != ys.shape or xs.ndim != 1:
        raise DomainError("xs and ys must be 1-d arrays of equal length")
    if xs.size < degree + 1:
        raise DomainError(
            f"need at least degree+1={degree + 1} points, got {xs.size}")
    lo, hi = float(xs.min()), float(xs.max())
    if not (math.isfinite(lo) and math.isfinite(hi)
            and np.all(np.isfinite(ys))):
        raise DomainError("xs and ys must be finite")
    if degree > 0 and lo == hi:
        raise EstimationError("all abscissae identical: design matrix is singular")
    # Polynomial.fit(xs, ys, degree).convert(), one operation at a time.
    # The window variable off + scl * x maps [lo, hi] onto [-1, 1].
    if lo == hi:  # degree 0 on one abscissa
        lo, hi = lo - 1.0, hi + 1.0
    off = (-hi - lo) / (hi - lo)
    scl = 2.0 / (hi - lo)
    # Vandermonde rows by power, each column of the design scaled to unit
    # norm; every power reaches |1| at a window end, so no norm is 0
    m = degree + 1
    xw = off + scl * xs
    powers = np.empty((m, xs.size))
    powers[0] = 1.0
    for i in range(1, m):
        powers[i] = powers[i - 1] * xw
    norms = np.sqrt(np.square(powers).sum(1))
    try:
        window_coef, _, rank, _ = np.linalg.lstsq(
            powers.T / norms, ys, xs.size * np.finfo(np.float64).eps)
    except np.linalg.LinAlgError as exc:
        raise EstimationError(f"polynomial fit failed: {exc}") from exc
    if rank != m:
        raise EstimationError(
            f"polynomial fit failed: design matrix has rank {rank} < {m}")
    # Horner in the window variable: coef <- c_k + coef * (off + scl x)
    window_coef = (window_coef / norms).tolist()
    coef = [window_coef[-1]]
    for c in window_coef[-2::-1]:
        coef = ([coef[0] * off + c]
                + [coef[j] * off + coef[j - 1] * scl for j in range(1, len(coef))]
                + [coef[-1] * scl])
    return Polynomial(coefficients=tuple(coef))


def ks_statistic(samples, law: GammaLaw) -> float:
    """Kolmogorov-Smirnov sup distance between the sample ECDF and ``law``."""
    x = np.asarray(samples, dtype=np.float64).ravel()
    if x.size < 1:
        raise DomainError("need at least one sample")
    if not np.all(np.isfinite(x)):
        raise DomainError("samples must be finite")
    if np.any(x <= 0.0):
        raise DomainError("samples must be strictly positive")
    x = np.sort(x)
    n = x.size
    cdf = gamma_cdf(x, law.shape, law.scale)
    steps_hi = np.arange(1, n + 1, dtype=np.float64) / n
    steps_lo = np.arange(0, n, dtype=np.float64) / n
    d_plus = float(np.max(steps_hi - cdf))
    d_minus = float(np.max(cdf - steps_lo))
    return max(d_plus, d_minus, 0.0)
