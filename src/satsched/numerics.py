"""Special functions, Gamma-law utilities, and fitting routines.

This module is domain-free: it knows nothing about links, GPUs, or deadlines.
Everything downstream (channel, compute, estimation, scheduler) builds on the
functions here. Heavy inner loops are delegated to :mod:`satsched.kernels`,
which does no argument checking: the public functions here check scalars
with the helpers of :mod:`satsched.errors` and arrays with numpy, and raise
DomainError, before they call a kernel.
"""

import functools
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
    """Fit Gamma(shape, scale) to positive samples by maximum likelihood:
    the one-row case of :func:`fit_gamma_mle_rows`, on the samples raveled.

    Raises:
        DomainError: fewer than two samples, or any sample <= 0.
        EstimationError: the sample is (near-)degenerate, so no finite
            shape maximizes the likelihood.
        ConvergenceError: the Newton solve did not converge.
    """
    return next(fit_gamma_mle_rows(
        np.reshape(np.asarray(samples, dtype=np.float64), (1, -1))))


def fit_gamma_mle_rows(samples):
    """Fit Gamma(shape, scale) by maximum likelihood to each row of a 2-d
    sample array; a generator of one GammaFitResult per row, in row order.

    A Gamma MLE needs only the sample's mean and mean log (Minka 2002,
    "Estimating a Gamma distribution"), so the min, max, mean and mean-log
    reductions run once over the whole array, row by row, the same bits as
    on each row alone. Each row in turn is then checked and its shape
    solved: ln(shape) - digamma(shape) = ln(mean) - mean(ln x) by Newton
    iteration (tolerance 1e-12 on the residual, at most 100 steps), and
    scale = mean/shape, so the fitted mean matches the sample mean exactly.
    The solve converged, within 4 iterations, on 20000 log-spaced gaps from
    1e-22 to 3e3, wider than finite positive float64 samples give. A row
    that cannot be fitted raises when its turn comes, after the rows before
    it were yielded, so a caller walking the rows knows which one failed.

    Raises:
        DomainError: not a 2-d array, rows of fewer than two samples, or a
            sample <= 0 or not finite.
        EstimationError: the row is (near-)degenerate, so no finite shape
            maximizes the likelihood.
        ConvergenceError: the Newton solve did not converge.
    """
    x = np.ascontiguousarray(samples, dtype=np.float64)
    if x.ndim != 2:
        raise DomainError("samples must be a 2-d array, one row per fit")
    if x.shape[1] < 2:
        raise DomainError(f"need at least 2 samples, got {x.shape[1]}")
    # a row's bad samples may warn in the reductions: its own checks below
    # raise for them, on its turn. min and max carry a NaN through, so the
    # two ends check every sample of a row
    with np.errstate(all="ignore"):
        rows = zip(x.min(axis=1).tolist(), x.max(axis=1).tolist(),
                   x.mean(axis=1).tolist(), np.log(x).mean(axis=1).tolist())
    for lo, hi, mean, mean_log in rows:
        if not (math.isfinite(lo) and math.isfinite(hi)):
            raise DomainError("samples must be finite")
        if lo <= 0.0:
            raise DomainError("samples must be strictly positive")
        if hi - lo <= 1e-9 * mean:
            raise EstimationError(
                "sample is degenerate (zero or near-zero spread), shape diverges")
        s = math.log(mean) - mean_log
        if s <= 0.0:
            # log-moment gap can round to <= 0 when the spread is tiny
            raise EstimationError(
                "log-moment gap is nonpositive; sample too concentrated to fit")
        shape, _, converged = kernels.solve_gamma_shape(s)
        if not converged:
            raise ConvergenceError(
                "Gamma MLE shape solve did not converge within 100 Newton steps")
        yield GammaFitResult(shape=shape, scale=mean / shape)


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


@functools.lru_cache(maxsize=16)
def _polyfit_design(xs_bytes: bytes, degree: int) -> tuple:
    """(design, norms, off, scl, rcond) of :func:`polyfit` on the float64
    abscissae ``xs_bytes`` at ``degree``: built once per (abscissae,
    degree), so the fits of one fit grid share it, and read-only.

    The window variable off + scl * x maps [min, max] onto [-1, 1], as
    ``np.polynomial.Polynomial.fit`` does. The design's columns are its
    powers, each scaled to unit norm; every power reaches |1| at a window
    end, so no norm is 0.
    """
    xs = np.frombuffer(xs_bytes, dtype=np.float64)
    lo, hi = float(xs.min()), float(xs.max())
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise DomainError("xs and ys must be finite")
    if degree > 0 and lo == hi:
        raise EstimationError("all abscissae identical: design matrix is singular")
    if lo == hi:  # degree 0 on one abscissa
        lo, hi = lo - 1.0, hi + 1.0
    off = (-hi - lo) / (hi - lo)
    scl = 2.0 / (hi - lo)
    m = degree + 1
    xw = off + scl * xs
    powers = np.empty((m, xs.size))
    powers[0] = 1.0
    for i in range(1, m):
        powers[i] = powers[i - 1] * xw
    norms = np.sqrt(np.square(powers).sum(1))
    design = powers.T / norms
    design.flags.writeable = False
    norms.flags.writeable = False
    return design, norms, off, scl, xs.size * np.finfo(np.float64).eps


def polyfit(xs, ys, degree: int) -> Polynomial:
    """Least-squares polynomial fit in the power basis.

    Abscissae are rescaled to [-1, 1] internally for conditioning and the
    coefficients mapped back before returning. The coefficients equal
    ``np.polynomial.Polynomial.fit(xs, ys, degree).convert()`` bit for bit.
    The design depends only on the abscissae and the degree, so it is kept
    per pair (:func:`_polyfit_design`), and a fit solves one ``lstsq``
    with it.

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
    if not np.all(np.isfinite(ys)):
        raise DomainError("xs and ys must be finite")
    # Polynomial.fit(xs, ys, degree).convert(), one operation at a time
    design, norms, off, scl, rcond = _polyfit_design(xs.tobytes(), degree)
    try:
        window_coef, _, rank, _ = np.linalg.lstsq(design, ys, rcond)
    except np.linalg.LinAlgError as exc:
        raise EstimationError(f"polynomial fit failed: {exc}") from exc
    if rank != degree + 1:
        raise EstimationError(
            f"polynomial fit failed: design matrix has rank {rank} < {degree + 1}")
    # Horner in the window variable: coef <- c_k + coef * (off + scl x)
    window_coef = (window_coef / norms).tolist()
    coef = [window_coef[-1]]
    for c in window_coef[-2::-1]:
        coef = ([coef[0] * off + c]
                + [coef[j] * off + coef[j - 1] * scl for j in range(1, len(coef))]
                + [coef[-1] * scl])
    return Polynomial(coefficients=tuple(coef))


# ks_statistic's sweep: the first exact lanes' spacing, the block length
# evaluated whole, and the margin that covers the kernel's last-bit
# non-monotonicity
_KS_STRIDE = 64
_KS_LEAF = 8
_KS_MARGIN = 1e-12


def ks_statistic(samples, law: GammaLaw) -> float:
    """Kolmogorov-Smirnov sup distance between the sample ECDF and ``law``.

    The sup over sorted samples x_1 <= ... <= x_n of i/n - F(x_i) and
    F(x_i) - (i-1)/n, by a monotone bound sweep: F is evaluated exactly on
    every 64th sample and the last. F is nondecreasing, so on a block
    [j, k] between two evaluated samples every distance is at most
    k/n - F(x_j) or F(x_k) - (j-1)/n. A block whose bound reaches the best
    distance found, less a margin above the kernel's rounding, is split at
    its midpoint, down to blocks of 8 evaluated whole; the others hold no
    lane that could be the sup. So the sup is taken over exactly evaluated
    lanes that include every maximizer, and equals the full evaluation's
    bit for bit, from about 2% of its CDF lanes on 1e5 samples from
    ``law``.
    """
    x = np.asarray(samples, dtype=np.float64).ravel()
    if x.size < 1:
        raise DomainError("need at least one sample")
    if not np.all(np.isfinite(x)):
        raise DomainError("samples must be finite")
    if np.any(x <= 0.0):
        raise DomainError("samples must be strictly positive")
    # gamma_cdf's lanes: P(shape, t / scale) at every sorted sample t
    u = np.sort(x) / law.scale
    n = u.size
    steps_hi = np.arange(1, n + 1, dtype=np.float64) / n
    steps_lo = np.arange(0, n, dtype=np.float64) / n
    cdf = np.empty(n)
    best = 0.0

    def evaluate(lanes):
        nonlocal best
        cdf[lanes] = kernels.reg_lower_gamma_arr(
            np.full(lanes.size, law.shape), u[lanes])
        best = max(best, float(np.max(steps_hi[lanes] - cdf[lanes])),
                   float(np.max(cdf[lanes] - steps_lo[lanes])))

    ends = np.unique(np.append(np.arange(0, n, _KS_STRIDE), n - 1))
    evaluate(ends)
    lo, hi = ends[:-1], ends[1:]
    while lo.size:
        # on the lanes lo < i < hi, steps_hi[i] - cdf[i] and
        # cdf[i] - steps_lo[i] are at most these, the steps' division and
        # the subtraction rounding monotonically
        bound = np.maximum(steps_hi[hi - 1] - cdf[lo], cdf[hi] - steps_lo[lo + 1])
        keep = (hi - lo > 1) & (bound >= best - _KS_MARGIN)
        lo, hi = lo[keep], hi[keep]
        leaf = hi - lo <= _KS_LEAF
        # a leaf's interior lanes, all of them, and the other blocks' mids
        inner = hi[leaf] - lo[leaf] - 1
        starts = np.repeat(lo[leaf] + 1 - np.cumsum(inner) + inner, inner)
        mid = (lo[~leaf] + hi[~leaf]) // 2
        new = np.concatenate([starts + np.arange(inner.sum()), mid])
        if new.size:
            evaluate(new)
        lo, hi = np.concatenate([lo[~leaf], mid]), np.concatenate([mid, hi[~leaf]])
    return best
