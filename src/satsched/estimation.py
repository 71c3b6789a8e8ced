"""Learning the execution-time distribution from measurements.

Three layers:

1. Moment estimators for the mean-time model (inefficiency factor and sync
   overhead) via closed-form least squares on the 1/f regressor.
2. Per-frequency Gamma MLE fits stitched into a FrequencyModel by polynomial
   regression of shape and scale against frequency. A subset replicate's
   draws come as one (clocks x n_s) matrix, and ``fit_frequency_model``
   fits every clock from it in one pass: a Gamma MLE needs only each
   row's mean and mean log, so
   :func:`~satsched.numerics.fit_gamma_mle_rows` takes the min, max, mean
   and mean-log reductions over the whole matrix, row by row, and then
   walks the clocks in ascending order with the per-clock checks and the
   scalar shape solve, so the first clock that fails raises as a per-clock
   loop would. A measured log, whose clocks need not hold equally many
   samples, goes through the same function one clock at a time. The two
   polynomials share one design: :func:`~satsched.numerics.polyfit` keeps
   the Vandermonde design, its column norms and the window map per (fit
   grid, degree), read-only, and solves one ``lstsq`` per polynomial, so
   each stays bit for bit ``Polynomial.fit(...).convert()``. R-squared of
   both comes from one pass over the two rows.
3. A subset-sampling study: repeatedly fit models from small random subsets
   of the image set, plan a frequency with each, and score the true deadline
   miss probability of that plan under the ground truth.

A "ground truth" here is any object exposing law_at(f) for the pooled
per-image law at one clock and sample_image_times(image_ids, f, rng) for
per-image draws, where f is a clock or a 1-d array of clocks (one row of
draws per clock); the harness module provides the synthetic one.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .compute import Platform, batch_law
from .errors import (DomainError, EstimationError, InfeasibleConstraintError,
                     check_count, check_positive)
from .numerics import Polynomial, fit_gamma_mle_rows, gamma_cdf, polyfit
from .rand import NS_SUBSET_STUDY, stream
from .scheduler import (GridValues, LatencyBudget, MomentModel, planner_grid,
                        solve_optimal_frequency)


@dataclass(frozen=True)
class ExecSample:
    """One timed execution of one image at one clock."""

    frequency_hz: float
    time_s: float
    image_id: int

    def __post_init__(self):
        check_positive("frequency_hz", self.frequency_hz)
        check_positive("time_s", self.time_s)


def estimate_bsp_moments(samples, platform: Platform):
    """Least-squares estimates of (mu_c, mu_sync_s) from timed runs.

    The mean-time model is linear in g(f) = W / (n_cores * n_flops * f):
    T = mu_c * g(f) + mu_sync. The returned pair is the exact closed-form
    OLS solution on that regressor, so the slope estimate is mu_c itself.

    Raises:
        EstimationError: all samples share one frequency (rank-deficient).
    """
    samples = list(samples)
    if len(samples) < 2:
        raise DomainError(f"need at least 2 samples, got {len(samples)}")
    freqs = np.array([s.frequency_hz for s in samples], dtype=np.float64)
    times = np.array([s.time_s for s in samples], dtype=np.float64)
    if np.unique(freqs).size < 2:
        raise EstimationError(
            "all samples share one frequency; the slope is unidentifiable")
    g = platform.work_flops / (platform.n_cores * platform.n_flops * freqs)
    g_bar = g.mean()
    t_bar = times.mean()
    dg = g - g_bar
    slope = float(np.dot(dg, times - t_bar) / np.dot(dg, dg))
    intercept = float(t_bar - slope * g_bar)
    return slope, intercept


def _r_squared(xs: np.ndarray, ys: np.ndarray, polys) -> list:
    """R-squared of each polynomial of ``polys`` against its row of ``ys``
    at ``xs``, the sums of every row taken in one pass."""
    fitted = np.stack([p(xs) for p in polys])
    ss_res = np.square(ys - fitted).sum(axis=1).tolist()
    # the mean as ndarray.mean forms it: the row sum over the count
    mean = ys.sum(axis=1, keepdims=True) / ys.shape[1]
    ss_tot = np.square(ys - mean).sum(axis=1).tolist()
    return [(1.0 if res <= 1e-24 else 0.0) if tot == 0.0 else 1.0 - res / tot
            for res, tot in zip(ss_res, ss_tot)]


def _positive_at_extrema(poly: Polynomial, lo: float, hi: float) -> bool:
    """Whether ``poly`` is positive and finite at the real part of every
    root of its derivative inside (lo, hi): with the domain ends, the
    points where its least value on the domain lies.

    Real parts, not real roots alone, so that a double root which rounding
    splits into a complex pair is still checked. The quadratic derivative
    of a cubic has a closed form; higher degrees take ``numpy.roots``.
    """
    d = [k * c for k, c in enumerate(poly.coefficients[1:], 1)]
    while d and d[-1] == 0.0:
        d.pop()
    if not all(map(math.isfinite, d)):  # overflowed: nothing certified
        return False
    if len(d) <= 1:  # constant or zero derivative: no interior extremum
        return True
    if len(d) == 2:
        roots = [-d[0] / d[1]]
    elif len(d) == 3:
        c, b, a = d
        disc = b * b - 4.0 * a * c
        if disc < 0.0:
            roots = [-0.5 * b / a]
        else:  # the stable form: no cancellation between b and the root
            q = -0.5 * (b + math.copysign(math.sqrt(disc), b))
            roots = [q / a, c / q] if q != 0.0 else [0.0]
    else:
        roots = np.roots(d[::-1]).real.tolist()
    return all(math.isfinite(r)
               and (not lo < r < hi or 0.0 < poly(r) < math.inf)
               for r in roots)


@dataclass(frozen=True)
class FrequencyModel:
    """Gamma shape/scale as polynomial functions of clock frequency.

    Built from per-frequency MLE fits regressed against frequency. Both
    polynomials must be positive and finite across the fitted domain. This
    is checked exactly at construction, not on a sample: at the domain
    ends, at every interior extremum (a real root of the derivative), and
    on the planner's pre-scan grid over the domain,
    :func:`~satsched.scheduler.planner_grid`, where the values are kept in
    ``grid_values``, a :class:`~satsched.scheduler.GridValues` for the
    fitted domain. So a dip narrower than one grid cell (span/255) is
    rejected too. The domain is the range the model vouches for: the
    planners search it clipped to the platform's range, and read the kept
    values whenever the platform's range covers it, as every fit the
    package makes over [f_min, f_max] does. ``shape_at``, ``scale_at`` and
    ``shape_scale_at`` evaluate the polynomials.
    """

    shape_poly: Polynomial
    scale_poly: Polynomial
    per_frequency_fits: dict
    degree: int
    r2_shape: float
    r2_scale: float
    domain_lo_hz: float
    domain_hi_hz: float
    grid_values: GridValues = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not self.domain_lo_hz < self.domain_hi_hz:
            raise DomainError("frequency domain must have positive width")
        grid = planner_grid(self.domain_lo_hz, self.domain_hi_hz)
        shapes = self.shape_poly(grid)
        scales = self.scale_poly(grid)
        # min and max carry a NaN through, so the four reductions check
        # every grid value, the domain ends among them; the interior
        # extrema lie off the grid
        if not (shapes.min() > 0.0 and scales.min() > 0.0
                and shapes.max() < np.inf and scales.max() < np.inf
                and _positive_at_extrema(self.shape_poly, self.domain_lo_hz,
                                         self.domain_hi_hz)
                and _positive_at_extrema(self.scale_poly, self.domain_lo_hz,
                                         self.domain_hi_hz)):
            raise EstimationError(
                "fitted shape/scale are nonpositive or not finite somewhere "
                "inside the frequency domain; the model is unusable")
        object.__setattr__(self, "grid_values", GridValues(
            self.domain_lo_hz, self.domain_hi_hz, shapes, scales))

    def shape_at(self, f_hz):
        """Fitted shape at f; accepts a scalar or a 1-d frequency array."""
        return self.shape_poly(f_hz)

    def scale_at(self, f_hz):
        return self.scale_poly(f_hz)

    def shape_scale_at(self, f_hz) -> tuple:
        """(fitted shape, fitted scale) at one clock."""
        return self.shape_poly(f_hz), self.scale_poly(f_hz)


def fit_frequency_model(samples_by_freq, degree: int = 3,
                        frequencies=None) -> FrequencyModel:
    """Fit per-frequency Gamma laws and regress them against frequency.

    ``samples_by_freq`` maps clock frequency to an array of positive
    execution times (pooled across images), or, with ``frequencies`` given
    (strictly increasing), is a 2-d array whose row k holds the times at
    ``frequencies[k]``. Needs at least degree+1 distinct frequencies with
    at least 2 samples each.

    Every clock's MLE comes from
    :func:`~satsched.numerics.fit_gamma_mle_rows`: a 2-d array in one pass,
    a mapping one clock at a time, since a measured log's clocks need not
    hold equally many samples. Either way the clocks are walked in
    ascending order and the first that cannot be fitted raises.
    """
    degree = check_count("degree", degree, least=0)
    if frequencies is None:
        freqs = sorted(float(f) for f in samples_by_freq)
        # (clocks, the 2-d array of their rows), one clock each
        groups = [([f], np.reshape(np.asarray(samples_by_freq[f],
                                              dtype=np.float64), (1, -1)))
                  for f in freqs]
    else:
        xs = np.asarray(frequencies, dtype=np.float64)
        times = np.asarray(samples_by_freq, dtype=np.float64)
        if xs.ndim != 1 or times.ndim != 2 or times.shape[0] != xs.size:
            raise DomainError(
                "samples_by_freq must be a 2-d array with one row per frequency")
        if not np.all(xs[1:] > xs[:-1]):
            raise DomainError("frequencies must be strictly increasing")
        freqs = xs.tolist()
        groups = [(freqs, times)]
    if len(freqs) < degree + 1:
        raise DomainError(
            f"need at least degree+1={degree + 1} distinct frequencies, got {len(freqs)}")
    fits = {}
    for clocks, block in groups:
        n = block.shape[1]
        mles = fit_gamma_mle_rows(block)
        for f in clocks:
            if n < 2:
                raise DomainError(f"need >= 2 samples at {f:.6g} Hz, got {n}")
            try:
                fits[f] = next(mles).law
            except (DomainError, EstimationError) as exc:
                raise EstimationError(f"MLE failed at {f:.6g} Hz: {exc}") from exc
    xs = np.array(freqs)
    ys = np.array([[law.shape for law in fits.values()],
                   [law.scale for law in fits.values()]])
    try:
        shape_poly = polyfit(xs, ys[0], degree)
        scale_poly = polyfit(xs, ys[1], degree)
    except EstimationError as exc:
        raise EstimationError(f"frequency regression failed: {exc}") from exc
    r2_shape, r2_scale = _r_squared(xs, ys, (shape_poly, scale_poly))
    return FrequencyModel(
        shape_poly=shape_poly, scale_poly=scale_poly,
        per_frequency_fits=fits, degree=degree,
        r2_shape=r2_shape, r2_scale=r2_scale,
        domain_lo_hz=float(xs[0]), domain_hi_hz=float(xs[-1]))


def fit_moment_model(samples_by_freq, platform: Platform,
                     degree: int = 3) -> MomentModel:
    """Moment counterpart of fit_frequency_model for the Cantelli planner.

    Mean comes from the least-squares mean-time model; per-frequency sample
    variances are regressed with the same polynomial degree. The moments
    have no shape/scale ``source``.
    """
    freqs = sorted(float(f) for f in samples_by_freq)
    samples = [ExecSample(frequency_hz=f, time_s=float(t), image_id=-1)
               for f in freqs for t in np.asarray(samples_by_freq[f]).ravel()]
    mu_c, mu_sync = estimate_bsp_moments(samples, platform)
    coeff = mu_c * platform.work_flops / (platform.n_cores * platform.n_flops)
    variances = np.array([np.asarray(samples_by_freq[f], dtype=np.float64).var(ddof=1)
                          for f in freqs])
    var_poly = polyfit(np.array(freqs), variances, degree)

    def moments_fn(f_hz):
        return coeff / f_hz + mu_sync, var_poly(f_hz)

    return MomentModel(moments_fn)


def draw_subset(dataset, n_s: int, rng: np.random.Generator) -> np.ndarray:
    """n_s image ids drawn uniformly with replacement (n_s may exceed |dataset|)."""
    items = np.asarray(list(dataset))
    if items.size == 0:
        raise DomainError("dataset is empty")
    idx = rng.integers(0, len(items), size=check_count("n_s", n_s))
    return items[idx]


def miss_probability(f_hat_hz: float, ground_truth, t_proc_s: float,
                     n_img: int) -> float:
    """True deadline-miss probability of operating at f_hat.

    Evaluated under the ground-truth pooled law, never under whatever model
    chose f_hat: 1 - CDF(t_proc) of the batch Gamma at f_hat, the batch law
    that ``select_and_price`` prices a choice with.
    """
    f_hat_hz = check_positive("f_hat_hz", f_hat_hz)
    t_proc_s = check_positive("t_proc_s", t_proc_s)
    law = batch_law(ground_truth.law_at(f_hat_hz), n_img)
    return 1.0 - gamma_cdf(t_proc_s, law.shape, law.scale)


@dataclass(frozen=True)
class SubsetReplicate:
    """One subset draw: the model it produced and how its plan fared."""

    f_hat_hz: float
    p_miss: float
    infeasible: bool
    model: FrequencyModel = None


@dataclass(frozen=True)
class SubsetStudyResult:
    """Miss-probability statistics across K replicates at one sample size."""

    sample_size: int
    replicates: tuple

    @property
    def p_miss_values(self) -> np.ndarray:
        return np.array([r.p_miss for r in self.replicates], dtype=np.float64)

    @property
    def mean_p_miss(self) -> float:
        return float(self.p_miss_values.mean())

    @property
    def p5_p_miss(self) -> float:
        return float(np.percentile(self.p_miss_values, 5.0))

    @property
    def p95_p_miss(self) -> float:
        return float(np.percentile(self.p_miss_values, 95.0))

    @property
    def min_p_miss(self) -> float:
        return float(self.p_miss_values.min())

    @property
    def max_p_miss(self) -> float:
        return float(self.p_miss_values.max())

    @property
    def n_infeasible(self) -> int:
        return sum(1 for r in self.replicates if r.infeasible)


def run_subset_replicate(ground_truth, dataset, n_s: int, fit_frequencies,
                         budget: LatencyBudget, n_img: int, rho_th: float,
                         platform: Platform, rng: np.random.Generator,
                         degree: int = 3, keep_model: bool = False) -> SubsetReplicate:
    """Draw one subset, fit, plan, and score against the ground truth.

    Each subset image is "executed" once per fit frequency (frequencies in
    ascending order so the stream layout is stable). A subset whose model
    cannot be built or cannot satisfy the constraint falls back to f_max,
    flagged infeasible, and is still scored.
    """
    ids = draw_subset(dataset, n_s, rng)
    freqs = np.array(sorted(float(f) for f in fit_frequencies))
    times = ground_truth.sample_image_times(ids, freqs, rng)
    infeasible = False
    model = None
    try:
        model = fit_frequency_model(times, degree=degree, frequencies=freqs)
        f_hat = solve_optimal_frequency(model, budget, n_img, rho_th,
                                        platform).frequency_hz
    except (EstimationError, InfeasibleConstraintError):
        f_hat = platform.f_max_hz
        infeasible = True
    p_miss = miss_probability(f_hat, ground_truth, budget.t_proc_s, n_img)
    return SubsetReplicate(f_hat_hz=f_hat, p_miss=float(p_miss),
                           infeasible=infeasible,
                           model=model if keep_model else None)


def sample_size_study(ground_truth, dataset, ns_grid, k_replicates: int,
                      budget: LatencyBudget, n_img: int, rho_th: float,
                      platform: Platform, fit_frequencies, root_seed: int,
                      bit_generator: str = "philox", degree: int = 3,
                      platform_index: int = 0) -> list:
    """Subset-size sweep: how fast do small-sample plans become safe?

    For every sample size in ``ns_grid`` and every replicate k, an
    independent stream in the subset-study namespace with key
    (platform_index, n_s, k) drives the subset draw and the simulated
    executions. Keying by the size value itself (not its grid position)
    makes every (n_s, k) cell reproducible in any execution order and
    independent of which other sizes were requested alongside it.
    """
    k_replicates = check_count("k_replicates", k_replicates)
    results = []
    for n_s in ns_grid:
        n_s = check_count("n_s", n_s)
        reps = []
        for k in range(k_replicates):
            rng = stream(root_seed, bit_generator,
                         NS_SUBSET_STUDY, platform_index, n_s, k)
            reps.append(run_subset_replicate(
                ground_truth, dataset, n_s, fit_frequencies, budget,
                n_img, rho_th, platform, rng, degree=degree))
        results.append(SubsetStudyResult(sample_size=n_s,
                                         replicates=tuple(reps)))
    return results
