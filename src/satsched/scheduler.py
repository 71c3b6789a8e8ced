"""Frequency planning under a probabilistic processing deadline.

Given the end-to-end budget minus the realized communication legs, pick the
lowest GPU clock whose batch execution time meets the deadline with
probability at least rho_th. Two planners share one solver skeleton:

* the Gamma planner evaluates the exact batch Gamma CDF of a fitted or
  ground-truth frequency model;
* the Cantelli planner only trusts the first two moments and applies the
  one-sided Chebyshev (Cantelli) tail bound, which over-provisions.

Both scan a frequency grid for the lowest feasible cell, then close in on
the feasibility boundary inside that cell with a safeguarded Illinois
search (modified regula falsi; Dowell & Jarratt 1971): it interpolates the
score linearly between the ends of a bracket, halves the value of an end
that two probes in a row left in place, and bisects instead when the
bracket falls too far behind what bisection would have reached. The
returned clock is feasible by its float score and lies within 1e-9 of the
span above an infeasible one. Neither planner assumes the constraint is
monotone in f, since polynomial shape/scale fits need not be. The scan
evaluates the whole grid as one array and each search probe is a single
float. The array CDF runs the scalar kernel lane by lane, so the scan and
the probes score a clock alike.

The scan needs only one flag per grid point (score >= rho_th), so the score
callbacks return flags for an array, without masked copies when every grid
point has valid parameters. The Gamma planner's scan screens first, in one
pass: a cheap tangent bracket of the CDF settles most points, chord bounds
that reuse the tangent's terms settle most of the rest, and only the points
still in doubt get the exact CDF. Every reported score comes from a float
evaluation, the same exact path the search probes take. The grid is built
once per frequency range (:func:`planner_grid`) and shared, so a model can
keep its values on it.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import kernels
from .compute import Platform, batch_law, energy
from .errors import (DomainError, InfeasibleBudgetError,
                     InfeasibleConstraintError, check_count, check_real)
from .numerics import GammaLaw, gamma_cdf

GRID_POINTS_DEFAULT = 2048
# the boundary search stops when its bracket shrinks below this fraction of
# the span; well under the 1e-4-span tightness that callers verify
_BRACKET_REL_TOL = 1e-9
# a closed-form bracket settles a pre-scan lane only when it clears rho_th by
# this much, far above the rounding of the bracket and of the exact CDF
_SCREEN_MARGIN = 1e-9


@functools.lru_cache(maxsize=64)
def planner_grid(f_min_hz: float, f_max_hz: float) -> np.ndarray:
    """The pre-scan grid of GRID_POINTS_DEFAULT clocks over [f_min, f_max].

    Built once per range and read-only: every plan on a platform scans the
    same array, and a model that caches values on it (the ground truth's
    pooled shapes and scales) recognises it by identity.
    """
    grid = np.linspace(f_min_hz, f_max_hz, GRID_POINTS_DEFAULT)
    grid.flags.writeable = False
    return grid


@dataclass(frozen=True)
class LatencyBudget:
    """End-to-end deadline split into communication legs and compute slack.

    All legs are realized (deterministic) values, stored as floats; the
    remaining processing budget is what the planner may spend on GPU
    execution.
    """

    t_e2e_s: float
    t_ul_s: float
    t_isl_s: float
    t_dl_s: float

    def __post_init__(self):
        for field in ("t_e2e_s", "t_ul_s", "t_isl_s", "t_dl_s"):
            v = getattr(self, field)
            f = check_real(field, v)
            if f < 0.0:
                raise DomainError(f"{field} must be >= 0, got {v!r}")
            if f is not v:
                object.__setattr__(self, field, f)

    @property
    def t_proc_s(self) -> float:
        return self.t_e2e_s - self.t_ul_s - self.t_isl_s - self.t_dl_s


def processing_budget(t_e2e_s: float, t_ul_s: float, t_isl_s: float,
                      t_dl_s: float) -> LatencyBudget:
    """Assemble the budget, rejecting it when nothing is left for compute."""
    budget = LatencyBudget(t_e2e_s, t_ul_s, t_isl_s, t_dl_s)
    if budget.t_proc_s <= 0.0:
        raise InfeasibleBudgetError(
            f"communication legs consume the whole deadline: "
            f"t_proc = {budget.t_proc_s:.6g} s <= 0")
    return budget


@dataclass(frozen=True)
class MomentModel:
    """First two moments of per-image execution time versus frequency.

    ``mean_fn(f)`` and ``variance_fn(f)`` return per-image values in seconds
    and seconds squared, and must accept a scalar or a 1-d frequency array
    (a fitted Polynomial qualifies).
    """

    mean_fn: object
    variance_fn: object

    @classmethod
    def from_shape_scale_model(cls, model) -> "MomentModel":
        """Adopt the moments implied by a shape/scale frequency model."""
        def mean_fn(f_hz: float) -> float:
            return model.shape_at(f_hz) * model.scale_at(f_hz)

        def variance_fn(f_hz: float) -> float:
            scale = model.scale_at(f_hz)
            return model.shape_at(f_hz) * scale * scale

        return cls(mean_fn=mean_fn, variance_fn=variance_fn)

    def mean_at(self, f_hz: float) -> float:
        return float(self.mean_fn(f_hz))

    def variance_at(self, f_hz: float) -> float:
        return float(self.variance_fn(f_hz))


@dataclass(frozen=True)
class FrequencySolution:
    """Outcome of a feasibility-boundary search over frequency.

    ``frequency_hz`` is feasible by a float evaluation of the planner's
    score (where that evaluation and the grid pre-scan round apart, the
    pre-scan's verdict stands), ``predicted_reliability`` is that score,
    and a clock at most 1e-9 of the platform span lower was found
    infeasible, by a float probe or by the pre-scan; an answer of f_min
    has nothing below it.
    ``non_monotone`` is set when the grid pre-scan saw an infeasible point
    above the lowest feasible one; the lowest feasible frequency is still
    returned in that case.
    """

    frequency_hz: float
    predicted_reliability: float
    non_monotone: bool


def _check_common(n_img, rho_th, budget):
    n_img = check_count("n_img", n_img)
    rho_th = check_real("rho_th", rho_th)
    if not 0.0 < rho_th < 1.0:
        raise DomainError(f"rho_th must lie in (0, 1), got {rho_th!r}")
    if budget.t_proc_s <= 0.0:
        raise InfeasibleBudgetError(
            f"t_proc = {budget.t_proc_s:.6g} s <= 0, nothing left for compute")
    return n_img, rho_th


def _boundary_search(achieved, rho_th: float, f_min_hz: float,
                     f_max_hz: float, what: str) -> FrequencySolution:
    """Lowest f in [f_min, f_max] with achieved(f) >= rho_th.

    ``achieved`` maps a float to the reliability-like score of that point,
    and a 1-d frequency array to the flags score >= rho_th. One vectorized
    pre-scan over a GRID_POINTS_DEFAULT-point grid locates the lowest
    feasible cell [grid[first-1], grid[first]]. Float probes then pin the
    boundary inside it with a safeguarded Illinois search:

    * both cell ends get a float score, and each probe interpolates
      score - rho_th linearly between the bracket ends, clamped at least
      tol/2 inside the bracket so that it always shrinks;
    * when the same end moves twice in a row, the other end's value is
      halved (the Illinois step), so the next probe lands past the root;
    * a probe bisects instead when a cell end's float score disagrees with
      its grid flag, or when the bracket is wider than plain bisection
      would leave with n fewer probes, n being the probes bisection needs
      to close the cell. So the search never takes more than 2n probes,
      plus the two end scores.

    It stops when the bracket is at most tol = 1e-9 of the span wide: the
    returned frequency is feasible by a float score and some grid point or
    probe at most tol below it is infeasible. The one exception: array and
    scalar shape solves may differ in the last bit, and the grid's verdict
    stands, so grid[first] may come back with a float score a rounding
    error below rho_th. Feasibility is never assumed monotone in f. Every
    score returned or raised comes from a float call.
    """
    if not f_min_hz < f_max_hz:
        raise DomainError(f"need f_min < f_max, got [{f_min_hz!r}, {f_max_hz!r}]")
    grid = planner_grid(f_min_hz, f_max_hz)
    flags = achieved(grid)
    feasible_idx = np.flatnonzero(flags)
    if feasible_idx.size == 0:
        raise InfeasibleConstraintError(
            f"{what}: constraint unsatisfied even at f_max = {f_max_hz:.6g} Hz",
            achievable_reliability=float(achieved(f_max_hz)))
    first = int(feasible_idx[0])
    non_monotone = not bool(flags[first:].all())
    if first == 0:
        return FrequencySolution(
            frequency_hz=float(f_min_hz),
            predicted_reliability=float(achieved(f_min_hz)),
            non_monotone=non_monotone)
    lo = float(grid[first - 1])  # infeasible on the grid
    hi = float(grid[first])      # feasible on the grid
    g_lo = achieved(lo) - rho_th
    hi_score = achieved(hi)
    g_hi = hi_score - rho_th
    tol = _BRACKET_REL_TOL * (f_max_hz - f_min_hz)
    cell = hi - lo
    # plain bisection would need this many probes to close the cell
    n_halvings = math.ceil(math.log2(cell / tol))
    moved = 0  # end replaced by the last probe: -1 lo, +1 hi
    probes = 0
    while hi - lo > tol:
        probes += 1
        # interpolate while the end scores straddle rho_th (the grid's
        # verdict on a cell end outranks a float score that disagrees) and
        # the bracket is no wider than bisection would leave after
        # n_halvings fewer probes; otherwise bisect
        if (g_lo < 0.0 <= g_hi
                and hi - lo <= cell * 0.5 ** max(0, probes - n_halvings)):
            f = hi - g_hi * (hi - lo) / (g_hi - g_lo)
            f = min(max(f, lo + 0.5 * tol), hi - 0.5 * tol)
        else:
            f = 0.5 * (lo + hi)
        score = achieved(f)
        if score >= rho_th:
            hi, hi_score, g_hi = f, score, score - rho_th
            if moved == 1:
                g_lo *= 0.5  # Illinois: halve the stale end's value
            moved = 1
        else:
            lo, g_lo = f, score - rho_th
            if moved == -1:
                g_hi *= 0.5
            moved = -1
    return FrequencySolution(frequency_hz=hi,
                             predicted_reliability=float(hi_score),
                             non_monotone=non_monotone)


def _settled(lo, hi, rho_th: float):
    # lanes a bracket proves feasible, and lanes it leaves in doubt
    feasible = lo >= rho_th + _SCREEN_MARGIN
    return feasible, ~feasible & (hi >= rho_th - _SCREEN_MARGIN)


def _screened_flags(t_proc: float, shape, scale, rho_th: float):
    """Flags CDF(t_proc) >= rho_th per lane, exact CDF only where in doubt.

    Closed-form brackets of each lane's CDF settle most lanes: one whose
    lower bound is at least rho_th + _SCREEN_MARGIN is feasible, one whose
    upper bound is below rho_th - margin is not. One pass goes over every
    lane: the tangent bracket
    (:func:`~satsched.kernels.reg_lower_gamma_tangent`), whose density
    factor the chord stage
    (:func:`~satsched.kernels.reg_lower_gamma_chords`) reuses on the lanes
    it leaves in doubt. The chord stage skips the lower chord wherever it
    cannot reach rho_th + margin, and brackets shapes below 1 by the shifted
    full bracket. The exact CDF runs on the lanes still in doubt. The chord
    bounds are those of :func:`~satsched.kernels.reg_lower_gamma_bounds`,
    which lies inside the tangent bracket, so the flags equal the exact
    ones on every lane, and the exact lanes are those the full bracket
    alone would leave.
    """
    x = t_proc / scale
    lo, hi, log_g = kernels.reg_lower_gamma_tangent(shape, x)
    flags, doubt = _settled(lo, hi, rho_th)
    rest = np.flatnonzero(doubt)
    if rest.size:
        feasible, doubt = _settled(
            *kernels.reg_lower_gamma_chords(shape[rest], x[rest], log_g[rest],
                                            rho_th + _SCREEN_MARGIN),
            rho_th)
        flags[rest] = feasible
        rest = rest[doubt]
    if rest.size:
        # shapes and scales are finite and positive, and t_proc > 0: the
        # checks of gamma_cdf hold, and x is its t / scale
        flags[rest] = kernels.reg_lower_gamma_arr(shape[rest],
                                                  x[rest]) >= rho_th
    return flags


def solve_optimal_frequency(model, budget: LatencyBudget, n_img: int,
                            rho_th: float, platform: Platform) -> FrequencySolution:
    """Lowest clock whose batch Gamma law meets the deadline quantile.

    ``model`` provides shape_at(f) and scale_at(f) per image, accepting a
    scalar or a 1-d array of frequencies; the batch of n_img images has
    shape n_img * shape_at(f) at the same scale. Feasibility at f means
    CDF(t_proc) >= rho_th under that batch law. Frequencies where the model
    evaluates to nonpositive parameters count as infeasible rather than
    erroring, so damaged fits degrade gracefully.

    The grid pre-scan flags points with :func:`_screened_flags`, which runs
    the exact CDF only where the tangent and chord brackets leave the flag
    in doubt; the flags, and so the answer, are those of the exact CDF on
    every point.

    Raises:
        InfeasibleConstraintError: even f_max misses the quantile; the error
            carries the reliability achievable at f_max.
    """
    n_img, rho_th = _check_common(n_img, rho_th, budget)
    t_proc = budget.t_proc_s

    def achieved(f_hz):
        if not isinstance(f_hz, np.ndarray):
            shape = float(model.shape_at(f_hz))
            scale = float(model.scale_at(f_hz))
            if not (math.isfinite(shape) and math.isfinite(scale)
                    and shape > 0.0 and scale > 0.0):
                return 0.0
            # gamma_cdf's checks hold: these and _check_common's t_proc > 0
            return kernels.reg_lower_gamma(n_img * shape, t_proc / scale)
        shape = np.asarray(model.shape_at(f_hz), dtype=np.float64)
        scale = np.asarray(model.scale_at(f_hz), dtype=np.float64)
        ok = (np.isfinite(shape) & np.isfinite(scale)
              & (shape > 0.0) & (scale > 0.0))
        if ok.all():  # always so for the ground truth: no masked copies
            return _screened_flags(t_proc, n_img * shape, scale, rho_th)
        out = np.zeros(f_hz.shape[0], dtype=bool)
        if ok.any():
            out[ok] = _screened_flags(t_proc, n_img * shape[ok], scale[ok],
                                      rho_th)
        return out

    return _boundary_search(achieved, rho_th, platform.f_min_hz,
                            platform.f_max_hz, "gamma quantile constraint")


def solve_cantelli_frequency(moments: MomentModel, budget: LatencyBudget,
                             n_img: int, rho_th: float,
                             platform: Platform) -> FrequencySolution:
    """Lowest clock certified by the one-sided Chebyshev (Cantelli) bound.

    With batch mean m = n_img * mean(f) and batch variance v = n_img * var(f),
    the miss probability is at most v / (v + (t_proc - m)^2) whenever
    t_proc > m. Feasibility requires that bound <= 1 - rho_th. The bound is
    solved directly on the frequency axis; no closed form is assumed because
    the variance depends on f on both sides of the inequality.
    """
    n_img, rho_th = _check_common(n_img, rho_th, budget)
    t_proc = budget.t_proc_s

    def achieved(f_hz):
        if not isinstance(f_hz, np.ndarray):
            m = n_img * float(moments.mean_fn(f_hz))
            v = n_img * float(moments.variance_fn(f_hz))
            slack = t_proc - m
            if not (math.isfinite(m) and math.isfinite(v) and slack > 0.0
                    and v >= 0.0):
                return 0.0
            if v == 0.0:
                return 1.0  # variance-free mean-crossing limit
            return 1.0 - v / (v + slack * slack)
        m = n_img * np.asarray(moments.mean_fn(f_hz), dtype=np.float64)
        v = n_img * np.asarray(moments.variance_fn(f_hz), dtype=np.float64)
        slack = t_proc - m
        if np.all(np.isfinite(m) & np.isfinite(v) & (v > 0.0)):
            # always so for the ground truth: no masked copies; a lane with
            # slack <= 0 gets slack 0 and so scores 0
            slack = np.maximum(slack, 0.0)
            return 1.0 - v / (v + slack * slack) >= rho_th
        ok = np.isfinite(m) & np.isfinite(v) & (slack > 0.0) & (v >= 0.0)
        out = np.zeros(f_hz.shape[0], dtype=np.float64)
        pos = ok & (v > 0.0)
        out[pos] = 1.0 - v[pos] / (v[pos] + slack[pos] * slack[pos])
        out[ok & (v == 0.0)] = 1.0  # variance-free mean-crossing limit
        return out >= rho_th

    return _boundary_search(achieved, rho_th, platform.f_min_hz,
                            platform.f_max_hz, "cantelli moment bound")


@dataclass(frozen=True)
class PricedSelection:
    """A planner's choice priced under the ground truth."""

    method: str
    frequency_hz: float
    energy_j: float
    reliability: float
    non_monotone: bool


def select_and_price(method: str, ground_truth, budget: LatencyBudget,
                     n_img: int, rho_th: float, platform: Platform,
                     model=None, moments: MomentModel = None) -> PricedSelection:
    """Run one planner and price its choice under the ground truth.

    ``method`` is "gamma" (exact quantile under ``model``, defaulting to the
    ground truth itself) or "cantelli" (moment bound under ``moments``,
    defaulting to the ground truth's moments). Energy and reliability are
    always evaluated under ``ground_truth``, regardless of what the planner
    believed.
    """
    if method == "gamma":
        sol = solve_optimal_frequency(model if model is not None else ground_truth,
                                      budget, n_img, rho_th, platform)
    elif method == "cantelli":
        if moments is None:
            moments = MomentModel.from_shape_scale_model(ground_truth)
        sol = solve_cantelli_frequency(moments, budget, n_img, rho_th,
                                       platform)
    else:
        raise DomainError(f"unknown method {method!r}; use 'gamma' or 'cantelli'")
    f_hz = sol.frequency_hz
    per_image = GammaLaw(ground_truth.shape_at(f_hz), ground_truth.scale_at(f_hz))
    law = batch_law(per_image, n_img)
    return PricedSelection(
        method=method,
        frequency_hz=f_hz,
        energy_j=energy(f_hz, platform, law),
        reliability=float(gamma_cdf(budget.t_proc_s, law.shape, law.scale)),
        non_monotone=sol.non_monotone)
