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
point has valid parameters. The Gamma planner's flags come from
:func:`~satsched.kernels.reg_lower_gamma_at_least`, which runs the exact
CDF only where closed-form brackets leave a flag in doubt. Every reported
score comes from a float evaluation, the same exact path the search probes
take.

The grid has ``GRID_POINTS_DEFAULT`` = 256 points, so a cell is span/255
wide: 2.8 MHz on nano and 3.6 MHz on agx. The grid only has to find the
feasible cell, because the search pins the boundary to 1e-9 of the span
however wide the cell is; a plan costs about seven float evaluations
(mean over the default figures' plans above f_min: 7.0 for either
planner, at most 8, the two cell-end scores included). The price is
resolution. The scan sees only its grid points, so a feasible window
narrower than one cell that lies between two of them is missed, and so
is an infeasible window above the lowest feasible point (the plan then
comes back without ``non_monotone``). With 2048 points (span/2047) that
limit was 8x finer, at 8x the screened lanes per plan; the plans of the
default figures agree between the two grids to the search tolerance.

The grid is built once per frequency range (:func:`planner_grid`) and
shared, so a model does its frequency-only work once: it keeps its values
on the grid as read-only ``planner_grid_*`` arrays, checked at
construction, and hands them back when it recognises the grid by identity.
The ground truth keeps shapes, scales, means and variances there; a fitted
:class:`~satsched.estimation.FrequencyModel` keeps shapes and scales on
the grid over its fitted range. The Gamma pre-scan skips its validity mask
on kept values; the Cantelli moments of the ground truth
(:meth:`MomentModel.from_shape_scale_model`) form no product on the grid,
and their pre-scan skips its validity checks. A Gamma plan on the ground
truth it is priced under reports its own score at the chosen clock as the
reliability.
"""

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from . import kernels
from .compute import Platform, batch_law, energy
from .errors import (DomainError, InfeasibleBudgetError,
                     InfeasibleConstraintError, check_count, check_real)
from .numerics import gamma_cdf

GRID_POINTS_DEFAULT = 256
# the boundary search stops when its bracket shrinks below this fraction of
# the span; well under the 1e-4-span tightness that callers verify
_BRACKET_REL_TOL = 1e-9


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
    (a fitted Polynomial qualifies). ``moments_fn(f)``, when given, returns
    the pair ``(mean_fn(f), variance_fn(f))`` from one visit to the
    underlying model; :meth:`moments_at`, which the Cantelli planner calls,
    uses it then. ``planner_grid_means`` and ``planner_grid_variances`` are
    set only by :meth:`from_shape_scale_model`, on a model that keeps its
    moments on the planner grid: the functions return those arrays there,
    and the Cantelli pre-scan trusts them to be finite and >= 0 without a
    mask.
    """

    mean_fn: object
    variance_fn: object
    moments_fn: object = None
    planner_grid_means: np.ndarray = field(default=None, init=False,
                                           repr=False, compare=False)
    planner_grid_variances: np.ndarray = field(default=None, init=False,
                                               repr=False, compare=False)

    def moments_at(self, f_hz):
        """(mean, variance) per image at a clock or a 1-d clock array."""
        if self.moments_fn is not None:
            return self.moments_fn(f_hz)
        return self.mean_fn(f_hz), self.variance_fn(f_hz)

    @classmethod
    def from_shape_scale_model(cls, model) -> "MomentModel":
        """Adopt the moments implied by a shape/scale frequency model.

        The mean is shape * scale and the variance that mean times scale,
        from one ``shape_at`` and one ``scale_at`` call per clock. A model
        that keeps ``planner_grid_means`` and ``planner_grid_variances``
        (the ground truth does) hands them back on the planner grid, which
        its ``_on_planner_grid`` recognises, so a plan forms no product
        there.
        """
        means = getattr(model, "planner_grid_means", None)

        def moments_fn(f_hz):
            if (means is not None and isinstance(f_hz, np.ndarray)
                    and model._on_planner_grid(f_hz)):
                return means, model.planner_grid_variances
            scale = model.scale_at(f_hz)
            mean = model.shape_at(f_hz) * scale
            return mean, mean * scale

        moments = cls(mean_fn=lambda f_hz: moments_fn(f_hz)[0],
                      variance_fn=lambda f_hz: moments_fn(f_hz)[1],
                      moments_fn=moments_fn)
        if means is not None:
            object.__setattr__(moments, "planner_grid_means", means)
            object.__setattr__(moments, "planner_grid_variances",
                               model.planner_grid_variances)
        return moments


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


def solve_optimal_frequency(model, budget: LatencyBudget, n_img: int,
                            rho_th: float, platform: Platform) -> FrequencySolution:
    """Lowest clock whose batch Gamma law meets the deadline quantile.

    ``model`` provides shape_at(f) and scale_at(f) per image, accepting a
    scalar or a 1-d array of frequencies; the batch of n_img images has
    shape n_img * shape_at(f) at the same scale. Feasibility at f means
    CDF(t_proc) >= rho_th under that batch law. Frequencies where the model
    evaluates to nonpositive or non-finite parameters count as infeasible
    rather than erroring, so damaged fits degrade gracefully. A model whose
    shape_at and scale_at return its ``planner_grid_shapes`` and
    ``planner_grid_scales`` on the grid (the ground truth, a
    :class:`~satsched.estimation.FrequencyModel` fitted over the platform
    range) checked those values at construction, so the pre-scan skips the
    per-lane validity mask there.

    The grid pre-scan flags points with
    :func:`~satsched.kernels.reg_lower_gamma_at_least`, whose flags, and so
    the answer, are those of the exact CDF on every point.

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
        shape = model.shape_at(f_hz)
        scale = model.scale_at(f_hz)
        if (shape is getattr(model, "planner_grid_shapes", None)
                and scale is getattr(model, "planner_grid_scales", None)):
            # kept on the grid and checked positive and finite when the
            # model was built: no per-plan mask
            return kernels.reg_lower_gamma_at_least(n_img * shape,
                                                    t_proc / scale, rho_th)
        shape = np.asarray(shape, dtype=np.float64)
        scale = np.asarray(scale, dtype=np.float64)
        ok = (np.isfinite(shape) & np.isfinite(scale)
              & (shape > 0.0) & (scale > 0.0))
        if ok.all():  # no masked copies
            return kernels.reg_lower_gamma_at_least(n_img * shape,
                                                    t_proc / scale, rho_th)
        out = np.zeros(f_hz.shape[0], dtype=bool)
        out[ok] = kernels.reg_lower_gamma_at_least(
            n_img * shape[ok], t_proc / scale[ok], rho_th)
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
        m, v = moments.moments_at(f_hz)
        if not isinstance(f_hz, np.ndarray):
            m = n_img * float(m)
            v = n_img * float(v)
            slack = t_proc - m
            if not (math.isfinite(m) and math.isfinite(v) and slack > 0.0
                    and v >= 0.0):
                return 0.0
            if v == 0.0:
                return 1.0  # variance-free mean-crossing limit
            return 1.0 - v / (v + slack * slack)
        # moments kept on the grid are finite and >= 0 by construction
        kept = (m is moments.planner_grid_means
                and v is moments.planner_grid_variances)
        m = n_img * np.asarray(m, dtype=np.float64)
        v = n_img * np.asarray(v, dtype=np.float64)
        slack = t_proc - m
        # the float score's verdict on every lane: v = 0 meets the bound
        # (the mean-crossing limit) also where slack^2 underflows to 0, and
        # a NaN score (v infinite) fails
        with np.errstate(all="ignore"):
            score = 1.0 - v / (v + slack * slack)
        flags = ((score >= rho_th) | (v == 0.0)) & (slack > 0.0)
        return flags if kept else flags & np.isfinite(m) & (v >= 0.0)

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
    believed: its ``law_at(f)`` gives the pooled per-image law at the chosen
    clock (a ground truth used as a default model or moments also needs
    ``shape_at`` and ``scale_at``). A gamma plan made on ``ground_truth``
    itself already scored the chosen clock with the same kernel on the same
    batch shape and t_proc / scale, so that score is the reliability.
    """
    on_truth = False
    if method == "gamma":
        on_truth = model is None or model is ground_truth
        sol = solve_optimal_frequency(ground_truth if on_truth else model,
                                      budget, n_img, rho_th, platform)
    elif method == "cantelli":
        if moments is None:
            moments = MomentModel.from_shape_scale_model(ground_truth)
        sol = solve_cantelli_frequency(moments, budget, n_img, rho_th,
                                       platform)
    else:
        raise DomainError(f"unknown method {method!r}; use 'gamma' or 'cantelli'")
    f_hz = sol.frequency_hz
    law = batch_law(ground_truth.law_at(f_hz), n_img)
    if on_truth:
        reliability = sol.predicted_reliability
    else:
        reliability = float(gamma_cdf(budget.t_proc_s, law.shape, law.scale))
    return PricedSelection(
        method=method,
        frequency_hz=f_hz,
        energy_j=energy(f_hz, platform, law),
        reliability=reliability,
        non_monotone=sol.non_monotone)
