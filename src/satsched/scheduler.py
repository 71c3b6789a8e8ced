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

The scan needs only one flag per grid point (score >= rho_th), so each
planner hands the search two callbacks: a float score for the probes and a
flags function for the grid, which makes no masked copies when every grid
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
shared, so a model does its frequency-only work once. The ground truth and
a fitted :class:`~satsched.estimation.FrequencyModel` each keep a
:class:`GridValues` (their ``grid_values``): the range it was built for,
read-only shapes and scales on that range's grid, checked positive and
finite at construction, and the means and variances they imply. A planner
reads them when that range equals its platform's, a float comparison, and
otherwise asks the model's ``shape_at`` and ``scale_at`` for the grid. The
Gamma pre-scan skips its validity mask on kept values; the Cantelli
moments of a shape/scale model (:meth:`MomentModel.from_shape_scale_model`)
carry its ``grid_values``, so their pre-scan forms no product on the grid
and skips its validity checks. A Gamma plan on the ground truth it is
priced under reports its own score at the chosen clock as the reliability.

Each search probe of either planner takes shape and scale from one
``shape_scale_at`` call. The ground truth answers it from a cubic Hermite
interpolant on its kept grid shapes, equal to them at every grid clock, so
no plan solves the pooled-shape equation, and a probe at a grid clock
scores exactly as the pre-scan did there.

On board the model stays fixed while the elevation, and so t_proc, drifts
between requests. A model's :class:`GridValues` therefore also keep bounds
for the Gamma pre-scan: per (n_img, rho_th), for each
grid point, a t_proc at or below which it is proven infeasible and one at
or above which it is proven feasible, both taken from earlier screens of
that point that cleared rho_th with margin. The Gamma pre-scan screens only
the points between their two bounds, at most a few of them alone through
the exact kernel, and usually none once a key has seen a few dozen plans.
Its flags are the full screen's on every point, so every plan is the same
bit for bit. A key starts keeping bounds only once a plan's t_proc falls
strictly inside the range its earlier plans covered: a one-off plan or a
monotone sweep (fig5 runs each key from 90 degrees down) pays one lookup
and a two-float record on top of the full screen, and a key that keeps
bounds holds 2 x 256 float64. The Cantelli pre-scan keeps none: its screen
is a dozen array passes, about what the bookkeeping costs on the plans that
still screen.
"""

import collections
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
# (n_img, rho_th) keys a model keeps gamma pre-scan records for, the least
# recently planned dropped first; a key that keeps bounds holds two
# GRID_POINTS_DEFAULT float64 arrays (4 KiB)
_BOUND_KEYS = 64


@functools.lru_cache(maxsize=64)
def planner_grid(f_min_hz: float, f_max_hz: float) -> np.ndarray:
    """The pre-scan grid of GRID_POINTS_DEFAULT clocks over [f_min, f_max].

    Built once per range and read-only: every plan on a platform scans the
    same array, and a model that keeps values on it holds them in a
    :class:`GridValues` for that range.
    """
    grid = np.linspace(f_min_hz, f_max_hz, GRID_POINTS_DEFAULT)
    grid.flags.writeable = False
    return grid


class GridValues:
    """A shape/scale model's checked values on the planner grid of one
    frequency range, and the gamma pre-scan's per-lane bounds on them.

    ``f_min_hz`` and ``f_max_hz`` are the range the values were built for;
    ``shapes`` and ``scales`` the model's values on
    ``planner_grid(f_min_hz, f_max_hz)``, which the model's constructor
    checked positive and finite; ``means`` (shape * scale) and
    ``variances`` (mean * scale) the moments there, in the operation order
    of :meth:`MomentModel.from_shape_scale_model`. All four are read-only.
    A planner uses them only when the range equals its platform's, so the
    grid it scans is the one they were built on.

    :meth:`gamma_flags` keeps, per (n_img, rho_th) key, two arrays over the
    grid, t_lo and t_hi: lane i is infeasible at every t_proc < t_lo[i] and
    feasible at every t_proc >= t_hi[i], so it screens only the lanes with
    t_lo <= t_proc < t_hi and reads the others' flags off one comparison.
    A screen that finds a lane infeasible at t_proc sets its t_lo to the
    float just above t_proc, so a plan at that same t_proc again screens
    nothing there either.

    Bounds only tighten, and only from lanes a screen settled with margin:
    those :func:`~satsched.kernels.reg_lower_gamma_at_least` marks settled,
    whose true P(a, x) clears rho_th by more than the exact kernel's
    rounding. For a lane the batch shape a = n_img * shape is fixed and
    x = t_proc / scale rises with t_proc (float division by a positive
    number is monotone), so a flag set at t_proc holds at every larger
    t_proc and a clear one at every smaller. That is all the bounds assume,
    and the screen assumes it already.

    A key starts keeping bounds only when a plan's t_proc falls strictly
    inside the range of the t_proc its earlier plans had; until then it
    holds that range alone, so a one-off plan or a monotone sweep pays one
    lookup on top of the full screen. At most ``_BOUND_KEYS`` keys are kept,
    the least recently planned dropped first.
    """

    __slots__ = ("f_min_hz", "f_max_hz", "shapes", "scales", "means",
                 "variances", "_keys")

    def __init__(self, f_min_hz: float, f_max_hz: float, shapes: np.ndarray,
                 scales: np.ndarray):
        self.f_min_hz = f_min_hz
        self.f_max_hz = f_max_hz
        means = shapes * scales
        variances = means * scales
        for arr in (shapes, scales, means, variances):
            arr.flags.writeable = False
        self.shapes, self.scales = shapes, scales
        self.means, self.variances = means, variances
        # key -> [t_min, t_max, None or the (2, lanes) array (t_lo, t_hi)]
        self._keys = collections.OrderedDict()

    def on(self, platform: Platform) -> bool:
        """Whether these values lie on the grid the platform's plans scan:
        the range they were built for equals the platform's."""
        return (self.f_min_hz == platform.f_min_hz
                and self.f_max_hz == platform.f_max_hz)

    def _screen(self, n_img, rho_th, t_proc, lanes=None):
        # (flags, settled) on the lanes at ``lanes``, every lane for None
        if lanes is None:
            return kernels.reg_lower_gamma_at_least(
                n_img * self.shapes, t_proc / self.scales, rho_th)
        return kernels.reg_lower_gamma_at_least(
            n_img * self.shapes[lanes], t_proc / self.scales[lanes], rho_th)

    def gamma_flags(self, n_img: int, rho_th: float,
                    t_proc: float) -> np.ndarray:
        """The flags P(n_img * shape, t_proc / scale) >= rho_th on every
        lane: those of the full screen, from as few screened lanes as the
        key's bounds allow. At most ``kernels.EXACT_ONLY_LANES`` doubt lanes
        are gathered and screened alone, the screen then taking the exact
        kernel on each; with more, every lane is screened, which costs about
        as much as a gathered screen would."""
        key = (n_img, rho_th)
        keys = self._keys
        # taken out and put back last, so the first key is the least
        # recently planned
        entry = keys.pop(key, None)
        if entry is None:
            entry = [t_proc, t_proc, None]
            if len(keys) >= _BOUND_KEYS:
                keys.popitem(last=False)
        keys[key] = entry
        bounds = entry[2]
        if bounds is None:
            if t_proc <= entry[0]:
                entry[0] = t_proc
                return self._screen(n_img, rho_th, t_proc)[0]
            if t_proc >= entry[1]:
                entry[1] = t_proc
                return self._screen(n_img, rho_th, t_proc)[0]
            flags, settled = self._screen(n_img, rho_th, t_proc)
            # a set flag bounds its lane from above, a clear one from below
            bounds = entry[2] = np.where(
                flags, [[-np.inf], [t_proc]],
                [[math.nextafter(t_proc, math.inf)], [np.inf]])
            if isinstance(settled, np.ndarray):
                bounds[:, ~settled] = (-np.inf,), (np.inf,)
            return flags
        # row 0: t_lo <= t_proc, lanes not proven infeasible; row 1:
        # t_hi <= t_proc, lanes proven feasible. t_lo <= t_hi, so row 1
        # implies row 0 and the doubt lanes are the rows' difference.
        known = bounds <= t_proc
        flags = known[1]
        doubt = known[0] ^ flags
        n_doubt = np.count_nonzero(doubt)
        if n_doubt == 0:
            return flags
        if n_doubt > kernels.EXACT_ONLY_LANES:
            flags, settled = self._screen(n_img, rho_th, t_proc)
            if isinstance(settled, np.ndarray):
                doubt &= settled
        else:
            lanes = np.flatnonzero(doubt)
            flags[lanes], settled = self._screen(n_img, rho_th, t_proc, lanes)
            if isinstance(settled, np.ndarray):
                doubt[lanes] = settled
        # t_lo <= t_proc < t_hi on every doubt lane, so these only tighten
        np.putmask(bounds[1], flags & doubt, t_proc)
        np.putmask(bounds[0], doubt > flags, math.nextafter(t_proc, math.inf))
        return flags


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
        # the four fields, in order; the instance is frozen, so the
        # checked floats go straight into its dict
        legs = vars(self)
        for name, v in legs.items():
            f = check_real(name, v)
            if f < 0.0:
                raise DomainError(f"{name} must be >= 0, got {v!r}")
            legs[name] = f

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
    uses it then. ``grid_values``, when given, is the :class:`GridValues`
    of the shape/scale model the moments come from: on its grid the
    Cantelli pre-scan takes its ``means`` and ``variances``, without a
    validity mask, in place of the functions' values.
    """

    mean_fn: object
    variance_fn: object
    moments_fn: object = None
    grid_values: GridValues = field(default=None, repr=False, compare=False)

    def moments_at(self, f_hz):
        """(mean, variance) per image at a clock or a 1-d clock array."""
        if self.moments_fn is not None:
            return self.moments_fn(f_hz)
        return self.mean_fn(f_hz), self.variance_fn(f_hz)

    @classmethod
    def from_shape_scale_model(cls, model) -> "MomentModel":
        """Adopt the moments implied by a shape/scale frequency model.

        The mean is shape * scale and the variance that mean times scale,
        from one ``shape_scale_at`` call at a clock and from ``shape_at``
        and ``scale_at`` on an array. The model's ``grid_values`` (None
        for a model that keeps none) come along, so a plan on their grid
        forms no product there.
        """
        def moments_fn(f_hz):
            if isinstance(f_hz, np.ndarray):
                shape, scale = model.shape_at(f_hz), model.scale_at(f_hz)
            else:
                shape, scale = model.shape_scale_at(f_hz)
            mean = shape * scale
            return mean, mean * scale

        return cls(mean_fn=lambda f_hz: moments_fn(f_hz)[0],
                   variance_fn=lambda f_hz: moments_fn(f_hz)[1],
                   moments_fn=moments_fn, grid_values=model.grid_values)


@dataclass(frozen=True)
class FrequencySolution:
    """Outcome of a feasibility-boundary search over frequency.

    ``frequency_hz`` is feasible by a float evaluation of the planner's
    score (where that evaluation and the grid pre-scan round apart, which
    only a model whose float and array values differ at a grid clock can
    cause, the pre-scan's verdict stands), ``predicted_reliability`` is
    that score, and a clock at most 1e-9 of the platform span lower was
    found infeasible, by a float probe or by the pre-scan; an answer of
    f_min has nothing below it.
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


def _boundary_search(score, flags, rho_th: float, f_min_hz: float,
                     f_max_hz: float, what: str) -> FrequencySolution:
    """Lowest f in [f_min, f_max] with score(f) >= rho_th.

    ``score`` maps a float clock to the reliability-like score there;
    ``flags`` maps the GRID_POINTS_DEFAULT-point planner grid to the bool
    flags score >= rho_th on it. That one vectorized pre-scan locates the
    lowest feasible cell [grid[first-1], grid[first]]. Float probes then
    pin the boundary inside it with a safeguarded Illinois search:

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
    probe at most tol below it is infeasible. The one exception: a model
    whose float and array values differ in the last bit at a grid clock
    (the package's models do not) can make a float score disagree with the
    grid's flag; the grid's verdict stands, so grid[first] may come back
    with a float score a rounding error below rho_th. Feasibility is never
    assumed monotone in f. Every
    score returned or raised comes from a float call.
    """
    if not f_min_hz < f_max_hz:
        raise DomainError(f"need f_min < f_max, got [{f_min_hz!r}, {f_max_hz!r}]")
    grid = planner_grid(f_min_hz, f_max_hz)
    on_grid = flags(grid)
    feasible_idx = np.flatnonzero(on_grid)
    if feasible_idx.size == 0:
        raise InfeasibleConstraintError(
            f"{what}: constraint unsatisfied even at f_max = {f_max_hz:.6g} Hz",
            achievable_reliability=float(score(f_max_hz)))
    first = int(feasible_idx[0])
    non_monotone = not bool(on_grid[first:].all())
    if first == 0:
        return FrequencySolution(
            frequency_hz=float(f_min_hz),
            predicted_reliability=float(score(f_min_hz)),
            non_monotone=non_monotone)
    lo = float(grid[first - 1])  # infeasible on the grid
    hi = float(grid[first])      # feasible on the grid
    g_lo = score(lo) - rho_th
    hi_score = score(hi)
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
        s = score(f)
        if s >= rho_th:
            hi, hi_score, g_hi = f, s, s - rho_th
            if moved == 1:
                g_lo *= 0.5  # Illinois: halve the stale end's value
            moved = 1
        else:
            lo, g_lo = f, s - rho_th
            if moved == -1:
                g_hi *= 0.5
            moved = -1
    return FrequencySolution(frequency_hz=hi,
                             predicted_reliability=float(hi_score),
                             non_monotone=non_monotone)


def solve_optimal_frequency(model, budget: LatencyBudget, n_img: int,
                            rho_th: float, platform: Platform) -> FrequencySolution:
    """Lowest clock whose batch Gamma law meets the deadline quantile.

    ``model`` is a per-image shape/scale model with four members:

    * ``shape_at(f)`` and ``scale_at(f)`` on a 1-d frequency array, which
      the grid pre-scan calls when the model keeps no values for the
      platform's range;
    * ``shape_scale_at(f)``, the pair at one clock, which every search
      probe calls;
    * ``grid_values``: a :class:`GridValues` or None.

    The batch of n_img images has shape n_img * shape at the same scale.
    Feasibility at f means CDF(t_proc) >= rho_th under that batch law.
    Frequencies where the model evaluates to nonpositive or non-finite
    parameters count as infeasible rather than erroring, so damaged fits
    degrade gracefully. When ``grid_values`` were built for the platform's
    range (the ground truth's, a
    :class:`~satsched.estimation.FrequencyModel`'s fitted over it), the
    pre-scan reads their shapes and scales, which the model checked at
    construction, without the per-lane validity mask.

    The grid pre-scan flags points with
    :func:`~satsched.kernels.reg_lower_gamma_at_least`, whose flags, and so
    the answer, are those of the exact CDF on every point; on kept values,
    through :meth:`GridValues.gamma_flags`, which screens only the points
    earlier plans at other t_proc left in doubt.

    Raises:
        InfeasibleConstraintError: even f_max misses the quantile; the error
            carries the reliability achievable at f_max.
    """
    n_img, rho_th = _check_common(n_img, rho_th, budget)
    t_proc = budget.t_proc_s
    values = model.grid_values
    kept = values is not None and values.on(platform)
    shape_scale_at = model.shape_scale_at

    def score(f_hz: float) -> float:
        shape, scale = shape_scale_at(f_hz)
        shape = float(shape)
        scale = float(scale)
        if not (math.isfinite(shape) and math.isfinite(scale)
                and shape > 0.0 and scale > 0.0):
            return 0.0
        # gamma_cdf's checks hold: these and _check_common's t_proc > 0
        return kernels.reg_lower_gamma(n_img * shape, t_proc / scale)

    def flags(grid):
        if kept:
            # checked positive and finite when the model was built: no
            # per-plan mask, and the values' bounds
            return values.gamma_flags(n_img, rho_th, t_proc)
        shape = np.asarray(model.shape_at(grid), dtype=np.float64)
        scale = np.asarray(model.scale_at(grid), dtype=np.float64)
        ok = (np.isfinite(shape) & np.isfinite(scale)
              & (shape > 0.0) & (scale > 0.0))
        if ok.all():  # no masked copies
            return kernels.reg_lower_gamma_at_least(
                n_img * shape, t_proc / scale, rho_th)[0]
        out = np.zeros(grid.shape[0], dtype=bool)
        out[ok] = kernels.reg_lower_gamma_at_least(
            n_img * shape[ok], t_proc / scale[ok], rho_th)[0]
        return out

    return _boundary_search(score, flags, rho_th, platform.f_min_hz,
                            platform.f_max_hz, "gamma quantile constraint")


def solve_cantelli_frequency(moments: MomentModel, budget: LatencyBudget,
                             n_img: int, rho_th: float,
                             platform: Platform) -> FrequencySolution:
    """Lowest clock certified by the one-sided Chebyshev (Cantelli) bound.

    With batch mean m = n_img * mean(f) and batch variance v = n_img * var(f),
    the miss probability is at most v / (v + (t_proc - m)^2) whenever
    t_proc > m. Feasibility requires that bound <= 1 - rho_th. The bound is
    solved directly on the frequency axis; no closed form is assumed because
    the variance depends on f on both sides of the inequality. The
    pre-scan takes the moments' ``grid_values`` when they were built for
    the platform's range, else :meth:`MomentModel.moments_at` on the grid.
    """
    n_img, rho_th = _check_common(n_img, rho_th, budget)
    t_proc = budget.t_proc_s
    values = moments.grid_values
    kept = values is not None and values.on(platform)

    def score(f_hz: float) -> float:
        m, v = moments.moments_at(f_hz)
        m = n_img * float(m)
        v = n_img * float(v)
        slack = t_proc - m
        if not (math.isfinite(m) and math.isfinite(v) and slack > 0.0
                and v >= 0.0):
            return 0.0
        if v == 0.0:
            return 1.0  # variance-free mean-crossing limit
        return 1.0 - v / (v + slack * slack)

    def flags(grid):
        if kept:
            m, v = values.means, values.variances
        else:
            m, v = moments.moments_at(grid)
        m = n_img * np.asarray(m, dtype=np.float64)
        v = n_img * np.asarray(v, dtype=np.float64)
        slack = t_proc - m
        # the float score's verdict on every lane: v = 0 meets the bound
        # (the mean-crossing limit) also where slack^2 underflows to 0, and
        # a NaN score (v infinite) fails
        with np.errstate(all="ignore"):
            s = 1.0 - v / (v + slack * slack)
        out = ((s >= rho_th) | (v == 0.0)) & (slack > 0.0)
        # kept moments are products of positive finite values, never NaN
        # or negative, and a mean that overflows leaves no slack
        return out if kept else out & np.isfinite(m) & (v >= 0.0)

    return _boundary_search(score, flags, rho_th, platform.f_min_hz,
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
    the model members :func:`solve_optimal_frequency` lists). A gamma plan
    made on ``ground_truth`` itself (``model`` None or that very object)
    already scored the chosen clock with the same kernel on the same batch
    shape and t_proc / scale, so that score is the reliability.
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
