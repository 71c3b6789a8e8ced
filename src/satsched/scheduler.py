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
searched span above an infeasible one. Neither planner assumes the
constraint is monotone in f, since polynomial shape/scale fits need not
be. The scan evaluates the whole grid as one array and each search probe
is a single float. The array CDF runs the scalar kernel lane by lane, so
the scan and the probes score a clock alike.

The scan needs only one flag per grid point (score >= rho_th), so each
planner hands the search two callbacks: a float score for the probes and a
flags function for the grid. The Gamma planner's flags come from
:func:`~satsched.kernels.reg_lower_gamma_at_least`, which runs the exact
CDF only where closed-form bounds leave a flag in doubt. Every reported
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
shared, so a model does its frequency-only work once. A shape/scale model
has two members: ``grid_values``, a :class:`GridValues` whose range is the
one the model vouches for (a fit's fitted range, the ground truth's own
platform's) and whose values there it checked positive and finite, and
``shape_scale_at(f)``, the pair at one clock. Each planner searches that
range clipped to the platform's (:func:`_planner_values`), so no plan
leaves the range a model was fitted on and no pre-scan needs a validity
mask. The Cantelli moments of a shape/scale model
(:meth:`MomentModel.from_shape_scale_model`) keep it as their ``source``
and read their flags off the same values' bands (below); only moments
with no source are evaluated on the platform's grid, with a validity
mask. A Gamma plan on the ground truth it is priced under reports its own
score at the chosen clock as the reliability.

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
the points between their two bounds, gathered into one screen call, and
usually none once a key has seen a few dozen plans.
Its flags are the full screen's on every point, so every plan is the same
bit for bit. A key keeps bounds from its first plan on, whose full screen
stores them, so a one-off plan pays one 2 x 256 float64 array on top of
the screen, and a plan that repeats a t_proc screens at most the points
left unsettled there. A sweep gains most when each plan's t_proc lies
between two planned before, which is why fig5 plans each key in
bisection order of t_proc. The bounds live as long as the model:
``harness.ground_truth_for`` keeps the ground truths of its last eight
distinct inputs, so repeated figure runs in one process plan on the same
ones.

The Cantelli pre-scan reads its flags off a band per key instead. On kept
values the float formula's verdict on lane i switches once, inside
T_i (1 +- delta) around the exact threshold T_i = n_img m_i +
sqrt(n_img v_i rho_th / (1 - rho_th)) (m_i, v_i the per-image moments),
with delta = 8 u (1/rho_th + 1/(1 - rho_th)) and u = 2**-53
(:class:`GridValues` derives it). A key's first plan builds the band in
four array passes, under the dozen of one pass of the formula; every plan
then compares t_proc with both ends and evaluates the formula only on
lanes inside their band (none on the default figures), so the flags, and
every plan, are the formula's bit for bit. Keys the analysis does not
cover get an unbounded band, so every lane takes the formula.
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
# (n_img, rho_th) keys a model keeps pre-scan bounds for, per planner, the
# least recently planned dropped first; a key's gamma bounds and its
# Cantelli band each hold two GRID_POINTS_DEFAULT float64 arrays (4 KiB)
_BOUND_KEYS = 64
# the Cantelli band's half-width is _BAND_C * 2**-53 * (1/rho_th +
# 1/(1 - rho_th)) relative to each lane's threshold; the rounding analysis
# in GridValues needs 3.3
_BAND_C = 8.0
# a key gets a band only for rho_th in [_BAND_RHO_MIN, 1 - _BAND_RHO_MIN]
# and n_img <= _BAND_N_MAX, and only while v * rho_th / (1 - rho_th) stays
# within 2**+-_BAND_EXP on every lane, so that nothing the formula or the
# band computes near a threshold under- or overflows
_BAND_RHO_MIN = 2.0 ** -30
_BAND_N_MAX = 2 ** 40
_BAND_EXP = 899


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


def _cantelli_verdict(m: np.ndarray, v: np.ndarray, t_proc: float,
                      rho_th: float) -> np.ndarray:
    """The float Cantelli score's verdict, score >= rho_th, on every lane of
    the batch moments ``m`` and ``v``: the one formula both the pre-scan on
    a model's own moments and the kept values' bands defer to. v = 0 meets
    the bound (the mean-crossing limit) also where slack^2 underflows to 0,
    and a NaN score (v infinite) fails. For fixed m and v >= 0 every
    operation is a rounded monotone function of t_proc, so a lane's verdict
    switches from False to True at most once as t_proc grows."""
    slack = t_proc - m
    with np.errstate(all="ignore"):
        s = 1.0 - v / (v + slack * slack)
    return ((s >= rho_th) | (v == 0.0)) & (slack > 0.0)


class GridValues:
    """A shape/scale model's checked values on the planner grid of one
    frequency range, and the pre-scans' per-lane bounds on them: the gamma
    pre-scan's from earlier screens, the Cantelli pre-scan's in closed form.

    ``f_min_hz`` and ``f_max_hz`` are the range the values were built for,
    the one the model vouches for; ``shapes`` and ``scales`` the model's
    values on ``planner_grid(f_min_hz, f_max_hz)``, which the model's
    constructor checked positive and finite; ``means`` (shape * scale) and
    ``variances`` (mean * scale) the moments there, in the operation order
    of :meth:`MomentModel.from_shape_scale_model`. All four are read-only.
    A planner scans them when its platform's range covers theirs.

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

    A key keeps bounds from its first plan, whose full screen sets them on
    every lane it settled; a later plan at a t_proc between two planned
    before leaves in doubt only the lanes whose flag flips between those
    two. At most ``_BOUND_KEYS`` keys are kept, the least recently planned
    dropped first.

    :meth:`cantelli_flags` keeps, per (n_img, rho_th) key and in a store
    of its own, a band (lo, hi) around each lane's Cantelli threshold. With
    the batch moments m = n_img * mean and v = n_img * variance that the
    formula (:func:`_cantelli_verdict`) forms, lane i is feasible in exact
    arithmetic iff t_proc >= T_i = m_i + S_i, S_i = sqrt(v_i * k) and
    k = rho_th / (1 - rho_th). The formula's verdict is monotone in t_proc
    and switches inside T_i (1 +- delta), with
    delta = c u (1/rho_th + 1/(1 - rho_th)) and u = 2**-53. So a lane is
    feasible at every t_proc >= hi_i = T_i (1 + delta) and infeasible at
    every t_proc < lo_i = T_i (1 - delta), and only lanes with
    lo <= t_proc < hi take the formula.

    The derivation of c, with every operation within u relative (the key
    conditions below keep S near each threshold between 2**-450 and
    2**450, so nothing there under- or overflows), w = 1 - rho_th:

    * the formula is True once its float 1 - v / (v + slack^2) rounds to
      rho_th or above. That holds when its quotient is at most w: with the
      square, the sum and the quotient each off by u, once
      slack >= S sqrt(1 + u (1 + w) / rho_th) / (1 - u), and with the
      slack t_proc - m off by u, once t_proc - m >= S (1 + u/rho_th +
      1.5 u);
    * it is False while 1 - quotient < rho_th (1 - u), below half the
      float gap under rho_th; alike, while t_proc - m < S (1 - u/rho_th -
      u/(2w) - 1.5 u);
    * m >= 0, so t_proc >= T (1 + e) gives t_proc - m >= S (1 + e), and
      t_proc < T (1 - e) gives t_proc - m < S (1 - e);
    * the band computes T as (mean + sqrt(variance * (k / n_img))) times
      n_img (1 +- delta): k, k / n_img, the product, the root, the sum, the
      factor and the last product, against the formula's rounded m and v,
      put it within 7.5 u of T.

    So delta >= u (1/rho_th + 1/(2w)) + 9.1 u suffices, and since
    1/rho_th + 1/w >= 4, c >= 3.3 does; the band uses c = ``_BAND_C`` = 8.
    That holds for rho_th in [2**-30, 1 - 2**-30], n_img <= 2**40 and
    2**-899 <= n_img * variance * k <= 2**899 on every lane (the kept
    variances' extremes are kept for this check); a key outside those gets
    the band (-inf, inf) on every lane, so every lane takes the formula.
    At most ``_BOUND_KEYS`` bands are kept, the least recently planned
    dropped first, apart from the gamma keys, so no Cantelli key evicts
    gamma bounds. A band costs four array passes on a key's first plan
    (the product, the root, the sum and the scaling to both rows, under
    the dozen of one pass of the formula), and a plan one comparison on
    both rows and two counts; on the default figures no lane ever falls
    inside a band.

    The bounds and bands are shared by every holder of the model, a ground
    truth that ``harness.ground_truth_for`` keeps included, and last as
    long as it; a key's arrays are stored only once complete.
    """

    __slots__ = ("f_min_hz", "f_max_hz", "shapes", "scales", "means",
                 "variances", "_variance_range", "_keys", "_bands")

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
        self._variance_range = (float(variances.min()),
                                float(variances.max()))
        # gamma pre-scan: key -> the (2, lanes) array (t_lo, t_hi)
        self._keys = collections.OrderedDict()
        # Cantelli pre-scan: key -> the (2, lanes) band (lo, hi)
        self._bands = collections.OrderedDict()

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
        key's bounds allow. A key's first plan screens every lane; a later
        one gathers the lanes its bounds leave in doubt and screens those
        alone."""
        key = (n_img, rho_th)
        keys = self._keys
        # taken out and put back last, so the first key is the least
        # recently planned
        bounds = keys.pop(key, None)
        if bounds is None:
            flags, settled = self._screen(n_img, rho_th, t_proc)
            # a set flag bounds its lane from above, a clear one from below;
            # stored only once complete, since every holder of the model
            # reads it
            bounds = np.where(flags, [[-np.inf], [t_proc]],
                              [[math.nextafter(t_proc, math.inf)], [np.inf]])
            if isinstance(settled, np.ndarray):
                bounds[:, ~settled] = (-np.inf,), (np.inf,)
            if len(keys) >= _BOUND_KEYS:
                keys.popitem(last=False)
            keys[key] = bounds
            return flags
        keys[key] = bounds
        # row 0: t_lo <= t_proc, lanes not proven infeasible; row 1:
        # t_hi <= t_proc, lanes proven feasible. t_lo <= t_hi, so row 1
        # implies row 0 and the doubt lanes are the rows' difference.
        known = bounds <= t_proc
        flags = known[1]
        doubt = known[0] ^ flags
        if np.count_nonzero(doubt) == 0:
            return flags
        lanes = np.flatnonzero(doubt)
        flags[lanes], settled = self._screen(n_img, rho_th, t_proc, lanes)
        if isinstance(settled, np.ndarray):
            doubt[lanes] = settled
        # t_lo <= t_proc < t_hi on every doubt lane, so these only tighten
        np.putmask(bounds[1], flags & doubt, t_proc)
        np.putmask(bounds[0], doubt > flags, math.nextafter(t_proc, math.inf))
        return flags

    def _cantelli_band(self, n_img, rho_th):
        # the (2, lanes) band (lo, hi) of a key; see the class docstring
        k = rho_th / (1.0 - rho_th)
        v_min, v_max = self._variance_range
        if not (_BAND_RHO_MIN <= rho_th <= 1.0 - _BAND_RHO_MIN
                and n_img <= _BAND_N_MAX
                and 2.0 ** -_BAND_EXP <= v_min * n_img * k
                and v_max * n_img * k <= 2.0 ** _BAND_EXP):
            return np.repeat([[-np.inf], [np.inf]], self.means.shape[0],
                             axis=1)
        delta = _BAND_C * 2.0 ** -53 * (1.0 / rho_th + 1.0 / (1.0 - rho_th))
        root = np.sqrt(self.variances * (k / n_img))
        return np.multiply.outer(
            (n_img * (1.0 - delta), n_img * (1.0 + delta)), self.means + root)

    def cantelli_flags(self, n_img: int, rho_th: float,
                       t_proc: float) -> np.ndarray:
        """The flags of :func:`_cantelli_verdict` on the kept moments, every
        lane: read off the key's band, built on its first plan, and taken
        from the formula only on the lanes with lo <= t_proc < hi."""
        key = (n_img, rho_th)
        bands = self._bands
        # taken out and put back last, as the gamma bounds
        band = bands.pop(key, None)
        if band is None:
            band = self._cantelli_band(n_img, rho_th)
            if len(bands) >= _BOUND_KEYS:
                bands.popitem(last=False)
        bands[key] = band
        # row 1 (hi <= t_proc) implies row 0 (lo <= t_proc), so the rows
        # count alike unless some lane lies inside its band
        known = band <= t_proc
        flags = known[1]
        if np.count_nonzero(known[0]) != np.count_nonzero(flags):
            lanes = np.flatnonzero(known[0] ^ flags)
            flags[lanes] = _cantelli_verdict(
                n_img * self.means[lanes], n_img * self.variances[lanes],
                t_proc, rho_th)
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

    ``moments_fn(f)`` returns the per-image pair (mean, variance), in
    seconds and seconds squared, at a clock. ``source`` is the shape/scale
    model the moments come from, or None. With a source, the Cantelli
    planner searches the range the source vouches for, clipped to the
    platform's, and its pre-scan reads flags off the bands of the source's
    :class:`GridValues` (:meth:`GridValues.cantelli_flags`). Without one,
    the planner searches the platform's range, and ``moments_fn`` must
    also take its grid, a 1-d clock array (a fitted Polynomial qualifies).
    """

    moments_fn: object
    source: object = field(default=None, repr=False, compare=False)

    def moments_at(self, f_hz):
        """(mean, variance) per image: the pair ``moments_fn`` returns."""
        return self.moments_fn(f_hz)

    @classmethod
    def from_shape_scale_model(cls, model) -> "MomentModel":
        """Adopt the moments implied by a shape/scale frequency model.

        The mean is shape * scale and the variance that mean times scale,
        from one ``shape_scale_at`` call at a clock. The model comes along
        as the ``source``, so a plan reads the moments its ``grid_values``
        keep and forms no product on the grid.
        """
        def moments_fn(f_hz):
            shape, scale = model.shape_scale_at(f_hz)
            mean = shape * scale
            return mean, mean * scale

        return cls(moments_fn, source=model)


@dataclass(frozen=True)
class FrequencySolution:
    """Outcome of a feasibility-boundary search over frequency.

    ``frequency_hz`` lies in the searched range, the platform's clipped to
    the range the model vouches for. It is feasible by a float evaluation
    of the planner's score (where that evaluation and the grid pre-scan
    round apart, which only a model whose grid values and float values
    differ at a grid clock can cause, the pre-scan's verdict stands),
    ``predicted_reliability`` is that score, and a clock at most 1e-9 of
    the searched span lower was found infeasible, by a float probe or by
    the pre-scan. An answer at the searched range's low end claims nothing
    about clocks below it.
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
            f"{what}: constraint unsatisfied even at the searched range's "
            f"high end, {f_max_hz:.6g} Hz",
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


def _planner_values(model, platform: Platform) -> GridValues:
    """The :class:`GridValues` a plan of ``model`` on ``platform`` scans and
    whose range it searches: the platform's range clipped to the one the
    model vouches for, that of its ``grid_values``. Those are the values
    when the clipped range is their own; otherwise one-off values on the
    clipped range's grid, from ``shape_scale_at`` at each of its clocks and
    kept nowhere. Raises DomainError when the two ranges do not overlap."""
    values = model.grid_values
    lo, hi = values.f_min_hz, values.f_max_hz
    if platform.f_min_hz <= lo and hi <= platform.f_max_hz:
        return values
    lo, hi = max(lo, platform.f_min_hz), min(hi, platform.f_max_hz)
    if not lo < hi:
        raise DomainError(
            f"the model vouches for [{values.f_min_hz:.6g}, "
            f"{values.f_max_hz:.6g}] Hz, outside the platform's "
            f"[{platform.f_min_hz:.6g}, {platform.f_max_hz:.6g}] Hz")
    pairs = [model.shape_scale_at(f) for f in planner_grid(lo, hi).tolist()]
    shapes, scales = np.array(pairs, dtype=np.float64).T.copy()
    return GridValues(lo, hi, shapes, scales)


def solve_optimal_frequency(model, budget: LatencyBudget, n_img: int,
                            rho_th: float, platform: Platform) -> FrequencySolution:
    """Lowest clock whose batch Gamma law meets the deadline quantile.

    ``model`` is a per-image shape/scale model with two members:

    * ``grid_values``, a :class:`GridValues`, whose range is the one the
      model vouches for;
    * ``shape_scale_at(f)``, the pair at one clock, which every search
      probe calls.

    The batch of n_img images has shape n_img * shape at the same scale.
    Feasibility at f means CDF(t_proc) >= rho_th under that batch law. The
    plan searches the platform's range clipped to the model's
    (:func:`_planner_values`), where the model vouches for its values.

    The grid pre-scan flags points through :meth:`GridValues.gamma_flags`,
    whose flags, and so the answer, are those of the exact CDF on every
    point: a key's first plan screens every point with
    :func:`~satsched.kernels.reg_lower_gamma_at_least` and keeps bounds
    from it, and later plans screen only the points earlier plans at other
    t_proc left in doubt.

    Raises:
        DomainError: the model's range and the platform's do not overlap.
        InfeasibleConstraintError: even the searched range's high end
            misses the quantile; the error carries the reliability
            achievable there.
    """
    n_img, rho_th = _check_common(n_img, rho_th, budget)
    t_proc = budget.t_proc_s
    values = _planner_values(model, platform)
    shape_scale_at = model.shape_scale_at

    def score(f_hz: float) -> float:
        shape, scale = shape_scale_at(f_hz)
        # gamma_cdf's checks hold: the model vouches for shape and scale
        # on the searched range, and _check_common for t_proc > 0
        return kernels.reg_lower_gamma(n_img * float(shape),
                                       t_proc / float(scale))

    return _boundary_search(
        score, lambda grid: values.gamma_flags(n_img, rho_th, t_proc),
        rho_th, values.f_min_hz, values.f_max_hz, "gamma quantile constraint")


def solve_cantelli_frequency(moments: MomentModel, budget: LatencyBudget,
                             n_img: int, rho_th: float,
                             platform: Platform) -> FrequencySolution:
    """Lowest clock certified by the one-sided Chebyshev (Cantelli) bound.

    With batch mean m = n_img * mean(f) and batch variance v = n_img * var(f),
    the miss probability is at most v / (v + (t_proc - m)^2) whenever
    t_proc > m. Feasibility requires that bound <= 1 - rho_th. The bound is
    solved directly on the frequency axis; no closed form is assumed because
    the variance depends on f on both sides of the inequality. Moments with
    a ``source`` are planned on its range clipped to the platform's, as
    :func:`solve_optimal_frequency` plans a model, and the pre-scan reads
    their flags through :meth:`GridValues.cantelli_flags`, whose per-key
    band leaves the formula only the lanes within a rounding band of their
    threshold (none, on the default figures). Moments without one are
    planned on the platform's range, their ``moments_fn`` on the grid and
    the formula on every lane, with a validity mask. Either way the flags
    are those of :func:`_cantelli_verdict`.
    """
    n_img, rho_th = _check_common(n_img, rho_th, budget)
    t_proc = budget.t_proc_s
    moments_fn = moments.moments_fn

    def score(f_hz: float) -> float:
        m, v = moments_fn(f_hz)
        m = n_img * float(m)
        v = n_img * float(v)
        slack = t_proc - m
        if not (math.isfinite(m) and math.isfinite(v) and slack > 0.0
                and v >= 0.0):
            return 0.0
        if v == 0.0:
            return 1.0  # variance-free mean-crossing limit
        return 1.0 - v / (v + slack * slack)

    if moments.source is None:
        f_min_hz, f_max_hz = platform.f_min_hz, platform.f_max_hz

        def flags(grid):
            m, v = moments_fn(grid)
            m = n_img * np.asarray(m, dtype=np.float64)
            v = n_img * np.asarray(v, dtype=np.float64)
            return (_cantelli_verdict(m, v, t_proc, rho_th) & np.isfinite(m)
                    & (v >= 0.0))
    else:
        # moments of positive finite values, never NaN or negative, and a
        # mean that overflows leaves no slack
        values = _planner_values(moments.source, platform)
        f_min_hz, f_max_hz = values.f_min_hz, values.f_max_hz

        def flags(grid):
            return values.cantelli_flags(n_img, rho_th, t_proc)

    return _boundary_search(score, flags, rho_th, f_min_hz, f_max_hz,
                            "cantelli moment bound")


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
    the two model members :func:`solve_optimal_frequency` lists). Either
    planner searches the platform's range clipped to the one its model
    vouches for, the ground truth's being its own platform's, and raises
    DomainError when they do not overlap. A gamma plan made on
    ``ground_truth`` itself (``model`` None or that very object) already
    scored the chosen clock with the same kernel on the same batch shape
    and t_proc / scale, so that score is the reliability.
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
