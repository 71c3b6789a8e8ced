"""Experiment harness: synthetic ground truth, sweeps, and CSV emission.

The ground truth stands in for a measurement campaign that is not available
at desk scale: per-image Gamma execution-time laws calibrated so the pooled
mean at every frequency equals the platform's mean-time model exactly.

Outputs are pure functions of (config, seed). CSV floats are printed with 9
significant digits, rows in a canonical sort order, newline-terminated, so
re-running a figure with the same seed yields byte-identical files.
"""

import bisect
import csv
import functools
import json
import math
import os
from dataclasses import dataclass, field

import numpy as np

from . import __version__, kernels, scheduler
from .channel import (LinkGeometry, downlink_delay, expected_uplink_delay,
                      fbl_error_probability, isl_round_trip, slant_range, snr)
from .compute import Platform, batch_law, energy
from .config import Scenario
from .errors import (DomainError, EstimationError, InfeasibleBudgetError,
                     InfeasibleConstraintError, InfeasibleLinkError,
                     check_count, check_positive, check_real)
from .estimation import fit_frequency_model, sample_size_study
from .numerics import GammaLaw, ks_statistic
from .rand import NS_GROUND_TRUTH, stream
from .scheduler import (GridValues, LatencyBudget, MomentModel, planner_grid,
                        processing_budget)

_METHODS = ("gamma", "cantelli")
# ground truths ground_truth_for keeps, the least recently asked for
# dropped first
_GROUND_TRUTHS = 8


# a field the constructor derives from the others
_derived = functools.partial(field, init=False, repr=False)


@dataclass(frozen=True, eq=False)
class GroundTruth:
    """Synthetic per-image execution-time laws plus their pooled summary.

    Each image id carries a fixed work multiplier (mean exactly 1 across the
    set), drawn once; a draw for image i at frequency f comes from
    Gamma(image_shape_at(f), image_scale_at(f) * multiplier_i).

    The pooled table (shape_at / scale_at) is the large-sample limit of a
    single Gamma MLE over samples pooled across images, so a fitted model
    converges to this table as the sample count grows. Its mean equals the
    platform mean-time model exactly at every frequency.

    Two variance models:

    * "structural": only the compute phase is random; the sync overhead is
      deterministic. The per-image coefficient of variation then shrinks
      with frequency as the compute share of the mean shrinks, pinned to
      ``cv_at_fmax`` at f_max.
    * "constant": coefficient of variation fixed at ``cv_at_fmax`` across
      the whole range (per-image shape is 1/cv^2 everywhere).

    The four init fields are the value; the constructor derives the rest,
    so ``dataclasses.replace`` stays consistent. It keeps
    ``work_multipliers`` as its own read-only float64 copy, so nothing
    derived from it goes stale. ``grid_values`` is the
    :class:`~satsched.scheduler.GridValues` on the planner's pre-scan grid
    for the platform range (``GRID_POINTS_DEFAULT`` = 256 clocks, one
    array solve at construction; cells of span/255, 2.8 MHz on nano): the
    pooled shapes and scales there, positive and finite by construction,
    the moments they imply, and the gamma pre-scan's bounds and the
    Cantelli pre-scan's bands on them. Its range is the one the ground
    truth vouches for, so no plan on the ground truth leaves it.

    At a clock in [f_min, f_max] the pooled shape comes from a cubic
    Hermite interpolant on that grid, built at construction: in each cell,
    the cubic through the two kept shapes with the analytic slopes da/df
    at its ends, from differentiating the pooled-shape equation (see
    :meth:`shape_at`), so no planner probe solves it. At a grid clock it
    returns the kept shape bit for bit. Between grid clocks, over both
    platforms and variance models, cv 0.0011-0.899 and image_sigma 0-1,
    it lies within 6e-13 relative of a scalar Newton solve (3200 seeded
    clocks). Against a 40-digit solve (64 clocks) it is within 1.2e-13
    where the Newton solve is within 1e-13, and otherwise about as far off
    as the Newton solve, whose stopping rule leaves up to 1.2e-11. The
    scale is the pooled mean over that shape, so the pooled mean stays
    exact. A clock outside [f_min, f_max], which no plan asks for, gets a
    fresh Newton solve (the array solve on one lane), kept nowhere.
    ``shape_scale_at`` returns the pair from one lookup; ``shape_at`` and
    ``scale_at`` at a clock, and ``law_at`` (the pricing lookup), take
    their values from it, and ``shape_at`` and ``scale_at`` solve an array
    of clocks afresh, a reference that no planner calls. Two ground truths
    are equal only when they are the same object, and hash by identity; a
    pickle or copy holds the four init fields and derives the rest again.
    """

    platform: Platform
    cv_at_fmax: float
    variance_model: str
    work_multipliers: np.ndarray
    log_multiplier_gap: float = _derived()
    grid_values: GridValues = _derived()
    # frequency-independent parts of mean_at and image_shape_at
    _work_s_hz: float = _derived()
    _cv2: float = _derived()
    _fmax_denominator: float = _derived()
    # the interpolant: the planner grid's clocks as floats, and four
    # coefficients per clock of the cubic from it to the next one
    _grid_clocks: list = _derived()
    _cubics: list = _derived()

    def __post_init__(self):
        cv = check_real("cv", self.cv_at_fmax)
        if not 0.0 < cv < 1.0:
            raise DomainError(f"cv must lie in (0, 1) for a peaked law, got {cv!r}")
        if self.variance_model not in ("structural", "constant"):
            raise DomainError(f"unknown variance_model {self.variance_model!r}")
        put = functools.partial(object.__setattr__, self)
        p = self.platform
        work = p.mu_c * p.work_flops / (p.n_cores * p.n_flops)
        mult = np.array(self.work_multipliers, dtype=np.float64)
        mult.flags.writeable = False
        put("cv_at_fmax", cv)
        put("work_multipliers", mult)
        put("log_multiplier_gap", max(0.0, float(-np.mean(np.log(mult)))))
        put("_work_s_hz", work)
        put("_cv2", self.cv_at_fmax * self.cv_at_fmax)
        put("_fmax_denominator", work + p.mu_sync_s * p.f_max_hz)
        grid = planner_grid(p.f_min_hz, p.f_max_hz)
        shapes = self._pooled_shape_at(grid)
        put("grid_values", GridValues(p.f_min_hz, p.f_max_hz, shapes,
                                      self.mean_at(grid) / shapes))
        put("_grid_clocks", grid.tolist())
        put("_cubics", self._hermite_cubics(grid, shapes))

    def _hermite_cubics(self, grid: np.ndarray, shapes: np.ndarray) -> list:
        # da/df by implicit differentiation of the pooled-shape equation:
        # g(a) = g(a_img) + gap with g(x) = ln x - digamma(x), so
        # da/df = g'(a_img) a_img'(f) / g'(a); a_img' = 0 for "constant",
        # and a = a_img where the gap is 0
        n = grid.size
        if self.variance_model == "constant":
            slopes = np.zeros(n)
        else:
            a_img = self.image_shape_at(grid)
            mu_sync = self.platform.mu_sync_s
            slopes = 2.0 * mu_sync * a_img / (self._work_s_hz + mu_sync * grid)
            if self.log_multiplier_gap != 0.0:
                g = kernels.shape_equation_slope_arr(np.concatenate((a_img, shapes)))
                slopes *= g[:n] / g[n:]
        # on [clock_i, clock_i+1], with x = f - clock_i, the Hermite cubic
        # a_i + x (s_i + x (b_i + x c_i)) meets the kept shapes and slopes
        # at both ends; the last clock gets a constant, so f_max also
        # lands on x = 0
        width = np.diff(grid)
        secant = np.diff(shapes) / width
        s0, s1 = slopes[:-1], slopes[1:]
        cubics = np.zeros((n, 4))
        cubics[:, 0] = shapes
        cubics[:-1, 1] = s0
        cubics[:-1, 2] = (3.0 * secant - 2.0 * s0 - s1) / width
        cubics[:-1, 3] = (s0 + s1 - 2.0 * secant) / (width * width)
        return cubics.ravel().tolist()

    def __reduce__(self):
        return type(self), (self.platform, self.cv_at_fmax,
                            self.variance_model, self.work_multipliers)

    @property
    def n_images(self) -> int:
        return int(self.work_multipliers.shape[0])

    @property
    def image_ids(self) -> list:
        return list(range(self.n_images))

    def mean_at(self, f_hz):
        """Pooled mean execution time; accepts scalar or 1-d array."""
        if not isinstance(f_hz, np.ndarray):
            f_hz = check_positive("f_hz", f_hz)
        return self._work_s_hz / f_hz + self.platform.mu_sync_s

    def image_shape_at(self, f_hz):
        """Gamma shape of a single image's law at f (same for all images)."""
        if not isinstance(f_hz, np.ndarray):
            f_hz = check_positive("f_hz", f_hz)
        if self.variance_model == "constant":
            if isinstance(f_hz, np.ndarray):
                return np.full(f_hz.shape, 1.0 / self._cv2)
            return 1.0 / self._cv2
        ratio = ((self._work_s_hz + self.platform.mu_sync_s * f_hz)
                 / self._fmax_denominator)
        return ratio * ratio / self._cv2

    def image_scale_at(self, f_hz, image_id: int = None):
        """Gamma scale at f; with ``image_id``, that image's multiplier applies."""
        base = self.mean_at(f_hz) / self.image_shape_at(f_hz)
        if image_id is None:
            return base
        image_id = check_count("image_id", image_id, least=0)
        if image_id >= self.n_images:
            raise DomainError(
                f"image_id must be < {self.n_images}, got {image_id}")
        return base * float(self.work_multipliers[image_id])

    def shape_at(self, f_hz):
        """Pooled-fit shape: the MLE limit over the image mixture.

        Solves ln(a) - digamma(a) = [ln(a_img) - digamma(a_img)] + gap,
        where the gap is -mean(ln multiplier) >= 0. Heterogeneity across
        images widens the pooled law, so the pooled shape never exceeds the
        per-image one. Called with an array, solves it afresh; called with
        a clock, the value of :meth:`shape_scale_at`.
        """
        if isinstance(f_hz, np.ndarray):
            return self._pooled_shape_at(f_hz)
        return self.shape_scale_at(f_hz)[0]

    def _pooled_shape_at(self, f_hz: np.ndarray) -> np.ndarray:
        ab = self.image_shape_at(f_hz)
        gap = self.log_multiplier_gap
        if gap == 0.0:
            return ab
        flat = np.ascontiguousarray(ab.ravel().astype(np.float64))
        s = np.log(flat) - kernels.digamma_arr(flat) + gap
        solved, conv = kernels.solve_gamma_shape_arr(np.ascontiguousarray(s))
        if not np.all(conv):
            raise EstimationError("pooled-shape solve failed to converge")
        return solved.reshape(ab.shape)

    def scale_at(self, f_hz):
        """Pooled-fit scale, fixed so the pooled mean is exact. Called with
        an array, solves the shapes afresh; called with a clock, the value
        of :meth:`shape_scale_at`."""
        if isinstance(f_hz, np.ndarray):
            return self.mean_at(f_hz) / self._pooled_shape_at(f_hz)
        return self.shape_scale_at(f_hz)[1]

    def shape_scale_at(self, f_hz) -> tuple:
        """(pooled shape, pooled scale) at one clock, as floats, from one
        lookup: the interpolated shape in [f_min, f_max], exactly the kept
        grid values at a grid clock, and a fresh solve outside it. Raises
        DomainError for anything but a finite clock > 0 (a bool too)."""
        if type(f_hz) is not float:
            f_hz = check_positive("f_hz", f_hz)
        clocks = self._grid_clocks
        # the last clock <= f_hz; a NaN sorts past every clock
        i = bisect.bisect_right(clocks, f_hz) - 1
        if i >= 0 and f_hz <= clocks[-1]:
            a, s, b, c = self._cubics[4 * i:4 * i + 4]
            x = f_hz - clocks[i]
            shape = a + x * (s + x * (b + x * c))
        else:
            f_hz = check_positive("f_hz", f_hz)
            shape = float(self._pooled_shape_at(np.array([f_hz]))[0])
        return shape, (self._work_s_hz / f_hz + self.platform.mu_sync_s) / shape

    def law_at(self, f_hz: float) -> GammaLaw:
        """Pooled per-image law at one clock: the pair of
        :meth:`shape_scale_at`."""
        return GammaLaw(*self.shape_scale_at(f_hz))

    def sample_image_times(self, image_ids, f_hz,
                           rng: np.random.Generator) -> np.ndarray:
        """One execution-time draw per listed image at frequency f.

        ``f_hz`` may also be a 1-d array of clocks: then row k holds the
        draws at ``f_hz[k]``, and the rows are drawn in turn, so they and
        the generator's state after the call equal one call per clock.
        """
        ids = np.asarray(image_ids, dtype=np.int64)
        if isinstance(f_hz, np.ndarray):
            clocks = np.asarray(f_hz, dtype=np.float64)
            if clocks.ndim != 1:
                raise DomainError("f_hz must be a clock or a 1-d array of clocks")
            if not (np.all(clocks > 0.0) and np.all(np.isfinite(clocks))):
                raise DomainError("every clock in f_hz must be finite and > 0")
        else:
            clocks = np.array([check_positive("f_hz", f_hz)])
        if np.any(ids < 0) or np.any(ids >= self.n_images):
            raise DomainError("image id out of range")
        shapes = self.image_shape_at(clocks)
        out = np.empty((clocks.size, ids.size))
        for row, shape in zip(out, shapes.tolist()):
            rng.standard_gamma(shape, size=ids.size, out=row)
        out *= np.multiply.outer(self.mean_at(clocks) / shapes,
                                 self.work_multipliers[ids])
        return out if isinstance(f_hz, np.ndarray) else out[0]


def synthesize_ground_truth(platform: Platform, cv: float, n_images: int,
                            rng: np.random.Generator,
                            image_sigma: float = 0.15,
                            variance_model: str = "structural") -> GroundTruth:
    """Build the synthetic workload for one platform.

    Work multipliers are log-normal draws normalized to mean exactly 1, so
    pooled means stay calibrated; their log-mean gap (>= 0 by Jensen) is
    what separates the pooled fit from the per-image law.
    """
    n_images = check_count("n_images", n_images)
    image_sigma = check_real("image_sigma", image_sigma)
    if image_sigma < 0.0:
        raise DomainError(f"image_sigma must be >= 0, got {image_sigma!r}")
    if image_sigma > 0.0:
        raw = np.exp(rng.normal(0.0, image_sigma, size=n_images))
        mult = raw / raw.mean()
    else:
        mult = np.ones(n_images, dtype=np.float64)
    return GroundTruth(platform=platform, cv_at_fmax=cv,
                       variance_model=variance_model, work_multipliers=mult)


def ground_truth_for(scenario: Scenario, platform_index: int) -> GroundTruth:
    """The scenario's ground truth for one platform (stream key fixed by index).

    Calls with equal inputs share one object for as long as it stays
    cached: the inputs are the values the build reads (the seed, the bit
    generator, the platform index, the platform, and the ground-truth cv,
    image count, image_sigma and variance model), and the last
    ``_GROUND_TRUTHS`` (8) distinct ones are kept, the least recently asked
    for dropped first. So every figure runner, ``satsched plan`` and any
    other caller in one process plan on the same ``grid_values`` and its
    gamma pre-scan bounds. A build that raises is not kept.
    """
    return _ground_truth(scenario.seed, scenario.bit_generator,
                         platform_index, scenario.platforms[platform_index],
                         scenario.gt_cv, scenario.gt_n_images,
                         scenario.gt_image_sigma, scenario.gt_variance_model)


# typed, so an input that raises (a bool count, say) never finds the entry
# of an equal one that built
@functools.lru_cache(maxsize=_GROUND_TRUTHS, typed=True)
def _ground_truth(seed, bit_generator, platform_index, platform, cv,
                  n_images, image_sigma, variance_model) -> GroundTruth:
    rng = stream(seed, bit_generator, NS_GROUND_TRUTH, platform_index)
    return synthesize_ground_truth(platform, cv, n_images, rng,
                                   image_sigma=image_sigma,
                                   variance_model=variance_model)


def fit_frequency_grid(platform: Platform, n_frequencies: int) -> np.ndarray:
    """Evenly spaced fit frequencies spanning the platform's range."""
    return np.linspace(platform.f_min_hz, platform.f_max_hz,
                       check_count("n_frequencies", n_frequencies, least=2))


@dataclass(frozen=True)
class CommLegs:
    """Realized communication delays for one elevation."""

    elevation_deg: float
    slant_range_m: float
    snr_linear: float
    error_probability: float
    expected_uplink_s: float  # inf when every ARQ attempt fails
    isl_round_trip_s: float
    downlink_s: float

    @property
    def total_s(self) -> float:
        return self.expected_uplink_s + self.isl_round_trip_s + self.downlink_s


def comm_legs(scenario: Scenario, elevation_deg: float) -> CommLegs:
    """Evaluate the three communication legs at one elevation.

    Shadowing is budgeted at the scenario's shadow quantile (0.5 = median
    channel). The downlink reuses the serving slant range and is treated as
    error-free; the relay path cost is elevation-independent.
    """
    elevation_deg = check_real("elevation_deg", elevation_deg)
    geom = LinkGeometry(altitude_m=scenario.altitude_m,
                        elevation_rad=math.radians(elevation_deg))
    d = slant_range(geom)
    gamma = snr(scenario.link_ul, d, scenario.shadow_margin_db)
    eps = fbl_error_probability(gamma, scenario.grid.blocklength,
                                scenario.grid.rate)
    if eps >= 1.0:
        e_ul = math.inf
    else:
        e_ul = expected_uplink_delay(scenario.grid, eps, d)
    return CommLegs(
        elevation_deg=elevation_deg, slant_range_m=d,
        snr_linear=gamma, error_probability=eps, expected_uplink_s=e_ul,
        isl_round_trip_s=isl_round_trip(scenario.isl, scenario.grid.blocklength),
        downlink_s=downlink_delay(scenario.grid, d))


def budget_from_legs(scenario: Scenario, legs: CommLegs) -> LatencyBudget:
    """Remaining processing budget after the realized legs; may raise."""
    if not math.isfinite(legs.expected_uplink_s):
        raise InfeasibleLinkError(
            f"uplink expectation diverges at {legs.elevation_deg:.3g} deg")
    return processing_budget(scenario.t_e2e_s, legs.expected_uplink_s,
                             legs.isl_round_trip_s, legs.downlink_s)


# ---------------------------------------------------------------------------
# CSV plumbing


def _fmt(value) -> str:
    # most cells are Python floats: one type test, then the general ladder
    if type(value) is float:
        return format(value, ".9g")
    if value is None:
        return ""
    if isinstance(value, str):
        return value
    if isinstance(value, (bool, np.bool_)):
        return "1" if value else "0"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return format(float(value), ".9g")


def _write_csv(path: str, header, rows) -> str:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])
    return path


def _write_meta(path: str, figure: str, scenario: Scenario) -> str:
    meta = {
        "figure": figure,
        "seed": scenario.seed,
        "bit_generator": scenario.bit_generator,
        "backend": kernels.BACKEND,
        "package_version": __version__,
        "config": scenario.raw,
    }
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(json.dumps(meta, indent=2, sort_keys=True))
        fh.write("\n")
    return path


def _ensure_dir(out_dir: str) -> str:
    os.makedirs(out_dir, exist_ok=True)
    return out_dir


# ---------------------------------------------------------------------------
# figure runners


def run_fig3(scenario: Scenario, out_dir: str) -> dict:
    """Subset-size study: miss probability of plans fitted from N_s samples.

    Writes fig3_replicates.csv (one row per (platform, N_s, k)),
    fig3_summary.csv (mean and spread per (platform, N_s)), and
    fig3_meta.json. Returns the paths and the in-memory study results.
    """
    _ensure_dir(out_dir)
    detail_rows = []
    summary_rows = []
    results = {}
    for pi, platform in enumerate(scenario.platforms):
        gt = ground_truth_for(scenario, pi)
        budget = budget_from_legs(scenario,
                                  comm_legs(scenario, scenario.elevation_deg))
        fit_freqs = fit_frequency_grid(platform, scenario.fit_n_frequencies)
        study = sample_size_study(
            gt, gt.image_ids, scenario.fig3_sample_sizes,
            scenario.fig3_k_replicates, budget,
            scenario.fig3_n_img[platform.name], scenario.rho_th, platform,
            fit_freqs, scenario.seed, scenario.bit_generator,
            degree=scenario.fit_degree, platform_index=pi)
        results[platform.name] = study
        for res in study:
            for k, rep in enumerate(res.replicates):
                detail_rows.append((pi, platform.name, res.sample_size, k,
                                    rep.f_hat_hz, rep.p_miss, rep.infeasible))
            summary_rows.append((pi, platform.name, res.sample_size,
                                 res.mean_p_miss, res.p5_p_miss,
                                 res.p95_p_miss, res.min_p_miss,
                                 res.max_p_miss))
    detail_rows.sort(key=lambda r: (r[0], r[2], r[3]))
    summary_rows.sort(key=lambda r: (r[0], r[2]))
    paths = {
        "replicates_csv": _write_csv(
            os.path.join(out_dir, "fig3_replicates.csv"),
            ["platform", "n_s", "k", "f_hat_hz", "p_miss", "infeasible_flag"],
            [r[1:] for r in detail_rows]),
        "summary_csv": _write_csv(
            os.path.join(out_dir, "fig3_summary.csv"),
            ["platform", "n_s", "mean_p_miss", "p05_p_miss", "p95_p_miss",
             "min_p_miss", "max_p_miss"],
            [r[1:] for r in summary_rows]),
        "meta": _write_meta(os.path.join(out_dir, "fig3_meta.json"),
                            "fig3", scenario),
    }
    return {"paths": paths, "results": results}


def _priced_row(scenario, gt, moments, budget, method, n_img,
                platform) -> tuple:
    """(frequency, energy, feasible) for one planner instance, as
    ``select_and_price`` plans and prices it on ``gt``; ``moments`` are the
    Cantelli moments of ``gt``. The figures write no reliability, so none
    is computed. The planners are looked up on their module, so wrappers
    installed there see these calls."""
    try:
        if method == "gamma":
            sol = scheduler.solve_optimal_frequency(
                gt, budget, n_img, scenario.rho_th, platform)
        else:
            sol = scheduler.solve_cantelli_frequency(
                moments, budget, n_img, scenario.rho_th, platform)
    except InfeasibleConstraintError:
        return None, None, False
    f_hz = sol.frequency_hz
    return f_hz, energy(f_hz, platform, batch_law(gt.law_at(f_hz), n_img)), True


def run_fig4(scenario: Scenario, out_dir: str) -> dict:
    """Batch-size sweep at the operating elevation: energy vs n_img.

    Both planners run on the same ground truth; the sweep stops once both
    are infeasible (their terminal infeasible rows are kept) or at the
    configured cap. Writes fig4.csv and fig4_meta.json.
    """
    _ensure_dir(out_dir)
    rows = []
    results = {}
    for pi, platform in enumerate(scenario.platforms):
        gt = ground_truth_for(scenario, pi)
        moments = MomentModel.from_shape_scale_model(gt)
        budget = budget_from_legs(scenario,
                                  comm_legs(scenario, scenario.elevation_deg))
        per_platform = []
        for n_img in range(1, scenario.fig4_n_img_max + 1):
            feas = {}
            for mi, method in enumerate(_METHODS):
                f_hz, e_j, ok = _priced_row(scenario, gt, moments, budget,
                                            method, n_img, platform)
                rows.append((pi, mi, n_img, platform.name, method,
                             f_hz, e_j, ok))
                per_platform.append((method, n_img, f_hz, e_j, ok))
                feas[method] = ok
            if not any(feas.values()):
                break
        results[platform.name] = per_platform
    rows.sort(key=lambda r: (r[0], r[1], r[2]))
    paths = {
        "csv": _write_csv(
            os.path.join(out_dir, "fig4.csv"),
            ["platform", "method", "n_img", "frequency_hz", "energy_j",
             "feasible"],
            [(r[3], r[4], r[2], r[5], r[6], r[7]) for r in rows]),
        "meta": _write_meta(os.path.join(out_dir, "fig4_meta.json"),
                            "fig4", scenario),
    }
    return {"paths": paths, "results": results}


def _bisection_order(n: int) -> list:
    """The indices 0..n-1 in bisection order: both ends first, then the
    midpoints of the gaps between visited indices, level by level."""
    if n <= 2:
        return list(range(n))
    order = [0, n - 1]
    gaps = [(0, n - 1)]
    while gaps:
        wider = []
        for lo, hi in gaps:
            if hi - lo > 1:
                mid = (lo + hi) // 2
                order.append(mid)
                wider += [(lo, mid), (mid, hi)]
        gaps = wider
    return order


def run_fig5(scenario: Scenario, out_dir: str) -> dict:
    """Elevation sweep: energy vs elevation for fixed batch sizes.

    Rows where the uplink expectation diverges or the budget is exhausted
    are emitted infeasible with their communication columns filled in, so
    the critical-elevation region is visible in the CSV. Each (platform,
    n_img) sweep plans its feasible elevations in bisection order of
    t_proc, so every plan after the first two has a t_proc between two
    already planned and its gamma pre-scan reads most flags off the
    bounds those left. Rows are sorted before they are written, so the
    order is not seen in the CSV. Writes fig5.csv and fig5_meta.json.
    """
    _ensure_dir(out_dir)
    # the legs and budget depend on the elevation alone
    unplanned, planned = [], []
    for elevation in scenario.elevation_sweep_deg:
        legs = comm_legs(scenario, elevation)
        # LatencyBudget.t_proc_s's order, so a feasible row shows the
        # budget its plans had; -inf where the uplink diverges
        t_proc = (scenario.t_e2e_s - legs.expected_uplink_s
                  - legs.isl_round_trip_s - legs.downlink_s)
        try:
            budget = budget_from_legs(scenario, legs)
        except (InfeasibleBudgetError, InfeasibleLinkError):
            unplanned.append((elevation, legs, t_proc))
            continue
        planned.append((elevation, legs, t_proc, budget))
    planned.sort(key=lambda point: point[2])
    planned = [planned[i] for i in _bisection_order(len(planned))]
    rows = []
    for pi, platform in enumerate(scenario.platforms):
        gt = ground_truth_for(scenario, pi)
        moments = MomentModel.from_shape_scale_model(gt)
        for n_img in scenario.fig5_n_img[platform.name]:
            for mi, method in enumerate(_METHODS):
                for elevation, legs, t_proc in unplanned:
                    rows.append((pi, mi, n_img, -elevation, platform.name,
                                 method, elevation, legs.expected_uplink_s,
                                 t_proc, None, None, False))
            for elevation, legs, t_proc, budget in planned:
                for mi, method in enumerate(_METHODS):
                    f_hz, e_j, ok = _priced_row(scenario, gt, moments, budget,
                                                method, n_img, platform)
                    rows.append((pi, mi, n_img, -elevation, platform.name,
                                 method, elevation, legs.expected_uplink_s,
                                 t_proc, f_hz, e_j, ok))
    rows.sort(key=lambda r: (r[0], r[1], r[2], r[3]))
    paths = {
        "csv": _write_csv(
            os.path.join(out_dir, "fig5.csv"),
            ["platform", "n_img", "elevation_deg", "e_t_ul_s", "t_proc_s",
             "method", "frequency_hz", "energy_j", "feasible"],
            [(r[4], r[2], r[6], r[7], r[8], r[5], r[9], r[10], r[11])
             for r in rows]),
        "meta": _write_meta(os.path.join(out_dir, "fig5_meta.json"),
                            "fig5", scenario),
    }
    return {"paths": paths}


# ---------------------------------------------------------------------------
# sample-log ingestion (CLI `fit`)


def ingest_samples_csv(path: str) -> dict:
    """Read an execution log CSV into {frequency: times array}.

    Expected header: image_id,frequency_hz,exec_time_s. Real hardware logs
    in this shape can replace the synthetic ground truth without code
    changes. Each row needs an integer image id >= 0 and a finite
    frequency and time > 0; DomainError names the first row that breaks
    this as path:line.
    """
    by_freq = {}
    try:
        fh = open(path, "r", encoding="utf-8", newline="")
    except OSError as exc:
        raise DomainError(f"cannot read sample log {path!r}: {exc}") from exc
    with fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != ["image_id", "frequency_hz", "exec_time_s"]:
            raise DomainError(
                "sample log must start with header "
                "'image_id,frequency_hz,exec_time_s', "
                f"got {','.join(header) if header else 'empty file'!r}")
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != 3:
                raise DomainError(f"{path}:{lineno}: expected 3 columns")
            try:
                check_count("image_id", int(row[0]), least=0)
                f = check_positive("frequency_hz", float(row[1]))
                t = check_positive("exec_time_s", float(row[2]))
            except ValueError as exc:  # DomainError is a ValueError too
                raise DomainError(f"{path}:{lineno}: {exc}") from exc
            by_freq.setdefault(f, []).append(t)
    if not by_freq:
        raise DomainError(f"sample log {path!r} contains no data rows")
    return {f: np.array(ts, dtype=np.float64) for f, ts in sorted(by_freq.items())}


def fit_report(samples_by_freq: dict, degree: int = 3) -> dict:
    """Fit a frequency model from pooled samples and summarize it.

    Returns a JSON-ready dict: per-frequency fitted laws with sample counts
    and KS distances, the two polynomials, and their R-squared diagnostics.
    """
    model = fit_frequency_model(samples_by_freq, degree=degree)
    per_freq = []
    for f in sorted(model.per_frequency_fits):
        law = model.per_frequency_fits[f]
        times = np.asarray(samples_by_freq[f], dtype=np.float64)
        per_freq.append({
            "frequency_hz": f,
            "n_samples": int(times.size),
            "shape": law.shape,
            "scale": law.scale,
            "ks_statistic": ks_statistic(times, law),
        })
    return {
        "degree": model.degree,
        "shape_coefficients": list(model.shape_poly.coefficients),
        "scale_coefficients": list(model.scale_poly.coefficients),
        "r2_shape": model.r2_shape,
        "r2_scale": model.r2_scale,
        "domain_hz": [model.domain_lo_hz, model.domain_hi_hz],
        "per_frequency": per_freq,
    }
