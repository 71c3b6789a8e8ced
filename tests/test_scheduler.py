"""Frequency planning: budget decomposition, the batch-quantile solver, the
two-moment (Cantelli) benchmark, and pricing of either plan under the truth."""

import dataclasses
import math

import numpy as np
import pytest

import satsched as ss
from satsched import kernels
from satsched.errors import (DomainError, InfeasibleBudgetError,
                             InfeasibleConstraintError)

RHO = 0.95


def _batch_cdf(gt, t_proc, n_img, f_hz):
    # reliability of the true batch law at a candidate clock
    return float(ss.gamma_cdf(t_proc, n_img * gt.shape_at(f_hz),
                              gt.scale_at(f_hz)))


# ---------------------------------------------------------------- budget

def test_budget_decomposes_realized_legs():
    budget = ss.processing_budget(0.5, 0.010, 0.0963, 0.0057)
    assert budget.t_proc_s == pytest.approx(0.388, rel=1e-12)
    assert budget.t_proc_s == (budget.t_e2e_s - budget.t_ul_s
                               - budget.t_isl_s - budget.t_dl_s)


def test_budget_with_zero_legs_is_whole_deadline():
    assert ss.processing_budget(0.5, 0.0, 0.0, 0.0).t_proc_s == 0.5


def test_uplink_consuming_deadline_is_rejected():
    with pytest.raises(InfeasibleBudgetError):
        ss.processing_budget(0.5, 0.5, 0.0, 0.0)


def test_negative_leg_rejected():
    with pytest.raises(DomainError):
        ss.processing_budget(0.5, -0.01, 0.0, 0.0)


def test_solver_rejects_spent_budget(gt_nano, nano):
    # LatencyBudget itself allows t_proc <= 0; the solvers must not
    spent = ss.LatencyBudget(t_e2e_s=0.1, t_ul_s=0.1, t_isl_s=0.0, t_dl_s=0.0)
    with pytest.raises(InfeasibleBudgetError):
        ss.solve_optimal_frequency(gt_nano, spent, 1, RHO, nano)
    with pytest.raises(InfeasibleBudgetError):
        ss.solve_cantelli_frequency(
            ss.MomentModel.from_shape_scale_model(gt_nano), spent, 1, RHO, nano)


# ---------------------------------------------------------------- gamma solver

def test_vacuous_constraint_returns_f_min(gt_nano, nano, zenith_budget):
    sol = ss.solve_optimal_frequency(gt_nano, zenith_budget, 1, 1e-9, nano)
    assert sol.frequency_hz == nano.f_min_hz
    assert not sol.non_monotone


def test_solution_is_tight_at_quantile(gt_nano, nano, zenith_budget):
    """The returned clock meets the quantile and a hair less does not."""
    n_img = 4
    sol = ss.solve_optimal_frequency(gt_nano, zenith_budget, n_img, RHO, nano)
    t_proc = zenith_budget.t_proc_s
    assert _batch_cdf(gt_nano, t_proc, n_img, sol.frequency_hz) >= RHO
    delta = 1e-4 * (nano.f_max_hz - nano.f_min_hz)
    assert sol.frequency_hz - delta > nano.f_min_hz
    assert _batch_cdf(gt_nano, t_proc, n_img, sol.frequency_hz - delta) < RHO


def test_predicted_reliability_matches_cdf(gt_agx, agx, zenith_budget):
    sol = ss.solve_optimal_frequency(gt_agx, zenith_budget, 6, RHO, agx)
    direct = _batch_cdf(gt_agx, zenith_budget.t_proc_s, 6, sol.frequency_hz)
    assert sol.predicted_reliability == pytest.approx(direct, rel=1e-12)


def test_frequency_nondecreasing_in_batch_size(gt_nano, nano, zenith_budget):
    freqs = [ss.solve_optimal_frequency(gt_nano, zenith_budget, n, RHO, nano).frequency_hz
             for n in range(1, 8)]
    assert all(b >= a for a, b in zip(freqs, freqs[1:]))
    assert freqs[-1] > freqs[0]


def test_frequency_nonincreasing_in_budget(gt_nano, nano, zenith_budget):
    """A looser deadline never forces a higher clock."""
    freqs = []
    for t_e2e in (0.47, 0.5, 0.55, 0.6, 0.7):
        budget = ss.processing_budget(t_e2e, zenith_budget.t_ul_s,
                                      zenith_budget.t_isl_s,
                                      zenith_budget.t_dl_s)
        freqs.append(ss.solve_optimal_frequency(gt_nano, budget, 4, RHO,
                                                nano).frequency_hz)
    assert all(b <= a for a, b in zip(freqs, freqs[1:]))
    assert freqs[-1] < freqs[0]


def test_infeasible_reports_achievable_reliability(gt_nano, nano, zenith_budget):
    with pytest.raises(InfeasibleConstraintError) as exc_info:
        ss.solve_optimal_frequency(gt_nano, zenith_budget, 20, RHO, nano)
    achievable = exc_info.value.achievable_reliability
    assert 0.0 <= achievable < RHO
    at_fmax = _batch_cdf(gt_nano, zenith_budget.t_proc_s, 20, nano.f_max_hz)
    assert achievable == pytest.approx(at_fmax, rel=1e-9)


def test_ground_truth_plans_are_monotone(gt_nano, gt_agx, nano, agx,
                                         zenith_budget):
    for gt, platform in ((gt_nano, nano), (gt_agx, agx)):
        sol = ss.solve_optimal_frequency(gt, zenith_budget, 3, RHO, platform)
        assert not sol.non_monotone


def test_invalid_batch_and_threshold_rejected(gt_nano, nano, zenith_budget):
    with pytest.raises(DomainError):
        ss.solve_optimal_frequency(gt_nano, zenith_budget, 0, RHO, nano)
    with pytest.raises(DomainError):
        ss.solve_optimal_frequency(gt_nano, zenith_budget, 2.5, RHO, nano)
    for method in ("gamma", "cantelli"):  # bool is Integral, not a batch
        with pytest.raises(DomainError):
            ss.select_and_price(method, gt_nano, zenith_budget, True, RHO,
                                nano)
    for rho in (0.0, 1.0, -0.1):
        with pytest.raises(DomainError):
            ss.solve_optimal_frequency(gt_nano, zenith_budget, 2, rho, nano)


class _BrokenFit:
    """A fit gone wrong: nonpositive shape everywhere."""

    def shape_at(self, f_hz):
        return -1.0 * np.ones_like(np.asarray(f_hz, dtype=np.float64))

    def scale_at(self, f_hz):
        return np.ones_like(np.asarray(f_hz, dtype=np.float64))


def test_broken_model_is_infeasible_not_crash(nano, zenith_budget):
    with pytest.raises(InfeasibleConstraintError) as exc_info:
        ss.solve_optimal_frequency(_BrokenFit(), zenith_budget, 2, RHO, nano)
    assert exc_info.value.achievable_reliability == 0.0


# ---------------------------------------------------------------- cantelli

def _work_per_hz(platform):
    # seconds * Hz of per-image compute: mean(f) = A/f + mu_sync
    return platform.mu_c * platform.work_flops / (platform.n_cores
                                                  * platform.n_flops)


def test_zero_variance_reduces_to_mean_crossing(nano, zenith_budget):
    """With no dispersion the bound degenerates to the mean-deadline
    crossing, which has a closed form on the 1/f mean curve."""
    n_img = 4
    a_coef = _work_per_hz(nano)
    moments = ss.MomentModel(
        mean_fn=lambda f: a_coef / np.asarray(f, dtype=np.float64)
        + nano.mu_sync_s,
        variance_fn=lambda f: np.zeros_like(np.asarray(f, dtype=np.float64)))
    sol = ss.solve_cantelli_frequency(moments, zenith_budget, n_img, RHO, nano)
    expected = n_img * a_coef / (zenith_budget.t_proc_s
                                 - n_img * nano.mu_sync_s)
    assert nano.f_min_hz < expected < nano.f_max_hz  # interior crossing
    assert sol.frequency_hz == pytest.approx(expected, rel=1e-6)


def test_agrees_with_fixed_point_closed_form(gt_nano, nano, zenith_budget):
    """Solving the bound on the frequency axis matches the closed-form
    frequency with the dispersion term frozen at the solution (fixed point)."""
    n_img = 3
    moments = ss.MomentModel.from_shape_scale_model(gt_nano)
    sol = ss.solve_cantelli_frequency(moments, zenith_budget, n_img, RHO, nano)

    a_coef = _work_per_hz(nano)
    k = math.sqrt(RHO / (1.0 - RHO))
    t_proc = zenith_budget.t_proc_s
    f = nano.f_max_hz
    for _ in range(200):
        spread = k * math.sqrt(n_img * moments.variance_at(f))
        f_next = n_img * a_coef / (t_proc - n_img * nano.mu_sync_s - spread)
        if abs(f_next - f) <= 1e-13 * f:
            f = f_next
            break
        f = f_next
    assert sol.frequency_hz == pytest.approx(f, rel=1e-2)


def test_bound_dominates_exact_quantile(gt_nano, gt_agx, nano, agx,
                                        zenith_budget):
    """Trusting two moments can only over-provision relative to knowing the
    whole law with those moments."""
    for gt, platform, n_max in ((gt_nano, nano, 6), (gt_agx, agx, 12)):
        moments = ss.MomentModel.from_shape_scale_model(gt)
        for n_img in range(1, n_max + 1):
            f_gamma = ss.solve_optimal_frequency(
                gt, zenith_budget, n_img, RHO, platform).frequency_hz
            f_cant = ss.solve_cantelli_frequency(
                moments, zenith_budget, n_img, RHO, platform).frequency_hz
            assert f_cant >= f_gamma


def test_moment_bound_score_at_solution(gt_nano, nano, zenith_budget):
    n_img = 3
    moments = ss.MomentModel.from_shape_scale_model(gt_nano)
    sol = ss.solve_cantelli_frequency(moments, zenith_budget, n_img, RHO, nano)
    m = n_img * moments.mean_at(sol.frequency_hz)
    v = n_img * moments.variance_at(sol.frequency_hz)
    slack = zenith_budget.t_proc_s - m
    assert slack > 0.0
    score = 1.0 - v / (v + slack * slack)
    assert sol.predicted_reliability == pytest.approx(score, rel=1e-12)
    assert sol.predicted_reliability >= RHO


def test_mean_above_budget_is_infeasible(nano, zenith_budget):
    a_coef = _work_per_hz(nano)
    moments = ss.MomentModel(
        mean_fn=lambda f: a_coef / np.asarray(f, dtype=np.float64)
        + nano.mu_sync_s,
        variance_fn=lambda f: np.zeros_like(np.asarray(f, dtype=np.float64)))
    # 40 * mu_sync alone exceeds t_proc ~ 0.489 s, so no clock can help
    with pytest.raises(InfeasibleConstraintError) as exc_info:
        ss.solve_cantelli_frequency(moments, zenith_budget, 40, RHO, nano)
    assert exc_info.value.achievable_reliability == 0.0


# ---------------------------------------------------------------- pricing

def test_gamma_choice_meets_threshold_under_truth(gt_nano, nano, zenith_budget):
    sel = ss.select_and_price("gamma", gt_nano, zenith_budget, 3, RHO, nano)
    assert sel.method == "gamma"
    assert sel.reliability >= RHO
    assert sel.energy_j > 0.0


def test_cantelli_choice_never_cheaper(gt_nano, nano, zenith_budget):
    for n_img in range(1, 7):
        gam = ss.select_and_price("gamma", gt_nano, zenith_budget, n_img,
                                  RHO, nano)
        cant = ss.select_and_price("cantelli", gt_nano, zenith_budget, n_img,
                                   RHO, nano)
        assert cant.frequency_hz >= gam.frequency_hz
        assert cant.energy_j >= gam.energy_j
        assert cant.reliability >= gam.reliability


def test_midpoint_overprovision_cost(gt_nano, nano, zenith_budget):
    # mid-range batch: the two-moment plan pays a clear energy premium
    gam = ss.select_and_price("gamma", gt_nano, zenith_budget, 3, RHO, nano)
    cant = ss.select_and_price("cantelli", gt_nano, zenith_budget, 3, RHO, nano)
    ratio = cant.energy_j / gam.energy_j
    assert ratio > 1.5
    assert ratio < 3.0


def test_energy_grows_with_batch_size(gt_nano, nano, zenith_budget):
    energies = [ss.select_and_price("gamma", gt_nano, zenith_budget, n, RHO,
                                    nano).energy_j
                for n in range(1, 7)]
    assert all(b > a for a, b in zip(energies, energies[1:]))


class _Pessimist:
    """Planner belief with the truth's shape but a 20% inflated scale."""

    def __init__(self, truth):
        self._truth = truth

    def shape_at(self, f_hz):
        return self._truth.shape_at(f_hz)

    def scale_at(self, f_hz):
        return 1.2 * np.asarray(self._truth.scale_at(f_hz), dtype=np.float64)


def test_pricing_ignores_planner_model(gt_nano, nano, zenith_budget):
    """Whatever the planner believed, cost and reliability are evaluated
    under the truth at the chosen clock."""
    n_img = 3
    base = ss.select_and_price("gamma", gt_nano, zenith_budget, n_img, RHO,
                               nano)
    sel = ss.select_and_price("gamma", gt_nano, zenith_budget, n_img, RHO,
                              nano, model=_Pessimist(gt_nano))
    assert sel.frequency_hz > base.frequency_hz  # inflated belief, higher clock

    f_hz = sel.frequency_hz
    law = ss.batch_law(ss.GammaLaw(gt_nano.shape_at(f_hz),
                                   gt_nano.scale_at(f_hz)), n_img)
    assert sel.energy_j == pytest.approx(ss.energy(f_hz, nano, law), rel=1e-12)
    assert sel.reliability == pytest.approx(
        float(ss.gamma_cdf(zenith_budget.t_proc_s, law.shape, law.scale)),
        rel=1e-12)


def test_plan_kernel_work_gate(monkeypatch, gt_nano, nano, zenith_budget):
    """Both planners read the pooled shapes on their pre-scan grid from the
    ground truth and probe the boundary with scalar kernels: no array shape
    solve, and one array CDF call (the gamma pre-scan) for the pair of
    plans."""
    calls = {"solve_gamma_shape_arr": 0, "reg_lower_gamma_arr": 0}
    for name in calls:
        def counted(*args, _name=name, _fn=getattr(kernels, name)):
            calls[_name] += 1
            return _fn(*args)
        monkeypatch.setattr(kernels, name, counted)
    for method in ("gamma", "cantelli"):
        sel = ss.select_and_price(method, gt_nano, zenith_budget, 3, RHO, nano)
        assert sel.frequency_hz > nano.f_min_hz  # the boundary search ran
    assert calls["solve_gamma_shape_arr"] == 0
    assert calls["reg_lower_gamma_arr"] <= 1


def test_planner_grid_shapes_are_a_fresh_solve(gt_nano, nano):
    grid = np.linspace(nano.f_min_hz, nano.f_max_hz, ss.scheduler.GRID_POINTS_DEFAULT)
    assert np.array_equal(gt_nano.planner_grid_hz, grid)
    assert gt_nano.shape_at(grid) is gt_nano.planner_grid_shapes
    # the same clocks as a (1, n) array are not the planner grid, so they
    # get a fresh solve
    uncached = gt_nano.shape_at(grid[np.newaxis, :])[0]
    assert np.array_equal(gt_nano.planner_grid_shapes, uncached)
    for arr in (gt_nano.planner_grid_hz, gt_nano.planner_grid_shapes):
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[0] = 1.0


def test_replaced_ground_truth_plans_like_a_fresh_one(scenario, gt_nano, nano,
                                                      zenith_budget):
    """dataclasses.replace re-derives the grid caches from the new fields,
    so the copy plans exactly like a ground truth built with that cv."""
    replaced = dataclasses.replace(gt_nano, cv_at_fmax=0.3)
    fresh = ss.synthesize_ground_truth(
        nano, 0.3, scenario.gt_n_images,
        ss.stream(scenario.seed, scenario.bit_generator, ss.NS_GROUND_TRUTH, 0),
        image_sigma=scenario.gt_image_sigma,
        variance_model=scenario.gt_variance_model)
    assert np.array_equal(replaced.work_multipliers, fresh.work_multipliers)
    assert np.array_equal(replaced.planner_grid_shapes,
                          fresh.planner_grid_shapes)
    got = ss.select_and_price("gamma", replaced, zenith_budget, 3, RHO, nano)
    want = ss.select_and_price("gamma", fresh, zenith_budget, 3, RHO, nano)
    assert got == want
    assert got.reliability >= RHO


def test_planner_grid_scales_are_cached(gt_nano, nano):
    """The planner's grid is one shared read-only array per platform range,
    and the ground truth keeps its pooled scales on it."""
    grid = ss.scheduler.planner_grid(nano.f_min_hz, nano.f_max_hz)
    assert grid is gt_nano.planner_grid_hz
    assert gt_nano.scale_at(grid) is gt_nano.planner_grid_scales
    assert gt_nano.scale_at(np.array(grid)) is gt_nano.planner_grid_scales
    assert np.array_equal(
        gt_nano.planner_grid_scales,
        gt_nano.mean_at(grid) / gt_nano.planner_grid_shapes)
    assert gt_nano.planner_grid_scales.dtype == np.float64
    for arr in (grid, gt_nano.planner_grid_scales):
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[0] = 1.0


def test_unknown_method_rejected(gt_nano, nano, zenith_budget):
    with pytest.raises(DomainError):
        ss.select_and_price("median", gt_nano, zenith_budget, 2, RHO, nano)


# ---------------------------------------------------------------- pre-scan screen

def test_screened_flags_equal_exact_flags():
    """Over random lanes, the screened flags equal the exact CDF's flags.
    A fifth of the lanes sit within 1e-12 of the rho_th quantile."""
    rng = np.random.default_rng(20261019)
    for _ in range(80):
        n = 128
        rho_th = rng.uniform(0.01, 0.99)
        t_proc = rng.uniform(0.05, 2.0)
        shape = np.exp(rng.uniform(math.log(0.3), math.log(3000.0), n))
        x = shape + rng.uniform(-6.0, 6.0, n) * np.sqrt(shape)
        edge = rng.random(n) < 0.2
        x[edge] = [kernels.gamma_quantile_unit(rho_th, a) * (1.0 + e)
                   for a, e in zip(shape[edge],
                                   rng.uniform(-1e-12, 1e-12, edge.sum()))]
        scale = t_proc / np.maximum(x, 1e-6)
        exact = ss.gamma_cdf(t_proc, shape, scale)
        flags = ss.scheduler._screened_flags(t_proc, shape, scale, rho_th)
        assert flags.dtype == bool
        assert np.array_equal(flags, exact >= rho_th)


def _check_screen_margin(monkeypatch, offset, settled, liar):
    # a bracket whose lower end clears rho_th by less than 1e-9 settles
    # nothing; by more, every lane, and then no exact CDF runs at all. The
    # lying bracket sits on one screening stage (the tangent pass or the
    # chord stage); the other stage gets the trivial bracket [0, 1], which
    # settles nothing
    rho_th = 0.95
    shape = np.full(6, 50.0)
    scale = np.linspace(0.8, 1.2, 6) / 50.0
    exact = ss.gamma_cdf(1.0, shape, scale)
    exact_lanes = []
    arr_cdf = kernels.reg_lower_gamma_arr

    def counted_cdf(a, x):
        exact_lanes.append(a.size)
        return arr_cdf(a, x)

    def bracket(a, stage):
        lo = rho_th + offset if stage == liar else 0.0
        return np.full(a.shape, lo), np.ones(a.shape)

    monkeypatch.setattr(kernels, "reg_lower_gamma_arr", counted_cdf)
    monkeypatch.setattr(kernels, "reg_lower_gamma_tangent",
                        lambda a, x: (*bracket(a, "tangent"),
                                      np.zeros(a.shape)))
    monkeypatch.setattr(kernels, "reg_lower_gamma_chords",
                        lambda a, x, log_g, lo_th: bracket(a, "chords"))
    flags = ss.scheduler._screened_flags(1.0, shape, scale, rho_th)
    if settled:
        assert flags.all() and exact_lanes == []
    else:
        assert np.array_equal(flags, exact >= rho_th) and exact_lanes == [6]


@pytest.mark.parametrize("offset,settled", [(0.5e-9, False), (2e-9, True)])
def test_screen_settles_only_past_the_margin(monkeypatch, offset, settled):
    _check_screen_margin(monkeypatch, offset, settled, liar="chords")


@pytest.mark.parametrize("offset,settled", [(0.5e-9, False), (2e-9, True)])
def test_tangent_screen_settles_only_past_the_margin(monkeypatch, offset,
                                                     settled):
    _check_screen_margin(monkeypatch, offset, settled, liar="tangent")


@pytest.mark.parametrize("method", ["gamma", "cantelli"])
def test_prescan_callback_returns_flags(monkeypatch, method, gt_nano, nano,
                                        zenith_budget):
    """The array form of each planner's callback returns one bool flag per
    grid point, the float form a score with the same verdict."""
    search = ss.scheduler._boundary_search
    seen = []

    def checked_search(achieved, rho_th, *args, **kwargs):
        grid = np.linspace(nano.f_min_hz, nano.f_max_hz, 9)
        flags = achieved(grid)
        assert flags.dtype == bool and flags.shape == grid.shape
        assert [achieved(float(f)) >= rho_th for f in grid] == flags.tolist()
        seen.append(flags)
        return search(achieved, rho_th, *args, **kwargs)

    monkeypatch.setattr(ss.scheduler, "_boundary_search", checked_search)
    ss.select_and_price(method, gt_nano, zenith_budget, 3, RHO, nano)
    assert len(seen) == 1 and seen[0].any() and not seen[0].all()


def _count_plan_work(monkeypatch):
    """Count array CDF lanes, scalar pooled-shape solves and boundary-search
    probes (scalar score calls) from here on."""
    counts = {"cdf_lanes": 0, "shape_solves": 0, "probes": 0}
    arr_cdf = kernels.reg_lower_gamma_arr
    solve = kernels.solve_gamma_shape
    search = ss.scheduler._boundary_search

    def counted_cdf(a, x):
        counts["cdf_lanes"] += a.shape[0]
        return arr_cdf(a, x)

    def counted_solve(s):
        counts["shape_solves"] += 1
        return solve(s)

    def counted_search(achieved, *args, **kwargs):
        def score(f_hz):
            if not isinstance(f_hz, np.ndarray):
                counts["probes"] += 1
            return achieved(f_hz)
        return search(score, *args, **kwargs)

    monkeypatch.setattr(kernels, "reg_lower_gamma_arr", counted_cdf)
    monkeypatch.setattr(kernels, "solve_gamma_shape", counted_solve)
    monkeypatch.setattr(ss.scheduler, "_boundary_search", counted_search)
    ss.harness._pooled_shape.cache_clear()
    return counts


def test_prescan_exact_lane_gate(monkeypatch, gt_nano, nano, zenith_budget):
    counts = _count_plan_work(monkeypatch)
    sel = ss.select_and_price("gamma", gt_nano, zenith_budget, 3, RHO, nano)
    assert sel.frequency_hz > nano.f_min_hz
    assert 2 <= counts["cdf_lanes"] <= 64


def test_prescan_full_bracket_lane_gate(monkeypatch, gt_nano, nano,
                                       zenith_budget):
    """The tangent pass settles most pre-scan lanes, so few reach the chord
    stage."""
    lanes = []
    chords = kernels.reg_lower_gamma_chords

    def counted_chords(a, x, log_g, lo_th):
        lanes.append(a.shape[0])
        return chords(a, x, log_g, lo_th)

    monkeypatch.setattr(kernels, "reg_lower_gamma_chords", counted_chords)
    sel = ss.select_and_price("gamma", gt_nano, zenith_budget, 3, RHO, nano)
    assert sel.frequency_hz > nano.f_min_hz
    assert len(lanes) == 1 and lanes[0] <= 256


def test_prescan_exact_lane_gate_below_shape_one(monkeypatch, scenario, nano,
                                                 zenith_budget):
    """With cv 0.9 and image_sigma 1 the pooled shapes fall below 1, where
    only the shifted full bracket is informative; it leaves 435 of the 2048
    pre-scan lanes to the exact CDF (the tangent bracket alone would leave
    all of them)."""
    gt = ss.synthesize_ground_truth(
        nano, 0.9, scenario.gt_n_images,
        ss.stream(scenario.seed, scenario.bit_generator, ss.NS_GROUND_TRUTH, 0),
        image_sigma=1.0, variance_model=scenario.gt_variance_model)
    assert gt.planner_grid_shapes.max() < 1.0
    counts = _count_plan_work(monkeypatch)
    ss.select_and_price("gamma", gt, zenith_budget, 1, RHO, nano)
    assert counts["cdf_lanes"] <= 435


@pytest.mark.parametrize("method", ["gamma", "cantelli"])
def test_one_shape_solve_per_probe_gate(monkeypatch, method, gt_nano, nano,
                                        zenith_budget):
    """Shape, scale, mean and variance at one probe share one solve, and
    pricing reuses the solve of the returned clock."""
    counts = _count_plan_work(monkeypatch)
    sel = ss.select_and_price(method, gt_nano, zenith_budget, 3, RHO, nano)
    assert sel.frequency_hz > nano.f_min_hz
    assert counts["probes"] <= 8
    assert counts["shape_solves"] <= counts["probes"] + 2


# ---------------------------------------------------------------- boundary search

def _reference_bisection(achieved, rho_th, f_min_hz, f_max_hz, what):
    """Plain bisection from the same pre-scan cell to the same tolerance."""
    grid = np.linspace(f_min_hz, f_max_hz, ss.scheduler.GRID_POINTS_DEFAULT)
    flags = achieved(grid)
    feasible_idx = np.flatnonzero(flags)
    if feasible_idx.size == 0:
        raise InfeasibleConstraintError(
            what, achievable_reliability=float(achieved(f_max_hz)))
    first = int(feasible_idx[0])
    if first == 0:
        return float(f_min_hz)
    lo, hi = float(grid[first - 1]), float(grid[first])
    tol = ss.scheduler._BRACKET_REL_TOL * (f_max_hz - f_min_hz)
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if achieved(mid) >= rho_th:
            hi = mid
        else:
            lo = mid
    return hi


def _outcome(search, *args):
    try:
        return search(*args)
    except InfeasibleConstraintError as exc:
        return exc


def test_boundary_search_matches_reference_bisection(monkeypatch, scenario,
                                                     zenith_budget):
    """Over a seeded sample of plans, the Illinois search gives the
    reference bisection's verdict and frequency to 1e-9 of the span, and
    every interior answer is feasible with 1e-9 of the span lower not,
    after at most 8 float probes (19 for the reference)."""
    search = ss.scheduler._boundary_search
    checked = []

    def compared(achieved, rho_th, f_min_hz, f_max_hz, what):
        ref = _outcome(_reference_bisection, achieved, rho_th, f_min_hz,
                       f_max_hz, what)
        probes = []

        def counted(f_hz):
            if not isinstance(f_hz, np.ndarray):
                probes.append(f_hz)
            return achieved(f_hz)

        got = _outcome(search, counted, rho_th, f_min_hz, f_max_hz, what)
        if isinstance(ref, InfeasibleConstraintError):
            assert isinstance(got, InfeasibleConstraintError)
            assert got.achievable_reliability == ref.achievable_reliability
            raise got
        span = f_max_hz - f_min_hz
        tol = ss.scheduler._BRACKET_REL_TOL * span
        assert isinstance(got, ss.FrequencySolution)
        assert abs(got.frequency_hz - ref) <= 1e-9 * span
        assert got.predicted_reliability == achieved(got.frequency_hz)
        assert got.predicted_reliability >= rho_th
        if got.frequency_hz > f_min_hz:
            assert achieved(got.frequency_hz - tol) < rho_th
            assert len(probes) <= 8
        checked.append(got.frequency_hz > f_min_hz)
        return got

    monkeypatch.setattr(ss.scheduler, "_boundary_search", compared)
    cells = [(cv, sigma, rho_th, n_img, method, pi)
             for cv in (0.05, 0.3, 0.9) for sigma in (0.0, 0.5)
             for rho_th in (0.5, 0.95, 0.999) for n_img in (1, 4, 12)
             for method in ("gamma", "cantelli") for pi in (0, 1)]
    rng = np.random.default_rng(20261018)
    truths = {}
    for i in sorted(rng.choice(len(cells), size=150, replace=False)):
        cv, sigma, rho_th, n_img, method, pi = cells[i]
        if (cv, sigma, pi) not in truths:
            truths[cv, sigma, pi] = ss.synthesize_ground_truth(
                scenario.platforms[pi], cv, 56,
                np.random.default_rng(pi), image_sigma=sigma)
        try:
            ss.select_and_price(method, truths[cv, sigma, pi], zenith_budget,
                                n_img, rho_th, scenario.platforms[pi])
        except InfeasibleConstraintError:
            pass
    assert len(checked) >= 80 and sum(checked) >= 40


# a frequency box for searches on hand-made scores
F_MIN, F_MAX = 3.0e8, 9.2e8
SPAN = F_MAX - F_MIN
GRID = np.linspace(F_MIN, F_MAX, ss.scheduler.GRID_POINTS_DEFAULT)
CELL = GRID[1] - GRID[0]
TOL = ss.scheduler._BRACKET_REL_TOL * SPAN


def _search(score, rho_th):
    """Boundary search over the box on a vectorized score; returns the
    solution and the float probes it made."""
    probes = []

    def achieved(f_hz):
        if isinstance(f_hz, np.ndarray):
            return score(f_hz) >= rho_th
        probes.append(f_hz)
        return float(score(f_hz))

    sol = ss.scheduler._boundary_search(achieved, rho_th, F_MIN, F_MAX,
                                        "hand-made score")
    return sol, probes


@pytest.mark.parametrize("rho_th", [0.05, 0.5, 0.95, 0.999])
def test_boundary_search_worst_case_probe_gate(rho_th):
    """On a step and on a flat plateau, where interpolation learns nothing,
    the search makes at most twice the float probes of plain bisection
    plus the two cell-end scores, and still returns the bracket
    certificate."""
    bound = 2 * math.ceil(math.log2(CELL / TOL)) + 2
    assert bound == 40
    for frac in np.linspace(0.001, 0.999, 23):
        r = GRID[1234] + frac * CELL
        # a step from 0 to 1 at r, and a plateau at 0.0 below r that then
        # jumps to just above rho_th and rises slowly
        for score in (lambda f: np.where(f >= r, 1.0, 0.0),
                      lambda f: np.where(f < r, 0.0, np.minimum(
                          1.0, rho_th + (f - r) / SPAN))):
            sol, probes = _search(score, rho_th)
            assert len(probes) <= bound
            assert sol.predicted_reliability >= rho_th
            assert r <= sol.frequency_hz <= r + TOL
            assert any(sol.frequency_hz - TOL <= f < r for f in probes)


def test_boundary_search_steep_constraint_probe_gate():
    """A constraint that rises from 0 to 1 within a third of a grid cell
    bends sharply inside the bracket, where plain regula falsi keeps one
    end fixed and creeps; the Illinois step keeps the search at about 9
    float probes on average (about 16 without either halving)."""
    width = 0.3 * CELL
    counts = []
    for i, frac in enumerate(np.linspace(0.01, 0.99, 30)):
        rho_th = (0.05, 0.5, 0.95)[i % 3]
        r = GRID[1000] + frac * CELL
        centre = r - width * math.log(rho_th / (1.0 - rho_th))
        sol, probes = _search(  # a logistic through rho_th at r
            lambda f, c=centre: 0.5 + 0.5 * np.tanh(0.5 * (f - c) / width),
            rho_th)
        assert abs(sol.frequency_hz - r) <= TOL
        counts.append(len(probes))
    assert np.mean(counts) <= 12


@pytest.mark.parametrize("float_score", [RHO + 0.01, RHO - 0.01])
def test_boundary_search_keeps_the_grid_verdict(float_score):
    """When the float scores contradict the grid flags at the ends of the
    lowest feasible cell (the array and scalar paths may round apart), the
    search bisects inside that cell rather than interpolating, and the
    grid's verdict stands."""
    probes = []

    def achieved(f_hz):
        if isinstance(f_hz, np.ndarray):
            return f_hz >= GRID[1000]
        probes.append(f_hz)
        return float_score

    sol = ss.scheduler._boundary_search(achieved, RHO, F_MIN, F_MAX, "grid")
    assert sol.predicted_reliability == float_score
    if float_score >= RHO:
        assert GRID[999] < sol.frequency_hz <= GRID[999] + TOL
    else:
        assert sol.frequency_hz == GRID[1000]
    assert len(probes) <= 40
