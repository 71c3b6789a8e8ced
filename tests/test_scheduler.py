"""Frequency planning: budget decomposition, the batch-quantile solver, the
two-moment (Cantelli) benchmark, and pricing of either plan under the truth."""

import dataclasses
import functools
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

    grid_values = None

    def shape_at(self, f_hz):
        return -1.0 * np.ones_like(np.asarray(f_hz, dtype=np.float64))

    def scale_at(self, f_hz):
        return np.ones_like(np.asarray(f_hz, dtype=np.float64))

    def shape_scale_at(self, f_hz):
        return self.shape_at(f_hz), self.scale_at(f_hz)


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
        spread = k * math.sqrt(n_img * float(moments.variance_fn(f)))
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
    m = n_img * float(moments.mean_fn(sol.frequency_hz))
    v = n_img * float(moments.variance_fn(sol.frequency_hz))
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


def test_cantelli_variance_free_plan_with_underflowing_slack(nano):
    """With no variance, any positive slack meets the bound, also one whose
    square underflows to 0: every grid point is feasible, as its float score
    of 1 says."""
    budget = ss.LatencyBudget(1e-170, 0.0, 0.0, 0.0)
    free = ss.MomentModel(lambda f: 0.0 * f, lambda f: 0.0 * f)
    sol = ss.solve_cantelli_frequency(free, budget, 1, RHO, nano)
    assert sol.frequency_hz == nano.f_min_hz
    assert sol.predicted_reliability == 1.0 and not sol.non_monotone


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

    grid_values = None

    def __init__(self, truth):
        self._truth = truth

    def shape_at(self, f_hz):
        return self._truth.shape_at(f_hz)

    def scale_at(self, f_hz):
        return 1.2 * np.asarray(self._truth.scale_at(f_hz), dtype=np.float64)

    def shape_scale_at(self, f_hz):
        return self.shape_at(f_hz), self.scale_at(f_hz)


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


def _fitted_nano(scenario, gt, platform, lo_hz, hi_hz):
    """A FrequencyModel fitted from 400 draws at 8 clocks over [lo, hi]."""
    freqs = np.linspace(lo_hz, hi_hz, 8)
    rng = ss.stream(scenario.seed, scenario.bit_generator, 7, 9)
    times = gt.sample_image_times(np.arange(400) % gt.n_images, freqs, rng)
    return ss.fit_frequency_model(dict(zip(freqs.tolist(), times)), degree=3)


def test_plan_kernel_work_gate(monkeypatch, scenario, gt_nano, nano,
                               zenith_budget):
    """Plans read the values a model keeps on the planner grid, and a gamma
    plan on the ground truth prices with its own score:

    * both planners on the ground truth make no array shape solve, and one
      array CDF call (the gamma pre-scan) for the pair of plans;
    * the gamma plan on the ground truth makes no CDF call after the
      search's last probe;
    * a gamma plan on the ground truth or on a FrequencyModel fitted over
      the platform range evaluates no Polynomial, solves no pooled shape
      and calls no shape_at or scale_at on the grid (a model fitted over a
      narrower range calls both there and evaluates both polynomials,
      once each);
    * the Cantelli grid pass takes the kept moments, so it asks the ground
      truth for no grid shapes or scales to multiply."""
    fitted = _fitted_nano(scenario, gt_nano, nano, nano.f_min_hz,
                          nano.f_max_hz)
    narrow = _fitted_nano(scenario, gt_nano, nano, 1.2 * nano.f_min_hz,
                          0.8 * nano.f_max_hz)
    counts = _count_plan_work(monkeypatch)
    for method in ("gamma", "cantelli"):
        before = dict(counts)
        sel = ss.select_and_price(method, gt_nano, zenith_budget, 3, RHO, nano)
        assert sel.frequency_hz > nano.f_min_hz  # the boundary search ran
        if method == "gamma":
            assert counts["cdf_after_search"] == before["cdf_after_search"]
        else:
            assert counts["cdf_after_search"] == before["cdf_after_search"] + 1
            assert counts["grid_lookups"] == before["grid_lookups"]
    assert counts["grid_shape_solves"] == 0
    assert counts["cdf_arr_calls"] <= 1
    assert counts["grid_polynomial_evals"] == 0
    assert counts["grid_lookups"] == 0
    ss.select_and_price("gamma", gt_nano, zenith_budget, 3, RHO, nano,
                        model=fitted)
    assert counts["grid_polynomial_evals"] == 0
    assert counts["grid_lookups"] == 0
    ss.select_and_price("gamma", gt_nano, zenith_budget, 3, RHO, nano,
                        model=narrow)
    assert counts["grid_polynomial_evals"] == 2
    assert counts["grid_lookups"] == 2
    assert counts["grid_shape_solves"] == 0


def _masked_select_and_price(method, gt, budget, n_img, rho_th, platform):
    """select_and_price as it ran before models kept checked grid values:
    the gamma pre-scan masks invalid lanes on every plan, the Cantelli
    moments are formed from the grid shapes and scales on every plan, and
    the gamma choice is priced by a separate gamma_cdf call."""
    t_proc = budget.t_proc_s
    if method == "gamma":
        def score(f_hz):
            return kernels.reg_lower_gamma(n_img * float(gt.shape_at(f_hz)),
                                           t_proc / float(gt.scale_at(f_hz)))

        def flags(grid):
            shape = np.asarray(gt.shape_at(grid), dtype=np.float64)
            scale = np.asarray(gt.scale_at(grid), dtype=np.float64)
            ok = (np.isfinite(shape) & np.isfinite(scale)
                  & (shape > 0.0) & (scale > 0.0))
            out = np.zeros(grid.shape[0], dtype=bool)
            out[ok] = kernels.reg_lower_gamma_at_least(
                n_img * shape[ok], t_proc / scale[ok], rho_th)[0]
            return out
        sol = ss.scheduler._boundary_search(
            score, flags, rho_th, platform.f_min_hz, platform.f_max_hz,
            method)
    else:
        def variance(f_hz):
            scale = gt.scale_at(f_hz)
            return gt.shape_at(f_hz) * scale * scale

        moments = ss.MomentModel(lambda f_hz: gt.shape_at(f_hz)
                                 * gt.scale_at(f_hz), variance)
        sol = ss.solve_cantelli_frequency(moments, budget, n_img, rho_th,
                                          platform)
    f_hz = sol.frequency_hz
    law = ss.batch_law(gt.law_at(f_hz), n_img)
    return ss.PricedSelection(
        method=method, frequency_hz=f_hz, energy_j=ss.energy(f_hz, platform, law),
        reliability=float(ss.gamma_cdf(t_proc, law.shape, law.scale)),
        non_monotone=sol.non_monotone)


def _plan_or_reliability(plan, *args):
    try:
        return plan(*args)
    except InfeasibleConstraintError as exc:
        return exc.achievable_reliability


def _seeded_truths(scenario):
    """(platform index, ground truth) for both platforms and variance
    models, cv 0.1/0.5/0.9 and image_sigma 0 and 1, each built afresh."""
    for pi, platform in enumerate(scenario.platforms):
        for variance_model in ("structural", "constant"):
            for cv in (0.1, 0.5, 0.9):
                for sigma in (0.0, 1.0):
                    yield pi, ss.synthesize_ground_truth(
                        platform, cv, scenario.gt_n_images,
                        ss.stream(scenario.seed, scenario.bit_generator,
                                  ss.NS_GROUND_TRUTH, pi),
                        image_sigma=sigma, variance_model=variance_model)


def test_scalar_law_at_a_grid_clock_is_the_kept_one(scenario):
    """On the 24 seeded ground truths, the scalar law at every planner-grid
    clock is the kept grid shape and scale, bit for bit, so a probe at a
    grid clock and the pre-scan score it alike."""
    for _, gt in _seeded_truths(scenario):
        p = gt.platform
        grid = ss.scheduler.planner_grid(p.f_min_hz, p.f_max_hz).tolist()
        kept = zip(gt.grid_values.shapes.tolist(),
                   gt.grid_values.scales.tolist())
        for f, (shape, scale) in zip(grid, kept, strict=True):
            law = gt.law_at(f)
            assert (law.shape, law.scale) == (shape, scale), (gt, f)


def test_kept_grid_values_plan_bit_for_bit(scenario):
    """On a seeded grid of ground truths (both platforms and variance
    models, cv 0.1/0.5/0.9, image_sigma 0 and 1) and plans (n_img 1-12,
    elevations 25/50/90, rho_th 0.5/0.95/0.99), both planners give every
    PricedSelection field, or the reliability an infeasible plan reports,
    exactly as the masked per-plan path does, and a gamma choice's
    reliability is gamma_cdf at it."""
    budgets = [ss.budget_from_legs(scenario, ss.comm_legs(scenario, el))
               for el in (25.0, 50.0, 90.0)]
    rng = np.random.default_rng(20261019)
    checked = infeasible = 0
    for _, gt in _seeded_truths(scenario):
        # a seeded quarter of the 108 (budget, rho_th, n_img) cells of each
        # ground truth, both planners on each
        for cell in rng.choice(108, size=27, replace=False):
            budget = budgets[cell // 36]
            rho_th = (0.5, 0.95, 0.99)[cell // 12 % 3]
            n_img = int(cell % 12) + 1
            for method in ("gamma", "cantelli"):
                args = (method, gt, budget, n_img, rho_th, gt.platform)
                got = _plan_or_reliability(ss.select_and_price, *args)
                want = _plan_or_reliability(_masked_select_and_price, *args)
                assert got == want, (args, got, want)
                checked += 1
                if isinstance(got, float):
                    infeasible += 1
                elif method == "gamma":
                    law = ss.batch_law(gt.law_at(got.frequency_hz), n_img)
                    assert got.reliability == float(ss.gamma_cdf(
                        budget.t_proc_s, law.shape, law.scale))
    assert checked == 24 * 27 * 2 and 0 < infeasible < checked // 2


def _plans_on_a_seeded_grid(scenario, budgets, fitted):
    """Plans of both planners on the 24 ground truths of the test above,
    each on a seeded quarter of its 108 (budget, rho_th, n_img) cells, and
    gamma plans on the ``fitted`` models (rebuilt, so that they keep their
    values on the current planner grid). Keyed by platform index first,
    then cell; an infeasible plan gives the reliability it reports."""
    rng = np.random.default_rng(20261020)
    plans = {}
    for i, (pi, gt) in enumerate(_seeded_truths(scenario)):
        assert gt.grid_values.shapes.size == ss.scheduler.GRID_POINTS_DEFAULT
        for cell in rng.choice(108, size=27, replace=False):
            n_img = int(cell % 12) + 1
            rho_th = (0.5, 0.95, 0.99)[cell // 12 % 3]
            for method in ("gamma", "cantelli"):
                plans[pi, i, int(cell), method] = _plan_or_reliability(
                    ss.select_and_price, method, gt, budgets[cell // 36],
                    n_img, rho_th, gt.platform)
    for key, (gt, model, n_img) in fitted.items():
        model = dataclasses.replace(model)
        plans[key] = _plan_or_reliability(
            ss.select_and_price, "gamma", gt, budgets[2], n_img,
            scenario.rho_th, gt.platform, model)
    return plans


def test_plans_match_an_eight_times_finer_grid(monkeypatch, scenario,
                                               gt_nano, gt_agx):
    """Against a reference planner grid eight times finer (fresh caches and
    models), plans on a seeded subset of the ground-truth grid above and on
    the 200 ten-image fig3 fits (the non-monotone fits are among them) have
    the same verdicts, the same reliability on infeasible plans and the
    same non_monotone flags; frequency, energy and reliability agree to the
    field tolerance (2e-9 of the span, 1e-7 relative, 1e-7 absolute)."""
    budgets = [ss.budget_from_legs(scenario, ss.comm_legs(scenario, el))
               for el in (25.0, 50.0, 90.0)]
    fitted = {}
    for pi, gt in enumerate((gt_nano, gt_agx)):
        platform = gt.platform
        freqs = ss.fit_frequency_grid(platform, scenario.fit_n_frequencies)
        n_img = scenario.fig3_n_img[platform.name]
        for k in range(100):
            rng = ss.stream(scenario.seed, scenario.bit_generator,
                            ss.NS_SUBSET_STUDY, pi, 10, k)
            rep = ss.run_subset_replicate(
                gt, gt.image_ids, 10, freqs, budgets[2], n_img,
                scenario.rho_th, platform, rng, scenario.fit_degree,
                keep_model=True)
            if rep.model is not None:
                fitted[pi, k] = (gt, rep.model, n_img)
    got = _plans_on_a_seeded_grid(scenario, budgets, fitted)
    # a fresh planner-grid cache for every module that builds the grid,
    # so that the shared one (and the session's ground truths) stay as
    # they are
    fine = functools.lru_cache(maxsize=None)(
        ss.scheduler.planner_grid.__wrapped__)
    for module in (ss.scheduler, ss.harness, ss.estimation):
        monkeypatch.setattr(module, "planner_grid", fine)
    monkeypatch.setattr(ss.scheduler, "GRID_POINTS_DEFAULT",
                        8 * ss.scheduler.GRID_POINTS_DEFAULT)
    want = _plans_on_a_seeded_grid(scenario, budgets, fitted)
    assert fine.cache_info().currsize >= 2
    assert got.keys() == want.keys()
    non_monotone = infeasible = 0
    for key, ref in want.items():
        plan = got[key]
        assert type(plan) is type(ref), key
        if isinstance(ref, float):
            assert plan == ref
            infeasible += 1
            continue
        platform = scenario.platforms[key[0]]  # keys start with its index
        span = platform.f_max_hz - platform.f_min_hz
        assert plan.non_monotone == ref.non_monotone, key
        assert abs(plan.frequency_hz - ref.frequency_hz) <= 2e-9 * span, key
        assert abs(plan.energy_j - ref.energy_j) <= 1e-7 * ref.energy_j, key
        assert abs(plan.reliability - ref.reliability) <= 1e-7, key
        non_monotone += ref.non_monotone
    assert len(want) == 24 * 27 * 2 + len(fitted) and len(fitted) >= 150
    assert 0 < infeasible < len(want) // 2 and non_monotone >= 10


def test_planner_grid_shapes_are_a_fresh_solve(gt_nano, nano):
    """The ground truth keeps read-only pooled shapes for the platform
    range, equal to a fresh array solve on the planner grid."""
    grid = np.linspace(nano.f_min_hz, nano.f_max_hz, ss.scheduler.GRID_POINTS_DEFAULT)
    shared = ss.scheduler.planner_grid(nano.f_min_hz, nano.f_max_hz)
    assert np.array_equal(shared, grid)
    values = gt_nano.grid_values
    assert (values.f_min_hz, values.f_max_hz) == (nano.f_min_hz,
                                                  nano.f_max_hz)
    assert np.array_equal(values.shapes, gt_nano.shape_at(shared))
    # the same clocks as a (1, n) array solve to the same values
    uncached = gt_nano.shape_at(grid[np.newaxis, :])[0]
    assert np.array_equal(values.shapes, uncached)
    for arr in (shared, values.shapes):
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
    assert np.array_equal(replaced.grid_values.shapes,
                          fresh.grid_values.shapes)
    got = ss.select_and_price("gamma", replaced, zenith_budget, 3, RHO, nano)
    want = ss.select_and_price("gamma", fresh, zenith_budget, 3, RHO, nano)
    assert got == want
    assert got.reliability >= RHO


def test_planner_grid_scales_are_cached(gt_nano, nano):
    """The planner's grid is one shared read-only array per platform range,
    and the ground truth keeps its pooled scales on it, read-only and equal
    to a fresh solve."""
    grid = ss.scheduler.planner_grid(nano.f_min_hz, nano.f_max_hz)
    values = gt_nano.grid_values
    assert np.array_equal(gt_nano.scale_at(grid), values.scales)
    assert np.array_equal(values.scales,
                          gt_nano.mean_at(grid) / values.shapes)
    assert values.scales.dtype == np.float64
    for arr in (grid, values.scales):
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[0] = 1.0


def test_ground_truth_keeps_grid_moments(monkeypatch, gt_nano, nano):
    """The ground truth keeps its Cantelli moments on the planner grid, in
    the operation order of the shape/scale closures, read-only; the moment
    model built from it carries the same values and forms them again on
    the grid, and its pre-scan flags without the validity checks equal the
    checked flags on a copy of the same moments that keeps none."""
    grid = ss.scheduler.planner_grid(nano.f_min_hz, nano.f_max_hz)
    values = gt_nano.grid_values
    shapes, scales = values.shapes, values.scales
    assert np.array_equal(values.means, shapes * scales)
    assert np.array_equal(values.variances, shapes * scales * scales)
    kept = ss.MomentModel.from_shape_scale_model(gt_nano)
    assert np.array_equal(kept.grid_values.means, values.means)
    assert np.array_equal(kept.grid_values.variances, values.variances)
    for arr in (values.means, values.variances):
        assert not arr.flags.writeable
    # the moment functions form the same products on the grid
    assert np.array_equal(kept.mean_fn(grid), values.means)
    assert np.array_equal(kept.variance_fn(grid), values.variances)
    copied = ss.MomentModel(lambda f: np.array(kept.mean_fn(f)),
                            lambda f: np.array(kept.variance_fn(f)))
    assert copied.grid_values is None
    search = ss.scheduler._boundary_search
    flags = []

    def capture(score, flags_fn, *args):
        flags.append(flags_fn(grid))
        return search(score, flags_fn, *args)

    monkeypatch.setattr(ss.scheduler, "_boundary_search", capture)
    for n_img, t_proc in ((1, 0.05), (3, 0.3), (6, 0.3), (12, 0.45)):
        budget = ss.LatencyBudget(t_proc, 0.0, 0.0, 0.0)
        for moments in (kept, copied):
            try:
                ss.solve_cantelli_frequency(moments, budget, n_img, RHO, nano)
            except InfeasibleConstraintError:
                pass
        assert np.array_equal(flags[-2], flags[-1])
    assert any(f.any() and not f.all() for f in flags)


def test_unknown_method_rejected(gt_nano, nano, zenith_budget):
    with pytest.raises(DomainError):
        ss.select_and_price("median", gt_nano, zenith_budget, 2, RHO, nano)


# ---------------------------------------------------------------- pre-scan screen

def test_screened_flags_equal_exact_flags():
    """Over random lanes, the screened flags equal the exact CDF's flags.
    A fifth of the lanes sit within 1e-12 of the rho_th quantile. Sets 80 to
    99 have shapes below 1 only, and x up to past a + _SERIES_TERMS, where
    the series bracket has no upper bound and the exact CDF decides; the
    last 20 sets do the same with shapes from 1 up to the series cutoff."""
    rng = np.random.default_rng(20261019)
    past_series = 0
    for i in range(120):
        n = 128
        rho_th = rng.uniform(0.01, 0.99)
        t_proc = rng.uniform(0.05, 2.0)
        if i < 80:
            shape = np.exp(rng.uniform(math.log(0.3), math.log(3000.0), n))
            x = shape + rng.uniform(-6.0, 6.0, n) * np.sqrt(shape)
        elif i < 100:
            shape = np.exp(rng.uniform(math.log(0.02), 0.0, n))
            x = np.exp(rng.uniform(math.log(1e-4), math.log(80.0), n))
        else:
            shape = rng.uniform(1.0, kernels._SERIES_CUTOFF, n)
            x = np.exp(rng.uniform(math.log(1e-4), math.log(80.0), n))
        edge = rng.random(n) < 0.2
        x[edge] = [kernels.gamma_quantile_unit(rho_th, a) * (1.0 + e)
                   for a, e in zip(shape[edge],
                                   rng.uniform(-1e-12, 1e-12, edge.sum()))]
        scale = t_proc / np.maximum(x, 1e-6)
        exact = ss.gamma_cdf(t_proc, shape, scale)
        flags, settled = kernels.reg_lower_gamma_at_least(
            shape, t_proc / scale, rho_th)
        assert flags.dtype == bool
        assert np.array_equal(flags, exact >= rho_th)
        # a lane is left unsettled only where the exact CDF is within two
        # margins of rho_th
        assert settled is True or settled.dtype == bool
        near = np.abs(exact - rho_th) < 2.0 * kernels._SCREEN_MARGIN
        assert not np.any(~np.broadcast_to(settled, n) & ~near)
        past_series += np.sum(t_proc / scale
                              >= shape + kernels._SERIES_TERMS)
    assert past_series > 0


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
    monkeypatch.setattr(kernels, "_reg_lower_gamma_tangent",
                        lambda a, x: (*bracket(a, "tangent"),
                                      np.zeros(a.shape)))
    monkeypatch.setattr(kernels, "_reg_lower_gamma_chords",
                        lambda a, x, log_g, lo_th: bracket(a, "chords"))
    flags, _ = kernels.reg_lower_gamma_at_least(shape, 1.0 / scale, rho_th)
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


def _damaged_moments(gt, grid, t_proc, n_img):
    """The ground truth's per-image moments, with one damaged (mean,
    variance) pair on each clock of ``grid``: NaN, infinite, signed-zero,
    negative and subnormal values, and a mean that leaves no slack at all,
    with and without variance. None keeps the true value."""
    tight = t_proc / n_img
    assert n_img * tight == t_proc
    pairs = [(math.nan, None), (None, math.nan), (-math.inf, None),
             (None, math.inf), (None, -0.0), (None, -1e-3),
             (5e-324, 5e-324), (tight, 0.0), (tight, None)]
    true = ss.MomentModel.from_shape_scale_model(gt)

    def damaged(fn, k):
        def moment(f_hz):
            out = np.array(fn(f_hz), dtype=np.float64)
            for g, pair in zip(grid, pairs):
                if pair[k] is not None:
                    out[f_hz == g] = pair[k]
            return out
        return moment

    return ss.MomentModel(damaged(true.mean_fn, 0),
                          damaged(true.variance_fn, 1))


@pytest.mark.parametrize("method", ["gamma", "cantelli", "cantelli-damaged"])
def test_prescan_callback_returns_flags(monkeypatch, method, gt_nano, nano,
                                        zenith_budget):
    """Each planner's flags callback returns one bool flag per planner-grid
    point, and its score callback a float with the same verdict at each of
    them, also on a moment model damaged at nine points spread over the
    grid."""
    search = ss.scheduler._boundary_search
    seen = []
    grid = ss.scheduler.planner_grid(nano.f_min_hz, nano.f_max_hz)
    damaged = np.linspace(0, grid.size - 1, 9).round().astype(int)
    moments = None
    if method == "cantelli-damaged":
        method = "cantelli"
        moments = _damaged_moments(gt_nano, grid[damaged],
                                   zenith_budget.t_proc_s, 3)

    def checked_search(score, flags, rho_th, *args, **kwargs):
        on_grid = flags(grid)
        assert on_grid.dtype == bool and on_grid.shape == grid.shape
        assert [score(f) >= rho_th for f in grid.tolist()] == on_grid.tolist()
        seen.append(on_grid)
        return search(score, flags, rho_th, *args, **kwargs)

    monkeypatch.setattr(ss.scheduler, "_boundary_search", checked_search)
    ss.select_and_price(method, gt_nano, zenith_budget, 3, RHO, nano,
                        moments=moments)
    assert len(seen) == 1 and seen[0].any() and not seen[0].all()
    if moments is not None:
        assert seen[0][damaged].tolist() == [False] * 4 + [True, False, True,
                                                           False, False]


def _count_plan_work(monkeypatch):
    """Count from here on: array CDF calls and lanes, scalar CDF calls, CDF
    calls (scalar or array) made after a boundary search returned, scalar
    pooled-shape solves, boundary-search probes (score calls) and pre-scan
    lanes (lanes of flags calls), and work on the planner grid: array
    pooled-shape solves, Polynomial evaluations, and array shape_at and
    scale_at calls on a ground truth or a FrequencyModel."""
    counts = {"cdf_lanes": 0, "cdf_arr_calls": 0, "cdf_scalar_calls": 0,
              "cdf_after_search": 0, "shape_solves": 0, "probes": 0,
              "prescan_lanes": 0, "grid_shape_solves": 0,
              "grid_polynomial_evals": 0, "grid_lookups": 0}
    searched = [False]  # set from a search's return to the next search
    arr_cdf = kernels.reg_lower_gamma_arr
    cdf = kernels.reg_lower_gamma
    solve = kernels.solve_gamma_shape
    solve_arr = kernels.solve_gamma_shape_arr
    search = ss.scheduler._boundary_search
    poly = ss.Polynomial.__call__
    n_grid = ss.scheduler.GRID_POINTS_DEFAULT

    def counted_cdf(a, x):
        counts["cdf_lanes"] += a.shape[0]
        counts["cdf_arr_calls"] += 1
        counts["cdf_after_search"] += searched[0]
        return arr_cdf(a, x)

    def counted_scalar_cdf(a, x):
        counts["cdf_scalar_calls"] += 1
        counts["cdf_after_search"] += searched[0]
        return cdf(a, x)

    def counted_solve(s):
        counts["shape_solves"] += 1
        return solve(s)

    def counted_solve_arr(s):
        counts["grid_shape_solves"] += 1
        return solve_arr(s)

    def counted_poly(self, x):
        if isinstance(x, np.ndarray) and x.size == n_grid:
            counts["grid_polynomial_evals"] += 1
        return poly(self, x)

    def counted_lookup(fn):
        def lookup(self, f_hz):
            if isinstance(f_hz, np.ndarray):
                counts["grid_lookups"] += 1
            return fn(self, f_hz)
        return lookup

    def counted_search(score, flags, *args, **kwargs):
        def counted_score(f_hz):
            counts["probes"] += 1
            return score(f_hz)

        def counted_flags(grid):
            counts["prescan_lanes"] += grid.size
            return flags(grid)
        searched[0] = False
        try:
            return search(counted_score, counted_flags, *args, **kwargs)
        finally:
            searched[0] = True

    monkeypatch.setattr(kernels, "reg_lower_gamma_arr", counted_cdf)
    monkeypatch.setattr(kernels, "reg_lower_gamma", counted_scalar_cdf)
    monkeypatch.setattr(kernels, "solve_gamma_shape", counted_solve)
    monkeypatch.setattr(kernels, "solve_gamma_shape_arr", counted_solve_arr)
    monkeypatch.setattr(ss.scheduler, "_boundary_search", counted_search)
    monkeypatch.setattr(ss.Polynomial, "__call__", counted_poly)
    for cls in (ss.GroundTruth, ss.FrequencyModel):
        for name in ("shape_at", "scale_at"):
            monkeypatch.setattr(cls, name, counted_lookup(getattr(cls, name)))
    return counts


def test_prescan_exact_lane_gate(monkeypatch, gt_nano, nano, zenith_budget):
    counts = _count_plan_work(monkeypatch)
    sel = ss.select_and_price("gamma", gt_nano, zenith_budget, 3, RHO, nano)
    assert sel.frequency_hz > nano.f_min_hz
    assert 2 <= counts["cdf_lanes"] <= 64


# one block of the benchmark's plan-stream requests: (platform, n_img)
PLAN_STREAM_BLOCK = (("nano", 1), ("nano", 2), ("nano", 3), ("nano", 4),
                     ("nano", 5), ("nano", 6), ("agx", 1), ("agx", 3),
                     ("agx", 5), ("agx", 6), ("agx", 8), ("agx", 10),
                     ("agx", 12))


def test_plan_stream_block_work_gate(monkeypatch, scenario, gt_nano, gt_agx):
    """One block of plan-stream requests (both planners in each cell, at
    elevations spread over 20-90 degrees) screens GRID_POINTS_DEFAULT lanes
    per plan, runs the exact array CDF on at most 40 lanes (183 on a
    2048-point grid), makes at most 80 scalar CDF calls (71 there) and
    solves no pooled shape."""
    truths = {"nano": gt_nano, "agx": gt_agx}
    moments = {name: ss.MomentModel.from_shape_scale_model(gt)
               for name, gt in truths.items()}
    elevations = np.linspace(20.0, 90.0, len(PLAN_STREAM_BLOCK))
    counts = _count_plan_work(monkeypatch)
    plans = 0
    for (name, n_img), el in zip(PLAN_STREAM_BLOCK, elevations.tolist()):
        budget = ss.budget_from_legs(scenario, ss.comm_legs(scenario, el))
        for method in ("gamma", "cantelli"):
            ss.select_and_price(method, truths[name], budget, n_img,
                                scenario.rho_th, truths[name].platform,
                                moments=moments[name])
            plans += 1
    assert counts["prescan_lanes"] == plans * ss.scheduler.GRID_POINTS_DEFAULT
    assert counts["cdf_lanes"] <= 40
    assert counts["cdf_scalar_calls"] <= 80
    assert counts["shape_solves"] == 0


@pytest.fixture(scope="module")
def gt_nano_wide(scenario, nano):
    # cv 0.9 and image_sigma 1: pooled shapes below 1 on the whole grid
    return ss.synthesize_ground_truth(
        nano, 0.9, scenario.gt_n_images,
        ss.stream(scenario.seed, scenario.bit_generator, ss.NS_GROUND_TRUTH, 0),
        image_sigma=1.0, variance_model=scenario.gt_variance_model)


def _count_chord_lanes(monkeypatch):
    lanes = []
    chords = kernels._reg_lower_gamma_chords

    def counted_chords(a, x, log_g, lo_th):
        lanes.append(a.shape[0])
        return chords(a, x, log_g, lo_th)

    monkeypatch.setattr(kernels, "_reg_lower_gamma_chords", counted_chords)
    return lanes


def test_prescan_full_bracket_lane_gate(monkeypatch, gt_nano, nano,
                                       zenith_budget):
    """The tangent pass settles most pre-scan lanes, so at most an eighth
    of them reach the chord stage."""
    lanes = _count_chord_lanes(monkeypatch)
    sel = ss.select_and_price("gamma", gt_nano, zenith_budget, 3, RHO, nano)
    assert sel.frequency_hz > nano.f_min_hz
    assert len(lanes) == 1
    assert lanes[0] <= ss.scheduler.GRID_POINTS_DEFAULT // 8


# exact CDF lanes of the n_img 1-12 gamma plans at zenith, measured with
# the lower chord (and, in the comment, without it)
@pytest.mark.parametrize("platform_name,rho_th,lanes_with_chord", [
    ("nano", 0.1, 225),  # 1363 without the lower chord
    ("nano", 0.3, 524),  # 1034
    ("agx", 0.1, 188),   # 1322
    ("agx", 0.3, 503),   # 1058
])
def test_prescan_lower_chord_lane_gate(monkeypatch, scenario, zenith_budget,
                                       platform_name, rho_th,
                                       lanes_with_chord):
    """At a low rho_th the lower chord settles the lanes that sit above the
    quantile; without it about 2-6x as many lanes run the exact CDF."""
    pi = [p.name for p in scenario.platforms].index(platform_name)
    gt = ss.ground_truth_for(scenario, pi)
    counts = _count_plan_work(monkeypatch)
    for n_img in range(1, 13):
        try:  # the pre-scan runs on an infeasible plan as well
            ss.solve_optimal_frequency(gt, zenith_budget, n_img, rho_th,
                                       gt.platform)
        except InfeasibleConstraintError:
            pass
    assert counts["cdf_lanes"] <= 1.5 * lanes_with_chord


def test_prescan_exact_lane_gate_below_shape_one(monkeypatch, gt_nano_wide,
                                                 nano, zenith_budget):
    """With cv 0.9 and image_sigma 1 the pooled shapes fall below 1, where
    the tangent bracket settles nothing; the series bracket settles every
    pre-scan lane, so no lane runs the chords or the exact CDF."""
    assert gt_nano_wide.grid_values.shapes.max() < 1.0
    counts = _count_plan_work(monkeypatch)
    chord_lanes = _count_chord_lanes(monkeypatch)
    ss.select_and_price("gamma", gt_nano_wide, zenith_budget, 1, RHO, nano)
    assert counts["cdf_lanes"] == 0 and sum(chord_lanes) == 0


@pytest.mark.parametrize("n_img", [2, 3])
def test_prescan_series_bracket_settles_shapes_below_the_cutoff(
        monkeypatch, gt_nano_wide, nano, zenith_budget, n_img):
    """The batch shapes of these plans lie between 1 and the series cutoff,
    where the tangent and chord bounds are loose; the lanes the tangent
    leaves in doubt take the series bracket, and none runs the exact CDF
    (171 and 182 lanes did with the cutoff at 1)."""
    batch = n_img * gt_nano_wide.grid_values.shapes
    assert 1.0 <= batch.min() and batch.max() < kernels._SERIES_CUTOFF
    counts = _count_plan_work(monkeypatch)
    sel = ss.select_and_price("gamma", gt_nano_wide, zenith_budget, n_img,
                              RHO, nano)
    assert sel.frequency_hz > nano.f_min_hz
    assert counts["cdf_lanes"] == 0


@pytest.mark.parametrize("method", ["gamma", "cantelli"])
def test_one_shape_solve_per_probe_gate(monkeypatch, method, gt_nano, nano,
                                        zenith_budget):
    """No probe and no pricing on the ground truth solves the pooled-shape
    equation: the ground truth interpolates its kept grid shapes."""
    counts = _count_plan_work(monkeypatch)
    sel = ss.select_and_price(method, gt_nano, zenith_budget, 3, RHO, nano)
    assert sel.frequency_hz > nano.f_min_hz
    assert counts["probes"] <= 8
    assert counts["shape_solves"] == 0 and counts["grid_shape_solves"] == 0


# ---------------------------------------------------------------- pre-scan bounds

def test_screen_below_shape_one_skips_the_tangent_terms(
        monkeypatch, gt_nano_wide, nano, zenith_budget):
    """On the shapes-below-1 plan (nano, cv 0.9, image_sigma 1, zenith,
    n_img 1) the tangent bracket is trivial on every lane, so the screen
    computes no tangent terms, and its flags are still the exact CDF's."""
    terms = []
    tangent_terms = kernels._tangent_terms

    def counted(a, x):
        terms.append(a.shape[0])
        return tangent_terms(a, x)

    monkeypatch.setattr(kernels, "_tangent_terms", counted)
    shape, scale = (gt_nano_wide.grid_values.shapes,
                    gt_nano_wide.grid_values.scales)
    t_proc = zenith_budget.t_proc_s
    assert shape.max() < 1.0
    flags, _ = kernels.reg_lower_gamma_at_least(shape, t_proc / scale, RHO)
    assert np.array_equal(flags, ss.gamma_cdf(t_proc, shape, scale) >= RHO)
    sel = ss.select_and_price("gamma", dataclasses.replace(gt_nano_wide),
                              zenith_budget, 1, RHO, nano)
    assert sel.frequency_hz > nano.f_min_hz
    assert terms == []
    # a grid with one lane at shape 1 or above computes them
    kernels.reg_lower_gamma_at_least(np.append(shape, 1.0),
                                     np.append(t_proc / scale, 1.0), RHO)
    assert terms == [shape.size + 1]


def _count_screens(monkeypatch):
    """Count from here on the gamma pre-scan's screen calls and lanes (calls
    of kernels.reg_lower_gamma_at_least), and keep every GridValues a
    pre-scan consults."""
    counts = {"calls": 0, "lanes": 0, "stores": {}}
    screen = kernels.reg_lower_gamma_at_least
    flags = ss.scheduler.GridValues.gamma_flags

    def counted_screen(a, x, p):
        counts["calls"] += 1
        counts["lanes"] += a.shape[0]
        return screen(a, x, p)

    def kept_store(self, *args):
        counts["stores"][id(self)] = self
        return flags(self, *args)

    monkeypatch.setattr(kernels, "reg_lower_gamma_at_least", counted_screen)
    monkeypatch.setattr(ss.scheduler.GridValues, "gamma_flags", kept_store)
    return counts


def _bounded_keys(store):
    # the keys of a GridValues that keep per-lane arrays
    return [key for key, entry in store._keys.items() if entry[2] is not None]


def test_plan_stream_screen_gate(monkeypatch, scenario):
    """200 plan-stream blocks (both planners per request, seeded cell order,
    elevations uniform in 20-90 degrees) on fresh default ground truths:
    with the pre-scan bounds the gamma pre-scans make at most 0.25 screen
    calls and screen at most 32 lanes per request (one call and
    GRID_POINTS_DEFAULT lanes without them)."""
    truths = {p.name: ss.ground_truth_for(scenario, i)
              for i, p in enumerate(scenario.platforms)}
    moments = {name: ss.MomentModel.from_shape_scale_model(gt)
               for name, gt in truths.items()}
    counts = _count_screens(monkeypatch)
    rng = np.random.default_rng(20261022)
    requests = 0
    for _ in range(200):
        order = rng.permutation(len(PLAN_STREAM_BLOCK))
        elevations = rng.uniform(20.0, 90.0, len(PLAN_STREAM_BLOCK))
        for i, el in zip(order, elevations.tolist()):
            name, n_img = PLAN_STREAM_BLOCK[i]
            budget = ss.budget_from_legs(scenario, ss.comm_legs(scenario, el))
            for method in ("gamma", "cantelli"):
                ss.select_and_price(method, truths[name], budget, n_img,
                                    scenario.rho_th, truths[name].platform,
                                    moments=moments[name])
            requests += 1
    assert counts["calls"] <= 0.25 * requests
    assert counts["lanes"] <= 32 * requests
    # every cell of the block keeps bounds
    assert sum(len(_bounded_keys(gt.grid_values))
               for gt in truths.values()) == len(PLAN_STREAM_BLOCK)


def test_one_off_plans_and_sweeps_keep_no_bounds(monkeypatch, scenario,
                                                 zenith_budget, tmp_path):
    """A one-off gamma plan and the default fig5 sweep (86 elevations from
    90 down to 5 degrees, so every plan's t_proc is a new low for its key)
    screen GRID_POINTS_DEFAULT lanes in one call per gamma plan and
    allocate no bounds."""
    counts = _count_screens(monkeypatch)
    solve = ss.scheduler.solve_optimal_frequency
    gamma_plans = []

    def counted_solve(*args):
        gamma_plans.append(args[1].t_proc_s)
        return solve(*args)

    monkeypatch.setattr(ss.scheduler, "solve_optimal_frequency",
                        counted_solve)
    gt = ss.ground_truth_for(scenario, 0)
    ss.select_and_price("gamma", gt, zenith_budget, 3, RHO, gt.platform)
    assert counts["calls"] == 1
    assert counts["lanes"] == ss.scheduler.GRID_POINTS_DEFAULT
    sweep = scenario.elevation_sweep_deg
    assert len(sweep) == 86 and list(sweep) == sorted(sweep, reverse=True)
    ss.run_fig5(scenario, str(tmp_path))
    assert len(gamma_plans) > 300
    assert counts["calls"] == len(gamma_plans)
    assert counts["lanes"] == (len(gamma_plans)
                               * ss.scheduler.GRID_POINTS_DEFAULT)
    stores = list(counts["stores"].values())
    assert len(stores) == 1 + len(scenario.platforms)
    assert all(s._keys and not _bounded_keys(s) for s in stores)


def test_bounds_keep_at_most_the_cap_of_keys(scenario):
    """1000 distinct rho_th on one model, each planned at three budgets, the
    middle one last so that every key keeps bounds: the model keeps the
    ``_BOUND_KEYS`` keys planned last."""
    gt = ss.ground_truth_for(scenario, 0)
    budgets = [ss.LatencyBudget(t, 0.0, 0.0, 0.0) for t in (0.2, 0.6, 0.4)]
    rhos = np.linspace(0.5, 0.99, 1000).tolist()
    for rho_th in rhos:
        for budget in budgets:
            _plan_or_reliability(ss.solve_optimal_frequency, gt, budget, 3,
                                 rho_th, gt.platform)
    store = gt.grid_values
    cap = ss.scheduler._BOUND_KEYS
    assert list(store._keys) == [(3, r) for r in rhos[-cap:]]
    assert len(_bounded_keys(store)) == cap


def test_bounds_skip_lanes_the_screen_leaves_near_rho_th(
        monkeypatch, gt_nano, zenith_budget):
    """A lane whose exact P lies within two screen margins of rho_th is not
    settled, so it bounds nothing: rho_th here is one lane's exact P at
    t0, and every screen at t0 (at activation, of every lane, of the lane
    alone) leaves that lane unbounded while the flags stay the full
    screen's. Every other lane is bounded at t0 itself, so a plan at t0
    again screens that lane alone, and one at another t_proc screened
    before screens nothing."""
    screened = []
    screen = ss.scheduler.GridValues._screen

    def counted(self, n_img, rho_th, t_proc, lanes=None):
        screened.append(None if lanes is None else lanes.tolist())
        return screen(self, n_img, rho_th, t_proc, lanes)

    monkeypatch.setattr(ss.scheduler.GridValues, "_screen", counted)
    nano = gt_nano.platform
    shapes, scales = gt_nano.grid_values.shapes, gt_nano.grid_values.scales
    n_img, t0 = 3, zenith_budget.t_proc_s
    cdf = kernels.reg_lower_gamma_arr(n_img * shapes, t0 / scales)
    lane = int(np.argmin(np.abs(cdf - RHO)))  # the lane nearest the quantile
    rho_th = float(cdf[lane])
    assert abs(rho_th - RHO) < 0.01
    bounds = ss.scheduler.GridValues(nano.f_min_hz, nano.f_max_hz, shapes,
                                     scales)
    plans = (0.9 * t0, 1.1 * t0, t0, t0, 1.05 * t0, t0, 1.05 * t0)
    for t_proc in plans:
        got = bounds.gamma_flags(n_img, rho_th, t_proc)
        want, settled = kernels.reg_lower_gamma_at_least(
            n_img * shapes, t_proc / scales, rho_th)
        assert np.array_equal(got, want), t_proc
        if t_proc == t0:
            assert got[lane] and not settled[lane]
    # full screens up to the activation at t0, then t0 screens the one lane
    # each time; 1.05 t0 screens every lane in doubt above t0, then nothing
    assert screened == [None, None, None, [lane], None, [lane]]
    t_lo, t_hi = bounds._keys[n_img, rho_th][2]
    assert t_lo[lane] == -math.inf and t_hi[lane] == 1.05 * t0
    # activated elsewhere, the first plan at t0 screens every lane in
    # doubt, and leaves the lane unbounded there too
    bounds = ss.scheduler.GridValues(nano.f_min_hz, nano.f_max_hz, shapes,
                                     scales)
    screened.clear()
    for t_proc in (0.9 * t0, 1.1 * t0, 0.95 * t0, t0, t0):
        got = bounds.gamma_flags(n_img, rho_th, t_proc)
        want, _ = kernels.reg_lower_gamma_at_least(
            n_img * shapes, t_proc / scales, rho_th)
        assert np.array_equal(got, want), t_proc
    assert screened == [None, None, None, None, [lane]]
    t_lo, t_hi = bounds._keys[n_img, rho_th][2]
    assert t_lo[lane] == math.nextafter(0.95 * t0, math.inf)
    assert t_hi[lane] == math.inf


def _fitted_non_monotone(scenario, gt, budget):
    """The first ten-image fig3 fit of ``gt`` whose gamma plan at
    ``budget`` is non_monotone."""
    platform = gt.platform
    freqs = ss.fit_frequency_grid(platform, scenario.fit_n_frequencies)
    n_img = scenario.fig3_n_img[platform.name]
    for k in range(100):
        rng = ss.stream(scenario.seed, scenario.bit_generator,
                        ss.NS_SUBSET_STUDY, 0, 10, k)
        model = ss.run_subset_replicate(
            gt, gt.image_ids, 10, freqs, budget, n_img, scenario.rho_th,
            platform, rng, scenario.fit_degree, keep_model=True).model
        if model is None:
            continue
        plan = _plan_or_reliability(ss.solve_optimal_frequency, model,
                                    budget, n_img, scenario.rho_th,
                                    platform)
        if not isinstance(plan, float) and plan.non_monotone:
            return model
    raise AssertionError("no non-monotone fit among 100 replicates")


def test_prescan_bounds_are_sound(monkeypatch, scenario, gt_nano_wide,
                                  zenith_budget):
    """Seeded streams of gamma plans in random order, keys interleaved, and
    t_proc both drawn again and again from a few values per key and fresh
    between them, on the default ground truth, the shapes-below-1 one, a
    constant-variance one and a fitted model whose flags are non-monotone;
    rho_th in {0.01, 0.5, 0.95, 0.99} and n_img 1-12. Every pre-scan flag,
    whether screened, gathered or read off the bounds, equals
    reg_lower_gamma_at_least's on the kept grid values, on every lane, and
    every plan equals the one made on a fresh copy of its model."""
    nano = scenario.platform_named("nano")
    truths = {
        "default": ss.ground_truth_for(scenario, 0),
        "below one": dataclasses.replace(gt_nano_wide),
        "constant": ss.synthesize_ground_truth(
            nano, 0.3, scenario.gt_n_images,
            ss.stream(scenario.seed, scenario.bit_generator,
                      ss.NS_GROUND_TRUTH, 0),
            variance_model="constant"),
    }
    fitted = _fitted_non_monotone(scenario, truths["default"], zenith_budget)
    screens = {"skipped": 0, "gathered": 0, "full": 0}
    flags_fn = ss.scheduler.GridValues.gamma_flags
    screen_fn = ss.scheduler.GridValues._screen

    calls = []

    def counted_screen(self, *args):
        calls.append(args)
        return screen_fn(self, *args)

    def checked_flags(self, n_img, rho_th, t_proc):
        calls.clear()
        got = flags_fn(self, n_img, rho_th, t_proc).copy()
        want, _ = kernels.reg_lower_gamma_at_least(
            n_img * self.shapes, t_proc / self.scales, rho_th)
        assert np.array_equal(got, want), (n_img, rho_th, t_proc)
        kind = ("skipped" if not calls
                else "full" if len(calls[0]) == 3 else "gathered")
        screens[kind] += 1
        return got

    monkeypatch.setattr(ss.scheduler.GridValues, "_screen", counted_screen)
    monkeypatch.setattr(ss.scheduler.GridValues, "gamma_flags",
                        checked_flags)
    rng = np.random.default_rng(20261023)
    rhos = (0.01, 0.5, 0.95, 0.99)
    models = list(truths.items()) + [("fitted", fitted)]
    plans = non_monotone = 0
    for m, (label, model) in enumerate(models):
        # per-image means on the grid, from the kept shapes and scales
        means = model.grid_values.shapes * model.grid_values.scales
        stream = []
        for k, rho_th in enumerate(rhos * 2):
            n_img = 1 + (3 * (2 * m + k) + m) % 12
            # t_proc near the batch mean somewhere on the grid: half of
            # them a few values drawn again and again, half fresh draws
            # between those
            pool = (n_img * means[rng.integers(0, means.size, 4)]
                    * rng.uniform(1.0, 1.5, 4))
            fresh = rng.uniform(pool.min(), pool.max(), 24)
            stream += [(n_img, rho_th, t) for t in
                       rng.choice(pool, 12).tolist() + fresh.tolist()]
        rng.shuffle(stream)
        for n_img, rho_th, t_proc in stream:
            budget = ss.LatencyBudget(t_proc, 0.0, 0.0, 0.0)
            got = _plan_or_reliability(ss.solve_optimal_frequency, model,
                                       budget, n_img, rho_th, nano)
            want = _plan_or_reliability(
                ss.solve_optimal_frequency, dataclasses.replace(model),
                budget, n_img, rho_th, nano)
            assert got == want, (label, n_img, rho_th, t_proc)
            plans += 1
            non_monotone += getattr(got, "non_monotone", False)
    assert plans == 4 * 8 * 36 and non_monotone > 0
    assert min(screens.values()) >= 100, screens


# ---------------------------------------------------------------- boundary search

def _reference_bisection(score, flags, rho_th, f_min_hz, f_max_hz, what):
    """Plain bisection from the same pre-scan cell to the same tolerance."""
    grid = np.linspace(f_min_hz, f_max_hz, ss.scheduler.GRID_POINTS_DEFAULT)
    feasible_idx = np.flatnonzero(flags(grid))
    if feasible_idx.size == 0:
        raise InfeasibleConstraintError(
            what, achievable_reliability=float(score(f_max_hz)))
    first = int(feasible_idx[0])
    if first == 0:
        return float(f_min_hz)
    lo, hi = float(grid[first - 1]), float(grid[first])
    tol = ss.scheduler._BRACKET_REL_TOL * (f_max_hz - f_min_hz)
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if score(mid) >= rho_th:
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

    def compared(score, flags, rho_th, f_min_hz, f_max_hz, what):
        ref = _outcome(_reference_bisection, score, flags, rho_th, f_min_hz,
                       f_max_hz, what)
        probes = []

        def counted(f_hz):
            probes.append(f_hz)
            return score(f_hz)

        got = _outcome(search, counted, flags, rho_th, f_min_hz, f_max_hz,
                       what)
        if isinstance(ref, InfeasibleConstraintError):
            assert isinstance(got, InfeasibleConstraintError)
            assert got.achievable_reliability == ref.achievable_reliability
            raise got
        span = f_max_hz - f_min_hz
        tol = ss.scheduler._BRACKET_REL_TOL * span
        assert isinstance(got, ss.FrequencySolution)
        assert abs(got.frequency_hz - ref) <= 1e-9 * span
        assert got.predicted_reliability == score(got.frequency_hz)
        assert got.predicted_reliability >= rho_th
        if got.frequency_hz > f_min_hz:
            assert score(got.frequency_hz - tol) < rho_th
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
N_GRID = ss.scheduler.GRID_POINTS_DEFAULT
GRID = np.linspace(F_MIN, F_MAX, N_GRID)
CELL = GRID[1] - GRID[0]
# a grid point in the upper half, and the cell above the middle point
UPPER, MID = N_GRID * 3 // 5, N_GRID // 2
TOL = ss.scheduler._BRACKET_REL_TOL * SPAN


def _search(score, rho_th):
    """Boundary search over the box on a vectorized score; returns the
    solution and the float probes it made."""
    probes = []

    def probe(f_hz):
        probes.append(f_hz)
        return float(score(f_hz))

    sol = ss.scheduler._boundary_search(
        probe, lambda grid: score(grid) >= rho_th, rho_th, F_MIN, F_MAX,
        "hand-made score")
    return sol, probes


@pytest.mark.parametrize("rho_th", [0.05, 0.5, 0.95, 0.999])
def test_boundary_search_worst_case_probe_gate(rho_th):
    """On a step and on a flat plateau, where interpolation learns nothing,
    the search makes at most twice the float probes of plain bisection
    plus the two cell-end scores, and still returns the bracket
    certificate."""
    bound = 2 * math.ceil(math.log2(CELL / TOL)) + 2
    assert bound == 46
    for frac in np.linspace(0.001, 0.999, 23):
        r = GRID[UPPER] + frac * CELL
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
        r = GRID[MID] + frac * CELL
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

    def score(f_hz):
        probes.append(f_hz)
        return float_score

    sol = ss.scheduler._boundary_search(
        score, lambda grid: grid >= GRID[MID], RHO, F_MIN, F_MAX, "grid")
    assert sol.predicted_reliability == float_score
    if float_score >= RHO:
        assert GRID[MID - 1] < sol.frequency_hz <= GRID[MID - 1] + TOL
    else:
        assert sol.frequency_hz == GRID[MID]
    assert len(probes) <= 40
