"""Execution-time learning: least-squares moments, per-frequency MLE plus
polynomial regression, subset studies, deadline-miss scoring."""

import math

import numpy as np
import pytest

import satsched as ss
from satsched.errors import DomainError, EstimationError


def _noiseless_samples(platform, n_freq=10):
    freqs = ss.fit_frequency_grid(platform, n_freq)
    return [ss.ExecSample(float(f), float(ss.mean_exec_time(float(f), platform)), i)
            for i, f in enumerate(freqs)]


@pytest.fixture(scope="module")
def homogeneous_gt(scenario, nano):
    # no per-image dispersion: the pooled law is exactly the per-image law,
    # which is the regime where the regression diagnostics are meaningful
    rng = ss.stream(scenario.seed, scenario.bit_generator, 7, 0)
    return ss.synthesize_ground_truth(nano, 0.10, 56, rng, image_sigma=0.0,
                                      variance_model="structural")


@pytest.fixture(scope="module")
def dense_samples(scenario, homogeneous_gt, nano):
    """1000 passes over the image set at 15 frequencies."""
    freqs = ss.fit_frequency_grid(nano, 15)
    rng = ss.stream(scenario.seed, scenario.bit_generator, 7, 1)
    ids = np.arange(homogeneous_gt.n_images)
    out = {}
    for f in freqs:
        chunks = [homogeneous_gt.sample_image_times(ids, float(f), rng)
                  for _ in range(1000)]
        out[float(f)] = np.concatenate(chunks)
    return out


# -------------------------------------------------------- BSP moment fitting

def test_bsp_recovers_exact_linear_model(nano):
    mu_c, mu_sync = ss.estimate_bsp_moments(_noiseless_samples(nano), nano)
    assert abs(mu_c - 1.071) < 1e-9
    assert abs(mu_sync - 17.48e-3) < 1e-9


def test_bsp_equals_degree_one_polyfit(nano):
    samples = _noiseless_samples(nano)
    mu_c, mu_sync = ss.estimate_bsp_moments(samples, nano)
    g = np.array([nano.work_flops / (nano.n_cores * nano.n_flops * s.frequency_hz)
                  for s in samples])
    t = np.array([s.time_s for s in samples])
    poly = ss.polyfit(g, t, 1)
    assert abs(mu_sync - poly.coefficients[0]) < 1e-9
    assert abs(mu_c - poly.coefficients[1]) < 1e-9


def test_bsp_with_noise_on_ten_thousand_samples(scenario, nano):
    rng = ss.stream(scenario.seed, scenario.bit_generator, 9, 3)
    freqs = ss.fit_frequency_grid(nano, 8)
    samples = []
    for f in freqs:
        m = ss.mean_exec_time(float(f), nano)
        for t in rng.normal(m, 0.05 * m, 1250):
            samples.append(ss.ExecSample(float(f), abs(float(t)), 0))
    mu_c, mu_sync = ss.estimate_bsp_moments(samples, nano)
    assert abs(mu_c - nano.mu_c) / nano.mu_c < 0.01


def test_bsp_rejects_single_frequency(nano):
    f = nano.f_max_hz
    samples = [ss.ExecSample(f, 0.06, 0), ss.ExecSample(f, 0.061, 1)]
    with pytest.raises(EstimationError):
        ss.estimate_bsp_moments(samples, nano)


def test_exec_sample_validation(nano):
    with pytest.raises(DomainError):
        ss.ExecSample(nano.f_max_hz, -0.01, 0)
    with pytest.raises(DomainError):
        ss.ExecSample(nano.f_max_hz, 0.0, 0)


# ----------------------------------------------------------- frequency model

def test_model_regression_diagnostics(dense_samples):
    model = ss.fit_frequency_model(dense_samples, degree=3)
    assert model.r2_shape > 0.99
    assert model.r2_scale > 0.95
    assert model.degree == 3
    assert len(model.per_frequency_fits) == 15


def test_model_flat_ground_truth_kills_high_order_terms(scenario, nano):
    # constant-variance mode: shape is 1/cv^2 at every clock
    rng = ss.stream(scenario.seed, scenario.bit_generator, 7, 2)
    gt = ss.synthesize_ground_truth(nano, 0.10, 56, rng, image_sigma=0.0,
                                    variance_model="constant")
    freqs = ss.fit_frequency_grid(nano, 8)
    shapes = np.array([gt.shape_at(float(f)) for f in freqs])
    assert np.allclose(shapes, 100.0, rtol=1e-12)
    poly = ss.polyfit(freqs / nano.f_max_hz, shapes, 3)
    c0 = poly.coefficients[0]
    for c in poly.coefficients[1:]:
        assert abs(c) < 1e-6 * abs(c0)


def test_model_held_out_frequency(scenario, homogeneous_gt, dense_samples, nano):
    freqs = sorted(dense_samples)
    hold = freqs[7]
    train = {f: v for f, v in dense_samples.items() if f != hold}
    model = ss.fit_frequency_model(train, degree=3)
    rng = ss.stream(scenario.seed, scenario.bit_generator, 7, 2)
    ids = np.arange(homogeneous_gt.n_images)
    draws = np.concatenate([homogeneous_gt.sample_image_times(ids, hold, rng)
                            for _ in range(179)])[:10_000]
    direct = ss.fit_gamma_mle(draws)
    assert abs(float(model.shape_at(hold)) - direct.shape) / direct.shape < 0.05
    assert abs(float(model.scale_at(hold)) - direct.scale) / direct.scale < 0.05


def test_model_positivity_guard():
    # a fitted curve that dips nonpositive anywhere on the clock range is
    # rejected at construction
    good = ss.Polynomial((1.0, 0.0))
    dips = ss.Polynomial((1.0, -2.0))
    with pytest.raises(EstimationError):
        ss.FrequencyModel(shape_poly=dips, scale_poly=good,
                          per_frequency_fits={}, degree=1,
                          r2_shape=1.0, r2_scale=1.0,
                          domain_lo_hz=0.0, domain_hi_hz=1.0)
    with pytest.raises(EstimationError):
        ss.FrequencyModel(shape_poly=good, scale_poly=dips,
                          per_frequency_fits={}, degree=1,
                          r2_shape=1.0, r2_scale=1.0,
                          domain_lo_hz=0.0, domain_hi_hz=1.0)


def _model(shape_poly, scale_poly, lo_hz, hi_hz):
    return ss.FrequencyModel(shape_poly=shape_poly, scale_poly=scale_poly,
                             per_frequency_fits={}, degree=2, r2_shape=1.0,
                             r2_scale=1.0, domain_lo_hz=lo_hz,
                             domain_hi_hz=hi_hz)


@pytest.mark.parametrize("far_roots,sign", [
    ((), 1.0),             # a linear derivative
    ((-1.0,), 1.0),        # the closed-form quadratic derivative
    ((-1.0, 1.5), -1.0),   # numpy.roots on the derivative
], ids=["quadratic", "cubic", "quartic"])
def test_model_positivity_guard_finds_a_dip_inside_one_grid_cell(far_roots,
                                                                 sign):
    """The check is exact, not a sample on the planner grid: a curve whose
    one dip below zero is half a planner-grid cell wide and lies between
    two grid points, positive at every grid point, is rejected."""
    n_grid = ss.scheduler.GRID_POINTS_DEFAULT
    grid = ss.scheduler.planner_grid(0.0, 1.0)
    cell = float(grid[1] - grid[0])
    g = float(grid[n_grid // 2]) + 0.5 * cell
    half = 0.25 * cell
    # (f - g)^2 - half^2, times factors that stay one sign on [0, 1]
    roots = [g - half, g + half] + [g + r for r in far_roots]
    dips = ss.Polynomial(tuple(
        sign * np.polynomial.polynomial.polyfromroots(roots)))
    assert dips(grid).min() > 0.0 > dips(g)
    good = ss.Polynomial((1.0,))
    with pytest.raises(EstimationError):
        _model(dips, good, 0.0, 1.0)
    with pytest.raises(EstimationError):
        _model(good, dips, 0.0, 1.0)
    # lifted clear of zero, the same curve passes
    lifted = ss.Polynomial((dips.coefficients[0] - 2.0 * dips(g),)
                           + dips.coefficients[1:])
    assert _model(lifted, lifted, 0.0, 1.0).shape_poly == lifted


def test_model_positivity_guard_rejects_overflow():
    # positive everywhere, and past the largest float on the grid
    huge = ss.Polynomial((1e308, 1e308))
    with np.errstate(over="ignore"):
        assert np.isinf(huge(ss.scheduler.planner_grid(1.0, 2.0))).any()
        with pytest.raises(EstimationError):
            _model(huge, ss.Polynomial((1.0,)), 1.0, 2.0)


def test_model_positivity_guard_narrow_domain_plans_through_the_mask(
        scenario, gt_nano, nano, zenith_budget):
    """A model fitted over part of the platform range (what ``satsched
    fit`` builds from a log) keeps its values on its own grid, so a plan
    on the platform grid evaluates the polynomials and masks the lanes
    where they fail. Its plan equals one on a copy of the model that keeps
    nothing, and the lanes past the fitted range count as infeasible."""
    lo, hi = 1.2 * nano.f_min_hz, 0.8 * nano.f_max_hz
    freqs = np.linspace(lo, hi, 8)
    rng = ss.stream(scenario.seed, scenario.bit_generator, 7, 9)
    times = gt_nano.sample_image_times(np.arange(400) % gt_nano.n_images,
                                       freqs, rng)
    fitted = ss.fit_frequency_model(dict(zip(freqs.tolist(), times)))
    assert (fitted.domain_lo_hz, fitted.domain_hi_hz) == (lo, hi)
    grid = ss.scheduler.planner_grid(nano.f_min_hz, nano.f_max_hz)
    assert not fitted.grid_values.on(nano)

    class Polynomials:  # a model's fitted curves, nothing kept
        grid_values = None

        def __init__(self, model):
            self.model = model

        def shape_at(self, f_hz):
            return self.model.shape_poly(f_hz)

        def scale_at(self, f_hz):
            return self.model.scale_poly(f_hz)

        def shape_scale_at(self, f_hz):
            return self.shape_at(f_hz), self.scale_at(f_hz)

    # the second shape turns negative past the fitted range (zero at
    # 1.1 hi): those lanes are masked, not raised on
    falling = _model(ss.Polynomial((50.0, -50.0 / (1.1 * hi))),
                     fitted.scale_poly, lo, hi)
    assert (falling.shape_at(grid) <= 0.0).any()
    plans = [ss.solve_optimal_frequency(model, zenith_budget, 3, 0.95, nano)
             for model in (fitted, falling)]
    assert plans == [ss.solve_optimal_frequency(Polynomials(model),
                                                zenith_budget, 3, 0.95, nano)
                     for model in (fitted, falling)]
    assert nano.f_min_hz < plans[0].frequency_hz < hi
    plan = plans[1]
    assert plan.non_monotone and plan.frequency_hz < 1.1 * hi


def test_model_rejects_underdetermined_input(scenario, homogeneous_gt, nano):
    rng = ss.stream(scenario.seed, scenario.bit_generator, 7, 3)
    ids = np.arange(homogeneous_gt.n_images)
    freqs = ss.fit_frequency_grid(nano, 3)
    few = {float(f): homogeneous_gt.sample_image_times(ids, float(f), rng)
           for f in freqs}
    with pytest.raises((DomainError, EstimationError)):
        ss.fit_frequency_model(few, degree=3)
    sparse = {float(f): np.array([0.05])
              for f in ss.fit_frequency_grid(nano, 8)}
    with pytest.raises((DomainError, EstimationError)):
        ss.fit_frequency_model(sparse, degree=3)


def test_moment_model_mean_closure_matches_bsp(scenario, nano):
    # noiseless per-frequency samples: the fitted mean curve must reproduce
    # the generating model
    rng = ss.stream(scenario.seed, scenario.bit_generator, 7, 4)
    by_freq = {}
    for f in ss.fit_frequency_grid(nano, 8):
        m = ss.mean_exec_time(float(f), nano)
        by_freq[float(f)] = np.abs(rng.normal(m, 0.02 * m, 400))
    mom = ss.fit_moment_model(by_freq, nano, degree=3)
    for f in (nano.f_min_hz, 0.6 * nano.f_max_hz, nano.f_max_hz):
        pred = float(mom.mean_fn(f))
        true = ss.mean_exec_time(f, nano)
        assert abs(pred - true) / true < 0.01
        assert float(mom.variance_fn(f)) >= 0.0


def test_moment_model_from_shape_scale(gt_nano, nano):
    mom = ss.MomentModel.from_shape_scale_model(gt_nano)
    f = 0.7 * nano.f_max_hz
    a = float(gt_nano.shape_at(f))
    t = float(gt_nano.scale_at(f))
    assert float(mom.mean_fn(f)) == pytest.approx(a * t, rel=1e-12)
    assert float(mom.variance_fn(f)) == pytest.approx(a * t * t, rel=1e-12)


# --------------------------------------------------------------- draw_subset

def test_subset_oversampling_is_legal(gt_nano):
    rng = ss.generator_from(ss.child_seed(5, 0))
    picks = ss.draw_subset(gt_nano.image_ids, 3 * gt_nano.n_images, rng)
    assert len(picks) == 3 * gt_nano.n_images
    assert all(0 <= i < gt_nano.n_images for i in picks)


def test_subset_seeded_determinism(gt_nano):
    a = ss.draw_subset(gt_nano.image_ids, 40, ss.generator_from(ss.child_seed(5, 1)))
    b = ss.draw_subset(gt_nano.image_ids, 40, ss.generator_from(ss.child_seed(5, 1)))
    assert list(a) == list(b)


def test_subset_uniformity(scenario, gt_nano):
    rng = ss.stream(scenario.seed, scenario.bit_generator, 9, 2)
    picks = np.array(ss.draw_subset(gt_nano.image_ids, 100_000, rng))
    counts = np.bincount(picks, minlength=gt_nano.n_images)
    p = 1.0 / gt_nano.n_images
    sigma = math.sqrt(p * (1 - p) / 100_000)
    assert np.max(np.abs(counts / 100_000 - p)) < 3 * sigma


def test_subset_rejects_empty_dataset():
    with pytest.raises(DomainError):
        ss.draw_subset([], 5, ss.generator_from(ss.child_seed(5, 2)))


# ---------------------------------------------------------- miss probability

def test_miss_probability_self_consistency(gt_nano, zenith_budget, nano, scenario):
    f_star = ss.solve_optimal_frequency(
        gt_nano, zenith_budget, 4, scenario.rho_th, nano).frequency_hz
    p_miss = ss.miss_probability(f_star, gt_nano, zenith_budget.t_proc_s, 4)
    assert abs(p_miss - (1.0 - scenario.rho_th)) < 1e-6


def test_miss_probability_saturates_under_impossible_budget(gt_nano, nano):
    assert ss.miss_probability(nano.f_min_hz, gt_nano, 0.05, 8) == pytest.approx(1.0, abs=1e-12)


def test_miss_probability_is_one_minus_priced_reliability(
        scenario, gt_nano, gt_agx, zenith_budget):
    """miss_probability and select_and_price price a clock with one batch
    law, so they agree to the last bit at the planner's choice."""
    for gt in (gt_nano, gt_agx):
        n_img = scenario.fig3_n_img[gt.platform.name]
        for method in ("gamma", "cantelli"):
            priced = ss.select_and_price(method, gt, zenith_budget, n_img,
                                         scenario.rho_th, gt.platform)
            p_miss = ss.miss_probability(priced.frequency_hz, gt,
                                         zenith_budget.t_proc_s, n_img)
            assert p_miss == 1.0 - priced.reliability


class _LawAndDrawsOnly:
    """The ground-truth contract of the estimation module and nothing more."""

    def __init__(self, gt):
        self.law_at = gt.law_at
        self.sample_image_times = gt.sample_image_times


def test_replicate_needs_only_law_at_and_sample_image_times(
        scenario, gt_nano, zenith_budget, nano):
    freqs = ss.fit_frequency_grid(nano, scenario.fit_n_frequencies)
    reps = [ss.run_subset_replicate(
        gt, gt_nano.image_ids, 30, freqs, zenith_budget,
        scenario.fig3_n_img["nano"], scenario.rho_th, nano,
        ss.stream(scenario.seed, scenario.bit_generator, 9, 2))
        for gt in (gt_nano, _LawAndDrawsOnly(gt_nano))]
    assert reps[0] == reps[1]


def test_miss_probability_monte_carlo(scenario, gt_nano, zenith_budget, nano):
    f_star = ss.solve_optimal_frequency(
        gt_nano, zenith_budget, 4, scenario.rho_th, nano).frequency_hz
    p_miss = ss.miss_probability(f_star, gt_nano, zenith_budget.t_proc_s, 4)
    rng = ss.stream(scenario.seed, scenario.bit_generator, 9, 1)
    batch = ss.batch_law(gt_nano.law_at(f_star), 4)
    draws = ss.sample_gamma(batch.shape, batch.scale, rng, size=1_000_000)
    emp = float(np.mean(draws > zenith_budget.t_proc_s))
    sigma = math.sqrt(p_miss * (1 - p_miss) / 1e6)
    assert abs(emp - p_miss) < 3 * sigma


# --------------------------------------------------------- subset-size study

def test_replicates_are_scored_under_ground_truth(subset_study_nano):
    for result in subset_study_nano:
        vals = result.p_miss_values
        assert np.all(vals >= 0.0) and np.all(vals <= 1.0)
        assert len(result.replicates) == 100


def test_study_mean_miss_shrinks_with_sample_size(subset_study_nano):
    by_size = {r.sample_size: r for r in subset_study_nano}
    assert by_size[10].mean_p_miss > by_size[1000].mean_p_miss


def test_study_large_sample_mean_in_band(subset_study_nano, subset_study_agx):
    for study in (subset_study_nano, subset_study_agx):
        for r in study:
            if r.sample_size >= 1000:
                assert 0.03 <= r.mean_p_miss <= 0.07


def _iqr_p_miss(result):
    lo, hi = np.percentile(result.p_miss_values, [25.0, 75.0])
    return float(hi - lo)


def test_study_dispersion_narrows(subset_study_nano):
    by_size = {r.sample_size: r for r in subset_study_nano}
    assert _iqr_p_miss(by_size[10]) > _iqr_p_miss(by_size[1000])
    # monotone trend across the whole ladder, one inversion allowed
    ladder = sorted(by_size)
    iqrs = [_iqr_p_miss(by_size[n]) for n in ladder]
    inversions = sum(1 for a, b in zip(iqrs, iqrs[1:]) if b > a)
    assert inversions <= 1


def test_single_replicate_reproducibility(scenario, gt_nano, zenith_budget, nano):
    freqs = ss.fit_frequency_grid(nano, scenario.fit_n_frequencies)
    runs = []
    for _ in range(2):
        res = ss.sample_size_study(
            gt_nano, gt_nano.image_ids, [300], 1, zenith_budget,
            scenario.fig3_n_img["nano"], scenario.rho_th, nano, freqs,
            scenario.seed, scenario.bit_generator, scenario.fit_degree, 0)
        runs.append(res[0].replicates[0])
    assert runs[0].f_hat_hz == runs[1].f_hat_hz
    assert runs[0].p_miss == runs[1].p_miss


def test_replicate_order_independence(scenario, gt_nano, zenith_budget, nano):
    # per-replicate streams are keyed by (size, k), not drawn sequentially:
    # computing a ladder in one call equals computing each size alone, in
    # any order
    freqs = ss.fit_frequency_grid(nano, scenario.fit_n_frequencies)
    both = ss.sample_size_study(
        gt_nano, gt_nano.image_ids, [30, 100], 3, zenith_budget,
        scenario.fig3_n_img["nano"], scenario.rho_th, nano, freqs,
        scenario.seed, scenario.bit_generator, scenario.fit_degree, 0)
    solo = ss.sample_size_study(
        gt_nano, gt_nano.image_ids, [100, 30], 3, zenith_budget,
        scenario.fig3_n_img["nano"], scenario.rho_th, nano, freqs,
        scenario.seed, scenario.bit_generator, scenario.fit_degree, 0)
    assert [r.p_miss for r in both[1].replicates] == [r.p_miss for r in solo[0].replicates]
    assert [r.p_miss for r in both[0].replicates] == [r.p_miss for r in solo[1].replicates]
