"""Property tests, run under a derandomized Hypothesis profile so that tier-1
draws the same examples on every run."""

import functools
import math

import numpy as np
import pytest

import satsched as ss

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

# the same examples on every run, none stored between runs, no per-example
# deadline on a shared machine
DERANDOMIZED = hypothesis.settings(derandomize=True, database=None,
                                   deadline=None, max_examples=150)

_truths = st.builds(
    lambda name, cv, sigma, variance_model: (name, cv, sigma,
                                             variance_model),
    st.sampled_from(["nano", "agx"]), st.floats(0.001, 0.9),
    st.floats(0.0, 1.0), st.sampled_from(["structural", "constant"]))


def _fresh_truth(scenario, truth):
    # a ground truth built afresh from a _truths draw, on the default
    # scenario's stream for its platform
    name, cv, sigma, variance_model = truth
    pi = [p.name for p in scenario.platforms].index(name)
    return ss.synthesize_ground_truth(
        scenario.platforms[pi], cv, scenario.gt_n_images,
        ss.stream(scenario.seed, scenario.bit_generator, ss.NS_GROUND_TRUTH,
                  pi),
        image_sigma=sigma, variance_model=variance_model)


@DERANDOMIZED
@hypothesis.given(
    truth=_truths, rho_th=st.floats(1e-6, 1.0 - 1e-6),
    n_img=st.integers(1, 1000),
    lanes=st.lists(st.integers(0, ss.scheduler.GRID_POINTS_DEFAULT - 1),
                   min_size=1, max_size=6),
    factors=st.lists(st.floats(0.5, 2.0), min_size=1, max_size=6))
def test_cantelli_band_flags_are_the_formula_on_every_lane(
        scenario, truth, rho_th, n_img, lanes, factors):
    """On a fresh ground truth (cv 0.001-0.9, image_sigma 0-1, both
    variance models), the kept values' Cantelli flags equal the formula's
    on every lane: at t_proc a random factor off a lane's threshold T, at
    T and one float either side of it, at T (1 +- delta), and at the band's
    lo and hi and the float below each."""
    gt = _fresh_truth(scenario, truth)
    values = gt.grid_values
    m, v = n_img * values.means, n_img * values.variances
    delta = (ss.scheduler._BAND_C * 2.0 ** -53
             * (1.0 / rho_th + 1.0 / (1.0 - rho_th)))
    points = []
    for lane in lanes:
        t = float(m[lane] + math.sqrt(v[lane] * rho_th / (1.0 - rho_th)))
        points += [t * f for f in factors]
        points += [t, math.nextafter(t, -math.inf),
                   math.nextafter(t, math.inf), t * (1.0 - delta),
                   t * (1.0 + delta)]
    for t_proc in points:
        got = values.cantelli_flags(n_img, rho_th, t_proc)
        want = ss.scheduler._cantelli_verdict(m, v, t_proc, rho_th)
        assert np.array_equal(got, want), t_proc
    # the band is built on the first plan above; at each lane's own edges
    lo, hi = values._bands[n_img, rho_th]
    for edge in (lo, hi):
        for t_proc in (edge, np.nextafter(edge, -np.inf)):
            for lane in lanes:
                t = float(t_proc[lane])
                got = values.cantelli_flags(n_img, rho_th, t)
                want = ss.scheduler._cantelli_verdict(m, v, t, rho_th)
                assert np.array_equal(got, want), t


@DERANDOMIZED
@hypothesis.given(
    truth=_truths, rho_th=st.floats(0.01, 0.99),
    n_img=st.integers(1, 1000),
    lanes=st.lists(st.integers(0, ss.scheduler.GRID_POINTS_DEFAULT - 1),
                   min_size=1, max_size=2),
    factors=st.lists(st.floats(0.5, 2.0), min_size=1, max_size=4))
# batch shapes below 1 (n_img 1) and between 1 and 4 (n_img 2 and 3) on
# every lane, at the default and a low rho_th
@hypothesis.example(truth=("nano", 0.9, 1.0, "structural"), rho_th=0.95,
                    n_img=1, lanes=[0, 200], factors=[0.9, 1.3])
@hypothesis.example(truth=("nano", 0.9, 1.0, "structural"), rho_th=0.1,
                    n_img=2, lanes=[100], factors=[0.7, 1.1])
@hypothesis.example(truth=("agx", 0.9, 1.0, "constant"), rho_th=0.3,
                    n_img=3, lanes=[255], factors=[1.0, 1.6])
def test_gamma_flags_are_the_exact_kernels_on_every_lane(
        scenario, truth, rho_th, n_img, lanes, factors):
    """On a fresh ground truth (cv 0.001-0.9, image_sigma 0-1, both
    variance models, so batch shapes below 1, between 1 and 4 and far
    above), the kept values' gamma pre-scan flags equal the exact kernel's
    on every lane, plan after plan on one key: at t_proc a random factor
    off a lane's batch mean, at the lane's rho_th quantile and one float
    either side of it, and then at each of those again in reverse order."""
    gt = _fresh_truth(scenario, truth)
    values = gt.grid_values
    a = n_img * values.shapes
    points = []
    for lane in lanes:
        mean = float(a[lane] * values.scales[lane])
        points += [mean * f for f in factors]
        t = float(values.scales[lane]
                  * ss.kernels.gamma_quantile_unit(rho_th, float(a[lane])))
        points += [t, math.nextafter(t, -math.inf),
                   math.nextafter(t, math.inf)]
    want = {t: ss.kernels.reg_lower_gamma_arr(a, t / values.scales) >= rho_th
            for t in points}
    for t_proc in points + points[::-1]:
        got = values.gamma_flags(n_img, rho_th, t_proc)
        assert np.array_equal(got, want[t_proc]), t_proc


@hypothesis.settings(DERANDOMIZED, max_examples=100)
@hypothesis.given(
    truth=_truths, ends=st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)),
    n_img=st.integers(1, 12), rho_th=st.floats(0.05, 0.99),
    budget_factor=st.floats(0.8, 1.6),
    method=st.sampled_from(["gamma", "cantelli"]))
def test_sub_range_fit_plans_inside_its_range(
        scenario, truth, ends, n_img, rho_th, budget_factor, method):
    """A model polyfitted to a fresh ground truth's shapes and scales at 8
    clocks spread over a random part of the platform range (at least a
    twentieth of it; no sampling) is planned by either planner inside that
    part: a feasible plan's clock lies in it, its predicted reliability is
    at least rho_th, and unless it is the part's low end, the model's score
    1e-9 of the part's span below it misses rho_th. t_proc is the batch
    mean at the part's middle times a random factor."""
    gt = _fresh_truth(scenario, truth)
    platform = gt.platform
    a, b = sorted(ends)
    hypothesis.assume(b - a >= 0.05)
    span = platform.f_max_hz - platform.f_min_hz
    lo, hi = platform.f_min_hz + a * span, platform.f_min_hz + b * span
    clocks = np.linspace(lo, hi, 8)
    model = ss.FrequencyModel(
        shape_poly=ss.polyfit(clocks, gt.shape_at(clocks), 3),
        scale_poly=ss.polyfit(clocks, gt.scale_at(clocks), 3),
        per_frequency_fits={}, degree=3, r2_shape=1.0, r2_scale=1.0,
        domain_lo_hz=lo, domain_hi_hz=hi)
    lo, hi = model.domain_lo_hz, model.domain_hi_hz
    moments = ss.MomentModel.from_shape_scale_model(model)
    t_proc = budget_factor * n_img * moments.moments_at(0.5 * (lo + hi))[0]
    budget = ss.LatencyBudget(t_proc, 0.0, 0.0, 0.0)

    if method == "gamma":
        def score(f_hz):
            shape, scale = model.shape_scale_at(f_hz)
            return ss.kernels.reg_lower_gamma(n_img * shape, t_proc / scale)
        solve = functools.partial(ss.solve_optimal_frequency, model)
    else:
        def score(f_hz):
            m, v = moments.moments_at(f_hz)
            m, v = n_img * m, n_img * v
            slack = t_proc - m
            return 1.0 - v / (v + slack * slack) if slack > 0.0 else 0.0
        solve = functools.partial(ss.solve_cantelli_frequency, moments)
    try:
        sol = solve(budget, n_img, rho_th, platform)
    except ss.InfeasibleConstraintError:
        return
    f = sol.frequency_hz
    assert lo <= f <= hi
    assert sol.predicted_reliability >= rho_th
    if f > lo:
        below = f - ss.scheduler._BRACKET_REL_TOL * (hi - lo)
        assert score(below) < rho_th, (f, below)
