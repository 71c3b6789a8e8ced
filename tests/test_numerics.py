"""Distribution and fitting primitives against independent references.

Reference values were produced by mpmath (complementary error function),
scipy.integrate.quad (density integration), scipy.special.gammaincinv, and
a hand-rolled normal-equations solver, then frozen here.
"""

import math

import numpy as np
import pytest

import satsched as ss
from satsched import kernels, numerics
from satsched.errors import ConvergenceError, DomainError, EstimationError


# ---------------------------------------------------------------- q_function

def test_q_function_at_zero_is_half():
    assert ss.q_function(0.0) == 0.5


def test_q_function_pins_the_095_normal_quantile():
    # erfc reference: 0.05000000000000007
    assert abs(ss.q_function(1.6448536269514722) - 0.05) < 1e-9


def test_q_function_far_tail_underflows_cleanly():
    assert ss.q_function(40.0) < 1e-300
    assert ss.q_function(40.0) >= 0.0


@pytest.mark.parametrize("x,ref", [
    (0.5, 0.30853753872598694),
    (1.0, 0.15865525393145705),
    (3.0, 0.0013498980316300957),
    (-1.0, 0.8413447460685429),
])
def test_q_function_matches_erfc_reference(x, ref):
    assert abs(ss.q_function(x) - ref) < 1e-15


def test_q_function_symmetry_and_monotonicity():
    xs = np.linspace(-6, 6, 121)
    vals = np.array([ss.q_function(float(x)) for x in xs])
    assert np.all(np.diff(vals) < 0)
    for x in (0.3, 1.7, 4.2):
        assert abs(ss.q_function(-x) + ss.q_function(x) - 1.0) < 1e-15


# ----------------------------------------------------------- normal_quantile

def test_normal_quantile_at_095():
    assert abs(ss.normal_quantile(0.95) - 1.6448536269514722) < 1e-9


def test_normal_quantile_round_trips_q_function():
    for p in (0.01, 0.2, 0.5, 0.77, 0.95, 0.999):
        z = ss.normal_quantile(p)
        assert abs(ss.q_function(z) - (1.0 - p)) < 1e-12


@pytest.mark.parametrize("p", [0.0, 1.0, -0.1, 1.5, float("nan")])
def test_normal_quantile_rejects_bad_p(p):
    with pytest.raises(DomainError):
        ss.normal_quantile(p)


# ----------------------------------------------------------------- gamma_cdf

def test_gamma_cdf_shape_one_is_exponential():
    # shape 1 reduces to 1 - exp(-t/scale)
    assert abs(ss.gamma_cdf(2.0, 1.0, 2.0) - (1.0 - math.exp(-1.0))) < 1e-10
    for t, scale in [(0.7, 0.35), (0.1, 0.1), (5.0, 2.0)]:
        ref = 1.0 - math.exp(-t / scale)
        assert abs(ss.gamma_cdf(t, 1.0, scale) - ref) < 1e-10


def test_gamma_cdf_matches_quadrature_reference():
    # quad of the density over [0, 0.035] for shape 3.5, scale 0.01
    assert abs(ss.gamma_cdf(0.035, 3.5, 0.01) - 0.5711201424469455) < 1e-8


def test_gamma_cdf_edge_values():
    assert ss.gamma_cdf(0.0, 2.0, 1.0) == 0.0
    assert ss.gamma_cdf(1e9, 2.0, 1.0) == 1.0
    with pytest.raises(DomainError):
        ss.gamma_cdf(-1.0, 2.0, 1.0)
    ts = np.linspace(0.1, 40.0, 50)
    vals = ss.gamma_cdf(ts, 2.0, 1.0)
    assert np.all(np.diff(vals) >= 0)


def test_gamma_cdf_broadcasts_like_the_scalar_path():
    ts = np.array([0.01, 0.05, 0.2, 1.0])
    shapes = np.array([0.5, 2.0, 10.0, 47.0])
    scales = np.array([0.02, 0.01, 0.03, 0.004])
    vec = ss.gamma_cdf(ts, shapes, scales)
    for i in range(4):
        assert vec[i] == ss.gamma_cdf(float(ts[i]), float(shapes[i]),
                                      float(scales[i]))
    # scalar t against array parameters
    vec2 = ss.gamma_cdf(0.05, shapes, scales)
    assert vec2.shape == (4,)
    assert vec2[1] == ss.gamma_cdf(0.05, 2.0, 0.01)
    # seeded lanes around the mode in all three kernel branches (Temme's
    # expansion for a > 30 within 0.3 a of the mode, else the series below
    # a + 1 and the continued fraction above), whose step counts differ
    # widely: a batched call gives every lane the scalar path's bits
    rng = np.random.default_rng(20260816)
    a = np.exp(rng.uniform(math.log(0.3), math.log(3000.0), 4000))
    x = np.maximum(a + rng.uniform(-6.0, 6.0, a.size) * np.sqrt(a), 1e-3)
    ser = x < a + 1.0
    assert ser.sum() > 1000 and (~ser).sum() > 1000
    temme = (a > 30.0) & (np.abs(x - a) < 0.3 * a)
    assert min(temme.sum(), (ser & ~temme).sum(), (~ser & ~temme).sum()) > 1000
    vec3 = ss.gamma_cdf(x, a, 1.0)
    assert np.array_equal(vec3, [ss.gamma_cdf(xi, ai, 1.0)
                                 for xi, ai in zip(x.tolist(), a.tolist())])


@pytest.mark.parametrize("shape,scale", [(0.0, 1.0), (-2.0, 1.0),
                                         (1.0, 0.0), (1.0, -1.0)])
def test_gamma_cdf_rejects_bad_parameters(shape, scale):
    with pytest.raises(DomainError):
        ss.gamma_cdf(0.5, shape, scale)


# ------------------------------------------------------------ gamma_quantile

def test_gamma_quantile_reference_value():
    # scipy.special.gammaincinv(2, 0.95) * 3
    assert abs(ss.gamma_quantile(0.95, 2.0, 3.0) - 14.231593555171731) < 1e-6


def test_gamma_quantile_round_trips_over_parameter_grid():
    for shape in (0.5, 1.0, 2.0, 10.0, 100.0):
        for scale in (1e-3, 1.0, 1e3):
            for p in (0.01, 0.5, 0.95, 0.999):
                q = ss.gamma_quantile(p, shape, scale)
                assert q > 0
                assert abs(ss.gamma_cdf(q, shape, scale) - p) < 1e-9


@pytest.mark.parametrize("p", [0.0, 1.0, -0.5, 2.0])
def test_gamma_quantile_rejects_bad_p(p):
    with pytest.raises(DomainError):
        ss.gamma_quantile(p, 2.0, 1.0)


# -------------------------------------------------------------- sample_gamma

def test_sample_gamma_moments_and_ks():
    rng = ss.generator_from(ss.child_seed(123, 0))
    xs = ss.sample_gamma(4.0, 0.25, rng, size=1_000_000)
    assert xs.shape == (1_000_000,)
    assert abs(xs.mean() - 1.0) < 0.01
    assert ss.ks_statistic(xs, ss.GammaLaw(4.0, 0.25)) < 0.002


def test_sample_gamma_seeded_reproducibility():
    a = ss.sample_gamma(3.0, 2.0, ss.generator_from(ss.child_seed(9, 1)), size=16)
    b = ss.sample_gamma(3.0, 2.0, ss.generator_from(ss.child_seed(9, 1)), size=16)
    assert np.array_equal(a, b)


def test_sample_gamma_scalar_draw():
    x = ss.sample_gamma(2.0, 1.0, ss.generator_from(ss.child_seed(9, 2)))
    assert isinstance(x, float) and x > 0


# ------------------------------------------------------------------ GammaLaw

def test_gamma_law_moment_identities():
    law = ss.GammaLaw(4.0, 0.25)
    assert law.mean == 1.0
    assert abs(law.variance - 0.25) < 1e-15


def test_gamma_law_rejects_bad_parameters():
    with pytest.raises(DomainError):
        ss.GammaLaw(0.0, 1.0)
    with pytest.raises(DomainError):
        ss.GammaLaw(1.0, -2.0)


def test_gamma_law_cdf_quantile_round_trip():
    for p in (0.05, 0.5, 0.95):
        t = ss.gamma_quantile(p, 47.0, 0.0013)
        assert abs(ss.gamma_cdf(t, 47.0, 0.0013) - p) < 1e-9


# -------------------------------------------------------------- fit_gamma_mle

def test_mle_recovers_known_parameters():
    rng = ss.generator_from(ss.child_seed(123, 1))
    ys = ss.sample_gamma(5.0, 0.01, rng, size=100_000)
    fit = ss.fit_gamma_mle(ys)
    assert 4.9 <= fit.shape <= 5.1


def test_mle_mean_identity():
    # alpha_hat * theta_hat equals the sample mean exactly in exact
    # arithmetic; hold it to 1e-9 relative
    rng = ss.generator_from(ss.child_seed(123, 4))
    ys = ss.sample_gamma(2.5, 0.4, rng, size=10_000)
    fit = ss.fit_gamma_mle(ys)
    xbar = float(ys.mean())
    assert abs(fit.shape * fit.scale - xbar) < 1e-9 * xbar


def test_mle_law_accessor():
    rng = ss.generator_from(ss.child_seed(123, 5))
    ys = ss.sample_gamma(8.0, 0.2, rng, size=5_000)
    fit = ss.fit_gamma_mle(ys)
    law = fit.law
    assert isinstance(law, ss.GammaLaw)
    assert law.shape == fit.shape and law.scale == fit.scale


def test_mle_rejects_near_constant_samples():
    with pytest.raises(EstimationError):
        ss.fit_gamma_mle(np.array([1.0, 1.0 + 1e-12]))


def test_mle_rejects_degenerate_inputs():
    with pytest.raises((DomainError, EstimationError)):
        ss.fit_gamma_mle(np.array([1.0]))
    with pytest.raises((DomainError, EstimationError)):
        ss.fit_gamma_mle(np.array([1.0, -2.0, 3.0]))
    with pytest.raises((DomainError, EstimationError)):
        ss.fit_gamma_mle(np.array([1.0, 0.0, 3.0]))


def _reference_fit_gamma_mle(samples):
    """fit_gamma_mle as written with one pass per check, kept as the
    reference for the two-end checks."""
    x = np.asarray(samples, dtype=np.float64)
    if x.ndim != 1:
        x = x.ravel()
    if x.size < 2:
        raise DomainError(f"need at least 2 samples, got {x.size}")
    if not np.all(np.isfinite(x)):
        raise DomainError("samples must be finite")
    if np.any(x <= 0.0):
        raise DomainError("samples must be strictly positive")
    mean = float(x.mean())
    spread = float(x.max() - x.min())
    if spread <= 1e-9 * mean:
        raise EstimationError(
            "sample is degenerate (zero or near-zero spread), shape diverges")
    s = math.log(mean) - float(np.mean(np.log(x)))
    if s <= 0.0:
        raise EstimationError(
            "log-moment gap is nonpositive; sample too concentrated to fit")
    shape, _, conv = kernels.solve_gamma_shape(s)
    if not conv:
        raise ConvergenceError(
            "Gamma MLE shape solve did not converge within 100 Newton steps")
    scale = mean / shape
    return ss.GammaFitResult(shape=float(shape), scale=float(scale))


def _assert_same_fit(got, want):
    assert (got.shape.hex(), got.scale.hex()) == (
        want.shape.hex(), want.scale.hex())


@pytest.mark.parametrize("bad", [
    [1.0, math.nan], [math.nan, 2.0, 3.0], [1.0, math.inf], [-math.inf, 1.0],
    [0.0, 1.0], [2.0, -1.0, 3.0], [-1.0, math.inf], [math.nan, -1.0],
    [0.0, math.nan], [[1.0, 2.0], [3.0, -0.5]],
])
def test_mle_two_end_checks_raise_the_reference_message(bad):
    with pytest.raises(DomainError) as want:
        _reference_fit_gamma_mle(bad)
    with pytest.raises(DomainError) as got:
        ss.fit_gamma_mle(bad)
    assert str(got.value) == str(want.value)


def test_mle_equals_reference_on_fig3_replicate_rows(scenario, gt_nano, gt_agx):
    """Every per-clock sample the default fig3 fits for replicates 0-2."""
    fits = 0
    for pi, gt in enumerate((gt_nano, gt_agx)):
        clocks = ss.fit_frequency_grid(gt.platform, scenario.fit_n_frequencies)
        for n_s in scenario.fig3_sample_sizes:
            for k in range(3):
                rng = ss.stream(scenario.seed, scenario.bit_generator,
                                ss.NS_SUBSET_STUDY, pi, n_s, k)
                ids = ss.draw_subset(gt.image_ids, n_s, rng)
                for row in gt.sample_image_times(ids, clocks, rng):
                    _assert_same_fit(ss.fit_gamma_mle(row),
                                     _reference_fit_gamma_mle(row))
                    fits += 1
    assert fits == 2 * len(scenario.fig3_sample_sizes) * 3 * len(clocks)


def _reference_r_squared(y, fitted):
    ss_res = float(np.sum((y - fitted) ** 2))
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    if ss_tot == 0.0:
        return 1.0 if ss_res <= 1e-24 else 0.0
    return 1.0 - ss_res / ss_tot


def _reference_fit_frequency_model(freqs, rows, degree):
    """fit_frequency_model as a per-clock loop, kept as the reference for
    the one-pass fit: the reference MLE on each row in ascending clock
    order, then per polynomial a fit on numpy's own design, its Horner
    values and its R-squared. Returns every number the model keeps, as
    float.hex."""
    fits = {}
    for f, row in zip(freqs, rows):
        if row.size < 2:
            raise DomainError(f"need >= 2 samples at {f:.6g} Hz, got {row.size}")
        try:
            fits[f] = _reference_fit_gamma_mle(row).law
        except (DomainError, EstimationError) as exc:
            raise EstimationError(f"MLE failed at {f:.6g} Hz: {exc}") from exc
    xs = np.array(freqs)
    out = {f: (law.shape.hex(), law.scale.hex()) for f, law in fits.items()}
    for ys in (np.array([law.shape for law in fits.values()]),
               np.array([law.scale for law in fits.values()])):
        poly = _reference_polyfit(xs, ys, degree)
        out[len(out)] = ([c.hex() for c in poly.coefficients],
                         _reference_r_squared(ys, poly(xs)).hex())
    return out


def _reference_polyfit(xs, ys, degree):
    """``Polynomial.fit(xs, ys, degree).convert()`` with numpy's own design,
    built on every call: its window fit, then the composition back to the
    power basis that polyfit shares with ``convert`` (pinned to it by
    test_polyfit_equals_numpy_fit_convert_bit_for_bit), at a fraction of
    ``convert``'s cost."""
    lo, hi = float(xs.min()), float(xs.max())
    off, scl = (-hi - lo) / (hi - lo), 2.0 / (hi - lo)
    window_coef = np.polynomial.polynomial.polyfit(off + scl * xs, ys,
                                                   degree).tolist()
    coef = [window_coef[-1]]
    for c in window_coef[-2::-1]:
        coef = ([coef[0] * off + c]
                + [coef[j] * off + coef[j - 1] * scl for j in range(1, len(coef))]
                + [coef[-1] * scl])
    return ss.Polynomial(tuple(coef))


def _model_hex(model):
    out = {f: (law.shape.hex(), law.scale.hex())
           for f, law in model.per_frequency_fits.items()}
    for poly, r2 in ((model.shape_poly, model.r2_shape),
                     (model.scale_poly, model.r2_scale)):
        out[len(out)] = ([c.hex() for c in poly.coefficients], r2.hex())
    return out


def _fig3_row_sets(scenario, gts):
    # (clocks, sample matrix) of every default fig3 replicate, drawn on
    # the replicate's own stream as run_subset_replicate draws them
    for pi, gt in enumerate(gts):
        clocks = np.sort(ss.fit_frequency_grid(gt.platform,
                                               scenario.fit_n_frequencies))
        for n_s in scenario.fig3_sample_sizes:
            for k in range(scenario.fig3_k_replicates):
                rng = ss.stream(scenario.seed, scenario.bit_generator,
                                ss.NS_SUBSET_STUDY, pi, n_s, k)
                ids = ss.draw_subset(gt.image_ids, n_s, rng)
                yield clocks, gt.sample_image_times(ids, clocks, rng)


def test_one_pass_fit_equals_the_per_clock_reference_on_fig3(
        scenario, gt_nano, gt_agx):
    """fit_frequency_model on each default fig3 replicate's sample matrix
    keeps the per-clock fits, both polynomials and both R-squared of the
    per-clock reference, bit for bit; one replicate per sample size also
    through the mapping form, one clock at a time."""
    fits = 0
    for clocks, times in _fig3_row_sets(scenario, (gt_nano, gt_agx)):
        freqs = clocks.tolist()
        want = _reference_fit_frequency_model(freqs, times,
                                              scenario.fit_degree)
        got = ss.fit_frequency_model(times, scenario.fit_degree,
                                     frequencies=clocks)
        assert _model_hex(got) == want
        if fits % scenario.fig3_k_replicates == 0:
            by_clock = ss.fit_frequency_model(dict(zip(freqs, times)),
                                              scenario.fit_degree)
            assert _model_hex(by_clock) == want
        fits += 1
    assert fits == (2 * len(scenario.fig3_sample_sizes)
                    * scenario.fig3_k_replicates)


@pytest.mark.parametrize("damage", ["nan", "zero", "degenerate", "short"])
@pytest.mark.parametrize("where", ["first", "middle", "last"])
def test_one_pass_fit_raises_at_the_reference_clock(scenario, gt_nano,
                                                    damage, where):
    """A damaged row at the first, middle or last clock of a fig3 sample
    matrix raises the reference's error: the same type, naming the same
    clock, with the same message and the same cause. In the mapping form
    a short row there does too, rows before it being fitted first."""
    clocks, times = next(_fig3_row_sets(scenario, (gt_nano,)))
    row = {"first": 0, "middle": times.shape[0] // 2, "last": -1}[where]
    rows = list(times)  # views of the matrix's rows
    if damage == "nan":
        times[row, 3] = math.nan
    elif damage == "zero":
        times[row, 0] = 0.0
    elif damage == "degenerate":
        times[row] = times[row, 0]
    else:
        rows[row] = times[row, :1]
    freqs = clocks.tolist()
    with pytest.raises(ss.SatschedError) as want:
        _reference_fit_frequency_model(freqs, rows, scenario.fit_degree)
    forms = [dict(zip(freqs, rows))]
    if damage != "short":
        forms.append(times)
    for form in forms:
        with pytest.raises(ss.SatschedError) as got:
            ss.fit_frequency_model(form, scenario.fit_degree,
                                   frequencies=None if isinstance(form, dict)
                                   else clocks)
        assert type(got.value) is type(want.value)
        assert str(got.value) == str(want.value)
        assert f"{freqs[row]:.6g} Hz" in str(got.value)
        assert type(got.value.__cause__) is type(want.value.__cause__)
        assert str(got.value.__cause__) == str(want.value.__cause__)


def test_one_pass_fit_rejects_a_malformed_matrix(scenario, gt_nano):
    clocks, times = next(_fig3_row_sets(scenario, (gt_nano,)))
    with pytest.raises(DomainError, match="one row per frequency"):
        ss.fit_frequency_model(times[1:], frequencies=clocks)
    with pytest.raises(DomainError, match="one row per frequency"):
        ss.fit_frequency_model(times[0], frequencies=clocks[:1])
    with pytest.raises(DomainError, match="strictly increasing"):
        ss.fit_frequency_model(times, frequencies=clocks[::-1])
    with pytest.raises(DomainError, match="need >= 2 samples at"):
        ss.fit_frequency_model(times[:, :1], frequencies=clocks)


def test_mle_rows_equal_the_one_row_fit_and_its_reference():
    """fit_gamma_mle_rows on a matrix yields, row by row, the bits of
    fit_gamma_mle on each row alone and of the reference; a row that
    cannot be fitted raises only once the rows before it were yielded."""
    rng = np.random.default_rng(20261020)
    for n in (2, 3, 7, 8, 9, 100, 1001):
        x = rng.gamma(rng.uniform(0.5, 50.0, (6, 1)), 1.0, (6, n))
        x *= 10.0 ** rng.uniform(-6.0, 3.0, (6, 1))
        fits = list(numerics.fit_gamma_mle_rows(x))
        for row, fit in zip(x, fits):
            _assert_same_fit(fit, ss.fit_gamma_mle(row))
            _assert_same_fit(fit, _reference_fit_gamma_mle(row))
    x[3, 5] = -1.0
    rows = numerics.fit_gamma_mle_rows(x)
    assert len([next(rows) for _ in range(3)]) == 3
    with pytest.raises(DomainError, match="strictly positive"):
        next(rows)
    with pytest.raises(DomainError, match="2-d array"):
        next(numerics.fit_gamma_mle_rows(x[0]))


def test_mle_unconverged_shape_solve_raises_the_reference_error(monkeypatch):
    # no finite positive sample makes the Newton solve fail, so stand in a
    # solve that does not converge
    monkeypatch.setattr(kernels, "solve_gamma_shape",
                        lambda s: (math.nan, 100, 0))
    ys = ss.sample_gamma(5.0, 0.01, ss.generator_from(ss.child_seed(123, 6)),
                         size=1000)
    with pytest.raises(ConvergenceError) as want:
        _reference_fit_gamma_mle(ys)
    with pytest.raises(ConvergenceError) as got:
        ss.fit_gamma_mle(ys)
    assert str(got.value) == str(want.value)


# ------------------------------------------------------------------- polyfit

def _eliminate(xs, ys, degree):
    """Independent OLS: explicit normal equations + Gaussian elimination."""
    m = degree + 1
    a = [[float(np.sum(xs ** (i + j))) for j in range(m)] for i in range(m)]
    b = [float(np.sum(ys * xs ** i)) for i in range(m)]
    for col in range(m):
        piv = max(range(col, m), key=lambda r: abs(a[r][col]))
        a[col], a[piv] = a[piv], a[col]
        b[col], b[piv] = b[piv], b[col]
        for r in range(col + 1, m):
            f = a[r][col] / a[col][col]
            for c in range(col, m):
                a[r][c] -= f * a[col][c]
            b[r] -= f * b[col]
    out = [0.0] * m
    for r in range(m - 1, -1, -1):
        acc = b[r] - sum(a[r][c] * out[c] for c in range(r + 1, m))
        out[r] = acc / a[r][r]
    return out


def test_polyfit_exact_cubic():
    xs = np.linspace(-2, 3, 40)
    ys = 1.5 - 2.0 * xs + 0.75 * xs ** 2 + 0.3 * xs ** 3
    poly = ss.polyfit(xs, ys, 3)
    assert max(abs(poly(xs) - ys)) < 1e-9
    assert abs(poly.coefficients[3] - 0.3) < 1e-9


def test_polyfit_degree_zero_is_the_mean():
    xs = np.array([1.0, 2.0, 3.0, 4.0])
    ys = np.array([2.0, 4.0, 6.0, 0.0])
    poly = ss.polyfit(xs, ys, 0)
    assert abs(poly.coefficients[0] - 3.0) < 1e-12


def test_polyfit_matches_normal_equations_on_noisy_cubic():
    rng = ss.generator_from(ss.child_seed(123, 2))
    xs = np.linspace(-2, 3, 40)
    ys = 1.5 - 2.0 * xs + 0.75 * xs ** 2 + 0.3 * xs ** 3
    yn = ys + rng.normal(0, 0.05, xs.size)
    poly = ss.polyfit(xs, yn, 3)
    oracle = _eliminate(xs, yn, 3)
    for mine, ref in zip(poly.coefficients, oracle):
        assert abs(mine - ref) < 1e-9
    fitted = poly(xs)
    r2 = 1.0 - np.sum((fitted - yn) ** 2) / np.sum((yn - yn.mean()) ** 2)
    assert r2 > 0.99


def _numpy_fit_convert(xs, ys, degree):
    want = np.polynomial.Polynomial.fit(xs, ys, deg=degree).convert().coef
    return np.concatenate([want, np.zeros(degree + 1 - want.size)])


def test_polyfit_equals_numpy_fit_convert_bit_for_bit(scenario, gt_nano,
                                                      gt_agx):
    """The functional fit composes back to the power basis in the order
    ``Polynomial.fit(...).convert()`` does, so the coefficients agree to
    the last bit: on random fits at unit scale and at the scale of clock
    frequencies, on the regressions fig3 runs (8 fit clocks, degree 3,
    ordinates the size of fitted shapes and of fitted scales), and at
    degree 0 on one abscissa."""
    rng = np.random.default_rng(20261020)
    for i in range(400):
        degree = int(rng.integers(0, 5))
        n = int(rng.integers(degree + 1, 30))
        span = 1e9 if i % 2 else 1.0
        xs = rng.uniform(0.3, 1.3, n) * span
        ys = rng.normal(size=n) * 10.0 ** rng.uniform(-6.0, 6.0)
        got = ss.polyfit(xs, ys, degree).coefficients
        assert np.array_equal(np.array(got), _numpy_fit_convert(xs, ys, degree)), (
            degree, n, span)
    for gt in (gt_nano, gt_agx):
        xs = ss.fit_frequency_grid(gt.platform, scenario.fit_n_frequencies)
        for exact in (gt.shape_at(xs), gt.scale_at(xs)):
            for _ in range(100):
                ys = exact * (1.0 + 0.05 * rng.normal(size=xs.size))
                got = ss.polyfit(xs, ys, scenario.fit_degree).coefficients
                assert np.array(got).tobytes() == _numpy_fit_convert(
                    xs, ys, scenario.fit_degree).tobytes()
    for x, y in ((1e9, 3.5), (0.25, -2.0), (-7.0, 1e-12)):
        got = ss.polyfit([x], [y], 0).coefficients
        assert np.array_equal(np.array(got), _numpy_fit_convert([x], [y], 0))


def test_polyfit_rejects_rank_deficient_design():
    xs = np.full(10, 2.0)
    ys = np.linspace(0, 1, 10)
    with pytest.raises(EstimationError):
        ss.polyfit(xs, ys, 2)
    # two distinct abscissae cannot fix a cubic: the rank check
    with pytest.raises(EstimationError):
        ss.polyfit(np.array([1.0, 1.0, 2.0, 2.0]), np.arange(4.0), 3)


def test_polyfit_rejects_too_few_points():
    with pytest.raises((DomainError, EstimationError)):
        ss.polyfit(np.array([1.0, 2.0]), np.array([1.0, 2.0]), 3)


def test_polynomial_evaluates_scalar_and_array():
    poly = ss.Polynomial((1.0, 0.0, 2.0))
    assert poly(3.0) == 19.0
    out = poly(np.array([0.0, 1.0, 2.0]))
    assert np.array_equal(out, np.array([1.0, 3.0, 9.0]))


# -------------------------------------------------------------- ks_statistic

def test_ks_of_plug_in_quantiles_is_small():
    law = ss.GammaLaw(3.0, 2.0)
    n = 100
    qs = np.array([ss.gamma_quantile((i - 0.5) / n, law.shape, law.scale)
                   for i in range(1, n + 1)])
    assert ss.ks_statistic(qs, law) < 1.0 / n + 1e-6


def test_ks_single_sample_at_median():
    law = ss.GammaLaw(3.0, 2.0)
    d = ss.ks_statistic(
        np.array([ss.gamma_quantile(0.5, law.shape, law.scale)]), law)
    assert abs(d - 0.5) < 1e-12


def test_ks_separates_wrong_families():
    rng = ss.generator_from(ss.child_seed(123, 3))
    es = rng.exponential(1.0, 4000)
    # same mean, very different shape
    assert ss.ks_statistic(es, ss.GammaLaw(5.0, 0.2)) > 0.1


def _reference_ks_statistic(samples, law):
    """ks_statistic as the full evaluation: the CDF at every sorted
    sample, kept as the reference for the bound sweep."""
    x = np.sort(np.asarray(samples, dtype=np.float64).ravel())
    n = x.size
    cdf = ss.gamma_cdf(x, law.shape, law.scale)
    d_plus = float(np.max(np.arange(1, n + 1, dtype=np.float64) / n - cdf))
    d_minus = float(np.max(cdf - np.arange(0, n, dtype=np.float64) / n))
    return max(d_plus, d_minus, 0.0)


def _ks_inputs():
    # (samples, law): the other KS tests' inputs, samples from the law and
    # from near it, rounded samples with ties, samples at the mode
    law = ss.GammaLaw(3.0, 2.0)
    n = 100
    yield (np.array([ss.gamma_quantile((i - 0.5) / n, law.shape, law.scale)
                     for i in range(1, n + 1)]), law)
    yield np.array([ss.gamma_quantile(0.5, law.shape, law.scale)]), law
    yield (ss.generator_from(ss.child_seed(123, 3)).exponential(1.0, 4000),
           ss.GammaLaw(5.0, 0.2))
    rng = np.random.default_rng(20261020)
    for i in range(120):
        n = int(rng.choice([2, 7, 63, 64, 65, 129, 1000, 4097]))
        law = ss.GammaLaw(float(10.0 ** rng.uniform(-0.5, 2.5)),
                          float(10.0 ** rng.uniform(-3.0, 1.0)))
        x = rng.gamma(law.shape * (1.0 + 0.1 * (i % 3 == 1)), law.scale, n)
        if i % 4 == 2:  # ties
            x = np.round(x / law.scale, 1) * law.scale + law.scale / 10.0
        if i % 5 == 3 and law.shape > 1.0:  # a quarter at the mode
            x[: n // 4] = (law.shape - 1.0) * law.scale
        yield x, law


def test_ks_sweep_equals_the_full_evaluation():
    inputs = 0
    for x, law in _ks_inputs():
        assert (ss.ks_statistic(x, law).hex()
                == _reference_ks_statistic(x, law).hex()), (x.size, law)
        inputs += 1
    assert inputs == 123


def test_ks_sweep_evaluates_few_lanes(monkeypatch):
    """On 1e5 samples from the law, at most 5% of the sorted samples take
    the exact CDF, and the distance is the full evaluation's."""
    lanes = []
    exact = kernels.reg_lower_gamma_arr
    monkeypatch.setattr(kernels, "reg_lower_gamma_arr",
                        lambda a, x: lanes.append(len(a)) or exact(a, x))
    law = ss.GammaLaw(4.0, 0.25)
    xs = ss.sample_gamma(law.shape, law.scale,
                         ss.generator_from(ss.child_seed(123, 7)),
                         size=100_000)
    d = ss.ks_statistic(xs, law)
    assert 0 < sum(lanes) <= 0.05 * xs.size
    monkeypatch.undo()
    assert d.hex() == _reference_ks_statistic(xs, law).hex()
