"""Incomplete-gamma kernels: iteration cap, accuracy against mpmath over
large shapes and across the branch edges, the straight-line Temme branch
against its table-driven reference loop, and the closed-form brackets of
the planner's pre-scan screen.

The array form runs the scalar kernel per lane; that its results equal the
scalar path bit for bit is checked in ``test_numerics.py``.
"""

import math

import numpy as np
import pytest

import satsched as ss
from satsched import kernels
from satsched.errors import ConvergenceError

# lanes outside the Temme region (shape <= 30) that need more than 5 steps:
# 51 series steps below a + 1, 17 continued-fraction steps above it
_SLOW_LANES = ((25.0, 24.0), (25.0, 40.0))
# lanes of the loop-free Temme branch, which no step cap reaches
_TEMME_LANES = ((100.0, 100.0), (1e6, 1e6))


@pytest.mark.parametrize("as_array", [False, True])
def test_iteration_cap_raises(monkeypatch, as_array):
    # a run-out cap raises instead of returning the partial sum, in the
    # series and in the continued fraction
    monkeypatch.setattr(kernels, "_MAX_ITER", 5)
    for a, x in _SLOW_LANES:
        t = np.array([x]) if as_array else x
        with pytest.raises(ConvergenceError):
            ss.gamma_cdf(t, a, 1.0)


def test_iteration_cap_raises_on_mixed_lanes(monkeypatch):
    monkeypatch.setattr(kernels, "_MAX_ITER", 5)
    (ta, tx), (ua, ux) = _TEMME_LANES
    for a, x in _SLOW_LANES:
        with pytest.raises(ConvergenceError):
            kernels.reg_lower_gamma_arr(np.array([ta, a, ua]),
                                        np.array([tx, x, ux]))
    got = kernels.reg_lower_gamma_arr(np.array([ta, ua]), np.array([tx, ux]))
    assert got.tolist() == [kernels.reg_lower_gamma(ta, tx),
                            kernels.reg_lower_gamma(ua, ux)]


def test_underflowing_prefactor_needs_no_loop():
    # where x^a e^-x / Gamma(a) underflows, P is 0 below the mode and 1
    # above it without running the series or the continued fraction, whose
    # stop rule the continued fraction never met at these huge shapes
    for a, x in ((31622776601.683792, 3.162277660168379e+16),
                 (56234132519.034904, 3.1622776601683796e+16),
                 (316227766016.83795, 5.623413251903491e+16),
                 (562341325190.3491, 1e+17),
                 (1000000000000.0, 5.623413251903491e+16),
                 (1000000000000.0, 1e+18)):
        assert kernels.reg_lower_gamma(a, x) == 1.0
    # a quarter-decade scan, a from 1e-3 to 1e12 and x from 1e-6 a to 1e6 a,
    # which held the six lanes above
    a = np.repeat(np.logspace(-3.0, 12.0, 61), 49)
    x = a * np.tile(np.logspace(-6.0, 6.0, 49), 61)
    p = kernels.reg_lower_gamma_arr(a, x)
    assert np.all((p >= 0.0) & (p <= 1.0))
    big = a >= 10.0
    assert np.all(p[big & (x >= 1e3 * a)] == 1.0)
    assert np.all(p[big & (x <= 1e-3 * a)] < 1e-20)


def test_ramanujan_anchor_at_large_shape():
    # P(a, a) = 1/2 + 1/(3 sqrt(2 pi a)) + 1/(540 a sqrt(2 pi a)) + O(a^-5/2);
    # the series used to run out its cap here
    a = 1e6
    anchor = 0.5 + 1.0 / (3.0 * math.sqrt(2.0 * math.pi * a))
    next_term = 1.0 / (540.0 * a * math.sqrt(2.0 * math.pi * a))
    got = ss.gamma_cdf(a, a, 1.0)
    assert 0.0 < got - anchor < 2.0 * next_term
    assert abs(got - anchor - next_term) < 1e-15


def _mp_reference(mpmath, a, x):
    # (P, Q) to 50 digits. Q comes from mpmath's upper form: its lower form
    # is slow near x = a and fails to converge at large shapes. P = 1 - Q
    # gets as many extra digits as P is small.
    dps = 60
    while True:
        with mpmath.workdps(dps):
            q = mpmath.gammainc(a, x, mpmath.inf, regularized=True)
            p = 1 - q
            if p > 0 and -mpmath.log10(p) < dps - 50:
                return float(p), float(q)
        dps *= 2


def _assert_smaller_tail_close(mpmath, a, x, got):
    # 1e-13 relative on the smaller tail. A tail of e^-L is a rounded
    # exponent away from the truth, so allow L more ulps; when the upper tail
    # Q is the smaller, P = 1 - Q also carries P's own half-ulp rounding.
    p_ref, q_ref = _mp_reference(mpmath, a, x)
    tail = min(p_ref, q_ref)
    allowed = tail * (1e-13 + abs(math.log(tail)) * 2.0 ** -52)
    if q_ref < p_ref:
        allowed += 2.0 ** -53
    assert abs(got - p_ref) <= allowed, (a, x, got, p_ref, q_ref)


def test_large_shapes_match_mpmath():
    # shapes log-uniform in [20, 1e7], x within 8 sd of a; a second draw in
    # [20, 1e3], where 8 sd reach past the Temme region's x/a edges. Shapes
    # above 1e5 are whole numbers, for which mpmath has a fast exact path.
    mpmath = pytest.importorskip("mpmath")
    rng = np.random.default_rng(20261018)
    a = np.exp(np.concatenate([rng.uniform(math.log(20.0), math.log(1e7), 80),
                               rng.uniform(math.log(20.0), math.log(1e3), 80)]))
    a = np.where(a > 1e5, np.round(a), a)
    x = a + rng.uniform(-8.0, 8.0, a.size) * np.sqrt(a)
    keep = x > 0.0
    got = kernels.reg_lower_gamma_arr(a[keep], x[keep])
    for ai, xi, pi in zip(a[keep].tolist(), x[keep].tolist(), got.tolist()):
        _assert_smaller_tail_close(mpmath, ai, xi, pi)


def test_tiny_x_at_large_shape_is_zero():
    # x / a underflows to 0 in the first lane; P is far below the smallest
    # float in both
    assert kernels.reg_lower_gamma(50.0, 5e-324) == 0.0
    assert kernels.reg_lower_gamma(50.0, 1e-300) == 0.0


def _edge_lanes():
    # both sides of each branch edge: the shape floor a = 30 (and the next
    # float up) at several x/a, and x = (1 -+ 0.3) a, give or take 1e-12
    # relative, at shapes where that edge lies within 8 sd of a; then x == a
    lanes = []
    edge = kernels._TEMME_MIN_SHAPE
    for r in (0.71, 0.9, 1.0, 1.1, 1.29):
        for a in (edge, math.nextafter(edge, math.inf)):
            lanes.append((a, r * a))
    for a in (31.0, 150.0, 700.0):
        for r in (1.0 - kernels._TEMME_HALF_WIDTH,
                  1.0 + kernels._TEMME_HALF_WIDTH):
            lanes += [(a, r * a * (1.0 + d)) for d in (-1e-12, 0.0, 1e-12)]
    lanes += [(a, a) for a in (20.0, 31.0, 1e4, 1e6, 1e7)]
    return lanes


def test_branch_edges_match_mpmath():
    mpmath = pytest.importorskip("mpmath")
    for a, x in _edge_lanes():
        _assert_smaller_tail_close(mpmath, a, x, kernels.reg_lower_gamma(a, x))


@pytest.mark.parametrize("stuck_at,cap", [(0.3, "bracket"), (0.9, "Newton")])
def test_quantile_caps_raise(monkeypatch, stuck_at, cap):
    # a CDF stuck below p never brackets the quantile, one stuck above it
    # halves the Newton bracket forever; both used to return the last
    # iterate (6.9e120 and 8.3e-61)
    monkeypatch.setattr(kernels, "reg_lower_gamma", lambda a, x: stuck_at)
    with pytest.raises(ConvergenceError, match=cap):
        kernels.gamma_quantile_unit(0.5, 3.0)


@pytest.mark.parametrize("as_array", [False, True])
@pytest.mark.parametrize("x", [3000.0, 3100.0])
def test_large_shape_matches_mpmath(as_array, x):
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(50):
        want = float(mpmath.gammainc(3000, 0, x, regularized=True))
    got = ss.gamma_cdf(np.array([x]) if as_array else x, 3000.0, 1.0)
    assert abs(float(np.asarray(got).ravel()[0]) - want) < 1e-12


def _left_band_lanes():
    # just left of the Temme region, sigma = (x - a) / a in (-0.5, -0.3]:
    # 300 seeded lanes with a log-uniform from 30 up to where P would fall
    # below e^-700, then the band's edges and the lanes that once read
    # 2.5e-13 (x = 2100) and 1.8e-14 (x = 1950) off
    rng = np.random.default_rng(20261019)
    lo = kernels._LOG1PMX_SERIES_MIN_SIGMA
    sigma = rng.uniform(lo, -0.3, 300)
    a_max = 700.0 / (sigma - np.log1p(sigma))
    a = np.exp(rng.uniform(math.log(31.0), np.log(a_max)))
    lanes = list(zip(a.tolist(), (a * (1.0 + sigma)).tolist()))
    for a in (math.nextafter(kernels._TEMME_MIN_SHAPE, math.inf), 200.0,
              3000.0):
        lanes += [(a, a * (1.0 + lo) * (1.0 + 1e-12)),
                  (a, a * (1.0 - kernels._TEMME_HALF_WIDTH))]
    lanes += [(3000.0, 2100.0), (3000.0, 1950.0)]
    return [(a, x) for a, x in lanes if lo < (x - a) / a <= -0.3]


def test_left_of_temme_band_matches_mpmath():
    """In the band the series branch takes a log1pmx(sigma) from the atanh
    series; a log(x/a) - sigma cancelled there, up to 7.8 ulps of the
    exponent L = -ln P off. Four roundings of the exponent remain."""
    mpmath = pytest.importorskip("mpmath")
    lanes = _left_band_lanes()
    assert len(lanes) >= 300
    with mpmath.workdps(50):
        for a, x in lanes:
            want = mpmath.gammainc(a, 0, x, regularized=True)
            log_p = float(mpmath.log(want))
            assert log_p > -708.0  # P is a normal float
            got = kernels.reg_lower_gamma(a, x)
            allowed = 1e-14 + 4.0 * abs(log_p) * 2.0 ** -52
            assert float(abs(got - want) / want) <= allowed, (a, x, got)
    got = kernels.reg_lower_gamma(3000.0, 2100.0)
    with mpmath.workdps(50):
        want = mpmath.gammainc(3000, 0, 2100, regularized=True)
    assert float(abs(got - want) / want) < 5e-14


# ---------------------------------------------------------------- Temme branch

# The reference tables of the Temme branch, which the kernel writes out as
# straight-line Horner expressions. 1/(2j+1) for j = 12 .. 1: the atanh
# series of log1pmx, Horner order.
_ATANH_ODD = tuple(1.0 / (2 * j + 1) for j in range(12, 0, -1))

# Temme's coefficients d[k][n] of C_k(eta) = sum_n d[k][n] eta^n (Temme
# 1979; DiDonato & Morris 1986; the same values as Cephes igam.c), rows
# k = 6 down to 0, each from its highest degree 13 - 2k down.
_TEMME_D = (
    # k = 6, degree 1
    (-0.0005921664373536939, 0.0005313079364639922),
    # k = 5, degree 3
    (-0.00019932570516188847, 0.0002772753244959392, -6.972813758365857e-05,
     -0.00033679855336635813),
    # k = 4, degree 5
    (-3.968365047179435e-05, 6.641498215465122e-05, -1.4638452578843418e-06,
     -0.0002990724803031902, 0.0007840392217200666, -0.0008618882909167117),
    # k = 3, degree 7
    (-5.6749528269915965e-06, 1.1082654115347302e-05, -2.396505113867297e-07,
     -7.561801671883977e-05, 0.00026772063206283885, -0.0004691894943952557,
     0.00022947209362139917, 0.0006494341563786008),
    # k = 2, degree 9
    (-6.298992138380055e-07, 1.3721957309062934e-06, 3.423578734096138e-08,
     -1.2760635188618728e-05, 5.2923448829120125e-05, -0.0001073665322636516,
     2.0093878600823047e-06, 0.0007716049382716049, -0.0026813271604938273,
     0.004133597883597883),
    # k = 1, degree 11
    (-5.752545603517705e-08, 1.378633446915721e-07, 4.647127802807434e-09,
     -1.6120900894563446e-06, 7.64916091608111e-06, -1.8098550334489977e-05,
     -4.018775720164609e-07, 0.00020576131687242798, -0.0009902263374485596,
     0.0026455026455026454, -0.003472222222222222, -0.001851851851851852),
    # k = 0, degree 13
    (-4.382036018453353e-09, 1.0261809784240309e-08, 6.707853543401498e-09,
     -1.7665952736826078e-07, 8.296711340953087e-07, -1.85406221071516e-06,
     -2.185448510679992e-06, 3.919263178522438e-05, -0.0001787551440329218,
     0.0003527336860670194, 0.0011574074074074073, -0.014814814814814815,
     0.08333333333333333, -0.3333333333333333),
)


def _temme_by_table(a, x):
    """The kernel's Temme branch with its two Horner sums looped over the
    tables above, as the kernel once ran them."""
    sigma = (x - a) / a
    u = sigma / (2.0 + sigma)
    u2 = u * u
    s = 0.0
    for c in _ATANH_ODD:
        s = s * u2 + c
    log1pmx = 2.0 * u * u2 * s - sigma * sigma / (2.0 + sigma)
    eta = math.sqrt(-2.0 * log1pmx)
    if sigma < 0.0:
        eta = -eta
    inv_a = 1.0 / a
    total = 0.0
    for row in _TEMME_D:
        c = 0.0
        for d in row:
            c = c * eta + d
        total = total * inv_a + c
    r = math.exp(a * log1pmx) * kernels._INV_SQRT_2PI / math.sqrt(a) * total
    y = eta * math.sqrt(0.5 * a)
    if eta > 0.0:
        return 1.0 - (0.5 * math.erfc(y) + r)
    return 0.5 * math.erfc(-y) - r


def _temme_region_lanes():
    # 100k seeded lanes, a log-uniform in (30, 1e7] and |x/a - 1| < 0.3,
    # then lanes on both region edges: the shape floor (the next float up)
    # and x/a just inside 1 -+ 0.3, and x == a
    rng = np.random.default_rng(20261018)
    edge_a = kernels._TEMME_MIN_SHAPE
    width = kernels._TEMME_HALF_WIDTH
    a = np.exp(rng.uniform(math.log(edge_a), math.log(1e7), 100_000))
    a[a <= edge_a] = math.nextafter(edge_a, math.inf)
    x = a * (1.0 + rng.uniform(-width, width, a.size))
    lanes = list(zip(a.tolist(), x.tolist()))
    for a in (math.nextafter(edge_a, math.inf), 31.0, 150.0, 1e4, 1e7):
        for r in (1.0 - width, 1.0 + width):
            x = a * r
            while not -width < (x - a) / a < width:
                x = math.nextafter(x, a)
            lanes += [(a, x), (a, x * (1.0 + 1e-9 * (1.0 - r)))]
        lanes.append((a, a))
    return lanes


def test_temme_branch_equals_table_loop_bit_for_bit():
    lanes = _temme_region_lanes()
    edge_a, width = kernels._TEMME_MIN_SHAPE, kernels._TEMME_HALF_WIDTH
    assert all(a > edge_a and -width < (x - a) / a < width for a, x in lanes)
    got = [kernels.reg_lower_gamma(a, x) for a, x in lanes]
    want = [_temme_by_table(a, x) for a, x in lanes]
    mismatches = [(a, x, g, w) for (a, x), g, w in zip(lanes, got, want)
                  if g != w]
    assert not mismatches, mismatches[:5]


# ---------------------------------------------------------------- bracket

# the bracket's own float rounding near 1 (a few ulps); the planner's screen
# clears rho_th by 1e-9, far above it
_BRACKET_ROUNDING = 1e-15


def _full_bracket(a, x):
    """Closed-form bracket lo <= P(a, x) <= hi on arrays, a >= 1, x > 0,
    in one function: the tangent bounds and the upper chord joined and
    clipped to [0, 1]. The tangent and chord stages are checked against
    it."""
    # For a >= 1, log t^(a-1) e^(-t) is concave, so its tangent at x bounds
    # the density above and its chords bound it below.
    # Tangent: Q <= g/(x-a+1) for x > a-1, P <= g/(a-1-x) for x < a-1.
    # Chord:   Q >= (g/x) w (e^d - 1)/d over [x, x+w], w = 1.5 sqrt(a),
    # where d is the change of the log density across the chord.
    # Here g = x^a e^(-x) / Gamma(a), with Gamma(a) bracketed by
    # Stirling-Binet: S(a) <= Gamma(a) <= S(a) e^(1/(12a)),
    # S(a) = sqrt(2 pi) a^(a-1/2) e^(-a).
    a = np.asarray(a, dtype=np.float64)
    x = np.asarray(x, dtype=np.float64)
    log_g, right, tan = kernels._tangent_terms(a, x)
    w = 1.5 * np.sqrt(a)
    d = (a - 1.0) * np.log1p(w / x) - w
    log_lo_density = log_g - 1.0 / (12.0 * a) - np.log(x)
    q_lo = np.exp(log_lo_density + np.log(w) + kernels._log_chord_factor(d))
    lo = np.where(right, 1.0 - tan, 0.0)
    hi = np.minimum(1.0 - q_lo, np.where(right, 1.0, tan))
    return np.clip(lo, 0.0, 1.0), np.clip(hi, 0.0, 1.0)


def test_bracket_holds_against_mpmath():
    """On shapes 1-1e5 with x within 8 standard deviations of the mean."""
    mpmath = pytest.importorskip("mpmath")
    rng = np.random.default_rng(20261018)
    a = np.exp(rng.uniform(0.0, math.log(1e5), 120))
    a[:2] = (1.0, 1e5)
    x = np.maximum(a + rng.uniform(-8.0, 8.0, a.size) * np.sqrt(a), 1e-3)
    lo, hi = _full_bracket(a, x)
    assert np.all(lo <= hi)
    with mpmath.workdps(50):
        for ai, xi, li, ui in zip(a, x, lo, hi):
            p = float(mpmath.gammainc(ai, 0, xi, regularized=True))
            assert li - _BRACKET_ROUNDING <= p <= ui + _BRACKET_ROUNDING, (ai, xi)


def test_series_bracket_up_to_the_cutoff_holds_against_mpmath():
    """On shapes 1-4 with x from 1e-4 to 60, the lanes a series bracket
    once took below a cutoff of 4: the tangent and the upper chord now
    bracket them, and the chord tightens the tangent's upper end on some."""
    mpmath = pytest.importorskip("mpmath")
    rng = np.random.default_rng(20261105)
    a = rng.uniform(1.0, 4.0, 200)
    x = np.exp(rng.uniform(math.log(1e-4), math.log(60.0), a.size))
    lo, hi = _full_bracket(a, x)
    _, right, tan = kernels._tangent_terms(a, x)
    assert np.any(hi < np.clip(np.where(right, 1.0, tan), 0.0, 1.0))
    assert np.all(lo <= hi)
    with mpmath.workdps(50):
        for ai, xi, li, ui in zip(a, x, lo, hi):
            p = float(mpmath.gammainc(ai, 0, xi, regularized=True))
            assert li - _BRACKET_ROUNDING <= p <= ui + _BRACKET_ROUNDING, (ai, xi)


def test_tangent_bracket_holds_against_mpmath():
    mpmath = pytest.importorskip("mpmath")
    rng = np.random.default_rng(20261101)
    a = np.exp(rng.uniform(0.0, math.log(1e5), 120))
    a[:2] = (1.0, 1e5)
    x = np.maximum(a - 1.0 + rng.uniform(-8.0, 8.0, a.size) * np.sqrt(a),
                   1e-3)
    lo, hi, _ = kernels._reg_lower_gamma_tangent(a, x)
    assert np.all(lo <= hi)
    with mpmath.workdps(50):
        for ai, xi, li, ui in zip(a, x, lo, hi):
            p = float(mpmath.gammainc(ai, 0, xi, regularized=True))
            assert li - _BRACKET_ROUNDING <= p <= ui + _BRACKET_ROUNDING, (ai, xi)


def test_tangent_bracket_is_the_full_brackets_tangent_side(monkeypatch):
    # with its chords switched off, the full bracket is its tangent side
    # alone; the tangent kernel equals it bit for bit, and with the
    # chords on, the full bracket lies inside the tangent one
    rng = np.random.default_rng(20261102)
    a = np.exp(rng.uniform(0.0, math.log(1e5), 4000))
    x = np.maximum(a - 1.0 + rng.uniform(-10.0, 10.0, a.size) * np.sqrt(a),
                   1e-3)
    lo, hi, _ = kernels._reg_lower_gamma_tangent(a, x)
    full_lo, full_hi = _full_bracket(a, x)
    assert np.all(full_lo >= np.clip(lo, 0.0, 1.0))
    assert np.all(full_hi <= np.clip(hi, 0.0, 1.0))
    monkeypatch.setattr(kernels, "_log_chord_factor",
                        lambda d: np.full(d.shape, -np.inf))
    tan_lo, tan_hi = _full_bracket(a, x)
    assert np.array_equal(np.clip(lo, 0.0, 1.0), tan_lo)
    assert np.array_equal(np.clip(hi, 0.0, 1.0), tan_hi)


def test_tangent_bracket_is_trivial_below_shape_one():
    # the tangent bound needs a log-concave density, so shape >= 1
    a = np.array([0.3, 0.999, 1.0, 2.0])
    x = np.array([5.0, 5.0, 5.0, 20.0])
    lo, hi, _ = kernels._reg_lower_gamma_tangent(a, x)
    assert lo[:2].tolist() == [0.0, 0.0] and hi[:2].tolist() == [1.0, 1.0]
    assert lo[2] > 0.9 and lo[3] > 0.99


def test_chord_stage_on_tangent_terms_is_the_full_bracket():
    # on shapes of at least 1, the chord stage on the tangent pass's log g,
    # joined with the tangent bracket, is the full bracket bit for bit
    rng = np.random.default_rng(20261103)
    a = np.exp(rng.uniform(math.log(0.05), math.log(1e6), 4000))
    x = np.maximum(a - 1.0 + rng.uniform(-10.0, 10.0, a.size) * np.sqrt(a),
                   1e-3)
    t_lo, t_hi, log_g = kernels._reg_lower_gamma_tangent(a, x)
    hi = kernels._reg_lower_gamma_chord(a, x, log_g)
    full_lo, full_hi = _full_bracket(a, x)
    big = a >= 1.0
    assert 0 < big.sum() < a.size
    assert np.array_equal(np.clip(t_lo, 0.0, 1.0)[big], full_lo[big])
    assert np.array_equal(np.clip(np.minimum(hi, t_hi), 0.0, 1.0)[big],
                          full_hi[big])
