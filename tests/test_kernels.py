"""Incomplete-gamma kernels: iteration cap, accuracy against mpmath over
large shapes and across the branch edges, and the closed-form brackets of
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


# ---------------------------------------------------------------- bracket

# the bracket's own float rounding near 1 (a few ulps); the planner's screen
# clears rho_th by 1e-9, far above it
_BRACKET_ROUNDING = 1e-15


def test_bracket_holds_against_mpmath():
    mpmath = pytest.importorskip("mpmath")
    rng = np.random.default_rng(20261018)
    a = np.exp(rng.uniform(0.0, math.log(1e5), 120))
    a[:2] = (1.0, 1e5)
    x = np.maximum(a + rng.uniform(-8.0, 8.0, a.size) * np.sqrt(a), 1e-3)
    lo, hi = kernels.reg_lower_gamma_bounds(a, x)
    assert np.all(lo <= hi)
    with mpmath.workdps(50):
        for ai, xi, li, ui in zip(a, x, lo, hi):
            p = float(mpmath.gammainc(ai, 0, xi, regularized=True))
            assert li - _BRACKET_ROUNDING <= p <= ui + _BRACKET_ROUNDING, (ai, xi)


def test_bracket_below_shape_one_holds_against_mpmath():
    # shapes below 1 are bracketed at a + 1 and shifted back by the recurrence
    mpmath = pytest.importorskip("mpmath")
    rng = np.random.default_rng(20261021)
    a = rng.uniform(0.02, 1.0, 200)
    x = np.exp(rng.uniform(math.log(1e-4), math.log(40.0), a.size))
    lo, hi = kernels.reg_lower_gamma_bounds(a, x)
    assert np.all(lo <= hi)
    assert np.median(hi - lo) < 0.05  # informative, not [0, 1]
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
    lo, hi = kernels.reg_lower_gamma_tangent(a, x)
    assert np.all(lo <= hi)
    with mpmath.workdps(50):
        for ai, xi, li, ui in zip(a, x, lo, hi):
            p = float(mpmath.gammainc(ai, 0, xi, regularized=True))
            assert li - _BRACKET_ROUNDING <= p <= ui + _BRACKET_ROUNDING, (ai, xi)


def test_tangent_bracket_is_the_full_brackets_tangent_side(monkeypatch):
    # with its chords switched off, reg_lower_gamma_bounds is its tangent
    # side alone; the tangent kernel equals it bit for bit, and with the
    # chords on, the full bracket lies inside the tangent one
    rng = np.random.default_rng(20261102)
    a = np.exp(rng.uniform(0.0, math.log(1e5), 4000))
    x = np.maximum(a - 1.0 + rng.uniform(-10.0, 10.0, a.size) * np.sqrt(a),
                   1e-3)
    lo, hi = kernels.reg_lower_gamma_tangent(a, x)
    full_lo, full_hi = kernels.reg_lower_gamma_bounds(a, x)
    assert np.all(full_lo >= np.clip(lo, 0.0, 1.0))
    assert np.all(full_hi <= np.clip(hi, 0.0, 1.0))
    monkeypatch.setattr(kernels, "_log_chord_factor",
                        lambda d: np.full(d.shape, -np.inf))
    tan_lo, tan_hi = kernels.reg_lower_gamma_bounds(a, x)
    assert np.array_equal(np.clip(lo, 0.0, 1.0), tan_lo)
    assert np.array_equal(np.clip(hi, 0.0, 1.0), tan_hi)


def test_tangent_bracket_is_trivial_below_shape_one():
    # the tangent bound needs a log-concave density, so shape >= 1
    a = np.array([0.3, 0.999, 1.0, 2.0])
    x = np.array([5.0, 5.0, 5.0, 20.0])
    lo, hi = kernels.reg_lower_gamma_tangent(a, x)
    assert lo[:2].tolist() == [0.0, 0.0] and hi[:2].tolist() == [1.0, 1.0]
    assert lo[2] > 0.9 and lo[3] > 0.99
