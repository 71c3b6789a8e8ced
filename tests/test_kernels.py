"""Incomplete-gamma kernels: lane compaction, iteration cap, large shapes,
and the closed-form bracket of the planner's pre-scan screen.

The lane-frozen reference below is the numpy array kernel as it was before
converged lanes were dropped from the working arrays: every lane stays in
every step and a mask keeps converged lanes from changing. The compacted
kernel must give the same bits on every lane.
"""

import math

import numpy as np
import pytest

import satsched as ss
from satsched import kernels
from satsched.errors import ConvergenceError

_MAX_ITER = kernels._MAX_ITER
_CONV_EPS = kernels._CONV_EPS
_LOG_TINY = kernels._LOG_TINY
_FPMIN = kernels._FPMIN


def _series_lanes_frozen(a, x):
    ap = a.copy()
    term = 1.0 / a
    total = term.copy()
    active = np.ones(a.shape[0], dtype=bool)
    for _ in range(_MAX_ITER):
        ap[active] += 1.0
        term[active] = term[active] * (x[active] / ap[active])
        total[active] += term[active]
        active &= ~(np.abs(term) < np.abs(total) * _CONV_EPS)
        if not active.any():
            break
    logp = a * np.log(x) - x - kernels._lgamma_vec(a)
    val = np.where(logp < _LOG_TINY, 0.0, total * np.exp(np.maximum(logp, _LOG_TINY)))
    return np.minimum(val, 1.0)


def _cf_lanes_frozen(a, x):
    b = x + 1.0 - a
    c = np.full(a.shape[0], 1.0 / _FPMIN)
    d = 1.0 / b
    h = d.copy()
    active = np.ones(a.shape[0], dtype=bool)
    for i in range(1, _MAX_ITER + 1):
        an = -float(i) * (float(i) - a)
        b2 = b + 2.0
        d2 = an * d + b2
        d2 = np.where(np.abs(d2) < _FPMIN, _FPMIN, d2)
        c2 = b2 + an / c
        c2 = np.where(np.abs(c2) < _FPMIN, _FPMIN, c2)
        d2 = 1.0 / d2
        delta = d2 * c2
        h2 = h * delta
        b = np.where(active, b2, b)
        d = np.where(active, d2, d)
        c = np.where(active, c2, c)
        h = np.where(active, h2, h)
        active &= ~(np.abs(delta - 1.0) < _CONV_EPS)
        if not active.any():
            break
    logp = a * np.log(x) - x - kernels._lgamma_vec(a)
    return np.where(logp < _LOG_TINY, 0.0, np.exp(np.maximum(logp, _LOG_TINY)) * h)


def _reg_lower_gamma_frozen(a, x):
    out = np.zeros(a.shape[0], dtype=np.float64)
    ser = x < a + 1.0
    out[ser] = _series_lanes_frozen(a[ser], x[ser])
    out[~ser] = np.clip(1.0 - _cf_lanes_frozen(a[~ser], x[~ser]), 0.0, 1.0)
    return out


def test_compacted_lanes_match_lane_frozen_reference():
    rng = np.random.default_rng(20260816)
    n = 4000
    a = np.exp(rng.uniform(math.log(0.3), math.log(3000.0), n))
    # x around a, spread over a few standard deviations either side, so lanes
    # fall in both branches and converge after very different step counts
    x = np.maximum(a + rng.uniform(-4.0, 4.0, n) * np.sqrt(a), 1e-3)
    ser = x < a + 1.0
    assert ser.sum() > 1000 and (~ser).sum() > 1000
    got = kernels.reg_lower_gamma_arr(a, x)
    want = _reg_lower_gamma_frozen(a, x)
    assert np.array_equal(got, want)


@pytest.mark.parametrize("as_array", [False, True])
def test_iteration_cap_raises(as_array):
    # the series needs about sqrt(2 a ln 1e16) terms near x = a, far over the
    # cap at a = 1e6; the partial sum used to come back as P = 0.226
    t = np.array([1e6]) if as_array else 1e6
    with pytest.raises(ConvergenceError):
        ss.gamma_cdf(t, 1e6, 1.0)


def test_iteration_cap_raises_on_mixed_lanes():
    with pytest.raises(ConvergenceError):
        kernels.reg_lower_gamma_arr(np.array([2.0, 1e6, 2.0]),
                                    np.array([1.0, 1e6, 5.0]))


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


def test_bracket_is_trivial_below_shape_one():
    lo, hi = kernels.reg_lower_gamma_bounds(np.array([0.3, 0.99]),
                                            np.array([0.5, 5.0]))
    assert np.array_equal(lo, [0.0, 0.0]) and np.array_equal(hi, [1.0, 1.0])
