"""Incomplete-gamma kernels: iteration cap, large shapes, and the
closed-form bracket of the planner's pre-scan screen.

The array form runs the scalar kernel per lane; that its results equal the
scalar path bit for bit is checked in ``test_numerics.py``.
"""

import math

import numpy as np
import pytest

import satsched as ss
from satsched import kernels
from satsched.errors import ConvergenceError


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
