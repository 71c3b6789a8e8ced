"""Low-level numeric kernels on plain Python floats and numpy arrays.

The hot loops are the regularized incomplete gamma, the digamma-family
Newton solve for the pooled Gamma shape, and quantile inversion. Each has a
scalar kernel for single evaluations. The incomplete gamma has one kernel:
its array form runs the scalar kernel lane by lane, so an array call gives
every lane the scalar kernel's bits, whatever other lanes share the call.
The pooled-shape solve also has a numpy array variant, which solves the
ground truth's pooled shapes on the planner's grid; the scalar solve serves
the Gamma MLE fit, where a one-lane array call would cost about a hundred
times more. :func:`shape_equation_slope_arr` gives the slope of the
solve's equation, from which the ground truth takes the pooled shape's
slope in frequency for its interpolant between grid clocks.

The incomplete-gamma kernel has three branches. For a > 30 and
|x - a| < 0.3 a it evaluates Temme's uniform asymptotic expansion in
closed form (Temme 1979, SIAM J. Math. Anal. 10:757; coefficients and
region after DiDonato & Morris 1986, ACM TOMS 12:377), as straight-line
code: the atanh series of log1pmx and the seven coefficient rows are
written out as Horner expressions, not looped over tables. Elsewhere it sums
the power series for x < a + 1 and Lentz's continued fraction for the
upper tail above. Their prefactor x^a e^-x / Gamma(a) comes from log(x/a)
and the Stirling series for a > 30, where a log x and lgamma(a) are too
large to subtract accurately, and from lgamma for a <= 30. Just left of
the Temme region, for 0.5 < x/a <= 0.7, log(x/a) - (x - a)/a would cancel,
so there the atanh series gives it, as in the Temme branch.

The series and the continued fraction raise
:class:`~satsched.errors.ConvergenceError` when an evaluation uses up
``_MAX_ITER`` steps, instead of returning the partial sum; the quantile
inversion raises it when its bracket doubling or its Newton loop runs out,
instead of returning the last iterate.

The planner's grid pre-scan asks only whether P(a, x) >= p on each lane;
:func:`reg_lower_gamma_at_least` answers that, exactly, and its docstring
describes how closed-form bounds spare most lanes the exact kernel.

Everything here is a pure function and assumes in-domain inputs; nothing
here checks an argument. The callers do: the public functions of
:mod:`satsched.numerics` with the helpers of :mod:`satsched.errors`, and
the scheduler and harness, which call some kernels directly, on values they
have checked or derived themselves.
"""

import math

import numpy as np

from .errors import ConvergenceError

BACKEND = "numpy"

_MAX_ITER = 600
_CONV_EPS = 1e-16
_LOG_TINY = -745.0  # below this exp() underflows float64
_FPMIN = 1e-300
_INV_SQRT2 = 0.7071067811865476
_HALF_LOG_2PI = 0.9189385332046727
_INV_SQRT_2PI = 0.3989422804014327
_CDF_CAP_MSG = "incomplete gamma did not converge within the iteration cap"

# Temme's expansion serves shapes above _TEMME_MIN_SHAPE with
# |x - a| < _TEMME_HALF_WIDTH * a; above that shape the series and the
# continued fraction take their prefactor from log(x/a) and the Stirling
# series instead of lgamma.
_TEMME_MIN_SHAPE = 30.0
_TEMME_HALF_WIDTH = 0.3
# left of Temme's region, down to this sigma = (x - a) / a, the series
# branch takes a log1pmx(sigma) from the atanh series
_LOG1PMX_SERIES_MIN_SIGMA = -0.5


def q_func(x: float) -> float:
    # Gaussian tail probability P(Z > x)
    return 0.5 * math.erfc(x * _INV_SQRT2)


def norm_ppf_approx(p: float) -> float:
    # Acklam rational approximation to the standard normal quantile.
    # |relative error| < 1.2e-9; callers polish when they need more.
    if p <= 0.0:
        return -math.inf
    if p >= 1.0:
        return math.inf
    if p < 0.02425:
        return _acklam_lower_tail(p)
    if p <= 0.97575:
        q = p - 0.5
        r = q * q
        return (((((-3.969683028665376e+01 * r + 2.209460984245205e+02) * r
                   - 2.759285104469687e+02) * r + 1.383577518672690e+02) * r
                 - 3.066479806614716e+01) * r + 2.506628277459239e+00) * q / \
               (((((-5.447609879822406e+01 * r + 1.615858368580409e+02) * r
                   - 1.556989798598866e+02) * r + 6.680131188771972e+01) * r
                 - 1.328068155288572e+01) * r + 1.0)
    # the upper tail mirrors the lower one: x(p) = -x(1 - p)
    return -_acklam_lower_tail(1.0 - p)


def _acklam_lower_tail(p: float) -> float:
    q = math.sqrt(-2.0 * math.log(p))
    return (((((-7.784894002430293e-03 * q - 3.223964580411365e-01) * q
               - 2.400758277161838e+00) * q - 2.549732539343734e+00) * q
             + 4.374664141464968e+00) * q + 2.938163982698783e+00) / \
           ((((7.784695709041462e-03 * q + 3.224671290700398e-01) * q
              + 2.445134137142996e+00) * q + 3.754408661907416e+00) * q + 1.0)


def reg_lower_gamma(a: float, x: float) -> float:
    # Regularized lower incomplete gamma P(a, x).
    return _reg_lower_gamma_lane(a, x)


def _reg_lower_gamma_lane(a, x):
    # Three branches. For a > _TEMME_MIN_SHAPE and
    # |x - a| < _TEMME_HALF_WIDTH * a, Temme's uniform expansion in closed
    # form; otherwise the power series for x < a + 1 and Lentz's continued
    # fraction for the upper tail.
    # The array form calls this body, not the public name, so a wrapper
    # bound to reg_lower_gamma sees one call per array call, not per lane.
    if x <= 0.0:
        return 0.0
    if a > _TEMME_MIN_SHAPE:
        sigma = (x - a) / a
        if -_TEMME_HALF_WIDTH < sigma < _TEMME_HALF_WIDTH:
            # log1pmx(sigma) = log(1 + sigma) - sigma through
            # log(1 + sigma) = 2 atanh(u), u = sigma / (2 + sigma): the odd
            # series 1/(2j+1), j = 12 .. 1, in Horner form; |u| <= 0.3/1.7
            # here, where 12 terms reach 1e-20 relative
            u = sigma / (2.0 + sigma)
            u2 = u * u
            s = (((((((((((0.04 * u2
                           + 0.043478260869565216) * u2
                          + 0.047619047619047616) * u2
                         + 0.05263157894736842) * u2
                        + 0.058823529411764705) * u2
                       + 0.06666666666666667) * u2
                      + 0.07692307692307693) * u2
                     + 0.09090909090909091) * u2
                    + 0.1111111111111111) * u2
                   + 0.14285714285714285) * u2
                  + 0.2) * u2
                 + 0.3333333333333333)
            log1pmx = 2.0 * u * u2 * s - sigma * sigma / (2.0 + sigma)
            eta = math.sqrt(-2.0 * log1pmx)
            if sigma < 0.0:
                eta = -eta
            # C_k(eta) = sum_n d[k][n] eta^n, k = 6 .. 0, each by Horner
            # from its highest degree 13 - 2k down. Temme's coefficients
            # (Temme 1979; DiDonato & Morris 1986; the same values as Cephes
            # igam.c), by exact rational series reversion of
            # lambda - 1 - ln(lambda) = eta^2/2 and
            # C_k = C'_{k-1}/eta + g_k/(lambda - 1), with g_k = 1, 1/12,
            # 1/288, ... the Stirling coefficients of Gamma*(a). In the
            # region the truncation leaves the smaller tail within 4e-14
            # relative of mpmath (the dropped a^-7 row would cost 3e-13 at
            # a = 20, hence the shape floor of 30). Written out, not looped
            # over a table: the same operations in the same order, so the
            # same bits, without the loop overhead.
            c6 = (-0.0005921664373536939 * eta
                  + 0.0005313079364639922)
            c5 = (((-0.00019932570516188847 * eta
                    + 0.0002772753244959392) * eta
                   - 6.972813758365857e-05) * eta
                  - 0.00033679855336635813)
            c4 = (((((-3.968365047179435e-05 * eta
                      + 6.641498215465122e-05) * eta
                     - 1.4638452578843418e-06) * eta
                    - 0.0002990724803031902) * eta
                   + 0.0007840392217200666) * eta
                  - 0.0008618882909167117)
            c3 = (((((((-5.6749528269915965e-06 * eta
                        + 1.1082654115347302e-05) * eta
                       - 2.396505113867297e-07) * eta
                      - 7.561801671883977e-05) * eta
                     + 0.00026772063206283885) * eta
                    - 0.0004691894943952557) * eta
                   + 0.00022947209362139917) * eta
                  + 0.0006494341563786008)
            c2 = (((((((((-6.298992138380055e-07 * eta
                          + 1.3721957309062934e-06) * eta
                         + 3.423578734096138e-08) * eta
                        - 1.2760635188618728e-05) * eta
                       + 5.2923448829120125e-05) * eta
                      - 0.0001073665322636516) * eta
                     + 2.0093878600823047e-06) * eta
                    + 0.0007716049382716049) * eta
                   - 0.0026813271604938273) * eta
                  + 0.004133597883597883)
            c1 = (((((((((((-5.752545603517705e-08 * eta
                            + 1.378633446915721e-07) * eta
                           + 4.647127802807434e-09) * eta
                          - 1.6120900894563446e-06) * eta
                         + 7.64916091608111e-06) * eta
                        - 1.8098550334489977e-05) * eta
                       - 4.018775720164609e-07) * eta
                      + 0.00020576131687242798) * eta
                     - 0.0009902263374485596) * eta
                    + 0.0026455026455026454) * eta
                   - 0.003472222222222222) * eta
                  - 0.001851851851851852)
            c0 = (((((((((((((-4.382036018453353e-09 * eta
                              + 1.0261809784240309e-08) * eta
                             + 6.707853543401498e-09) * eta
                            - 1.7665952736826078e-07) * eta
                           + 8.296711340953087e-07) * eta
                          - 1.85406221071516e-06) * eta
                         - 2.185448510679992e-06) * eta
                        + 3.919263178522438e-05) * eta
                       - 0.0001787551440329218) * eta
                      + 0.0003527336860670194) * eta
                     + 0.0011574074074074073) * eta
                    - 0.014814814814814815) * eta
                   + 0.08333333333333333) * eta
                  - 0.3333333333333333)
            inv_a = 1.0 / a
            total = ((((((c6 * inv_a + c5) * inv_a + c4) * inv_a + c3) * inv_a
                       + c2) * inv_a + c1) * inv_a + c0)
            # R = e^(-a eta^2/2) / sqrt(2 pi a) * sum_k C_k(eta) a^-k
            r = math.exp(a * log1pmx) * _INV_SQRT_2PI / math.sqrt(a) * total
            y = eta * math.sqrt(0.5 * a)
            if eta > 0.0:
                # Q = erfc(y)/2 + R is the smaller tail
                return 1.0 - (0.5 * math.erfc(y) + r)
            return 0.5 * math.erfc(-y) - r
        # log(x^a e^-x / Gamma(a)) with the Stirling-series remainder of
        # lgamma in closed form: a log x and lgamma(a) are both large here,
        # and the rounding of their difference would cost up to 1e-12 of P
        ratio = x / a
        if ratio == 0.0:
            return 0.0  # P < ratio^a, far below the smallest float
        if _LOG1PMX_SERIES_MIN_SIGMA < sigma < 0.0:
            # just left of Temme's region log(x/a) - sigma cancels to a
            # sixth to a quarter of its terms; the atanh series of log1pmx
            # as in Temme's branch, 18 terms, past 1e-19 relative at
            # |u| <= 1/3
            u = sigma / (2.0 + sigma)
            u2 = u * u
            s = (((((((((((((((((0.02702702702702703 * u2
                                + 0.02857142857142857) * u2
                               + 0.030303030303030304) * u2
                              + 0.03225806451612903) * u2
                             + 0.034482758620689655) * u2
                            + 0.037037037037037035) * u2
                           + 0.04) * u2
                          + 0.043478260869565216) * u2
                         + 0.047619047619047616) * u2
                        + 0.05263157894736842) * u2
                       + 0.058823529411764705) * u2
                      + 0.06666666666666667) * u2
                     + 0.07692307692307693) * u2
                    + 0.09090909090909091) * u2
                   + 0.1111111111111111) * u2
                  + 0.14285714285714285) * u2
                 + 0.2) * u2
                + 0.3333333333333333)
            a_log1pmx = a * (2.0 * u * u2 * s - sigma * sigma / (2.0 + sigma))
        else:
            a_log1pmx = a * (math.log(ratio) - sigma)
        r2 = 1.0 / (a * a)
        logp = (a_log1pmx + 0.5 * math.log(a)
                - _HALF_LOG_2PI - (1.0 / 12.0 - r2 * (
                    1.0 / 360.0 - r2 * (1.0 / 1260.0 - r2 / 1680.0))) / a)
    else:
        logp = a * math.log(x) - x - math.lgamma(a)
    below = x < a + 1.0
    if logp < _LOG_TINY:
        # the prefactor underflows, so P is 0 below the mode and 1 above
        # it, the values the loops below return once they converge; at huge
        # shapes the continued fraction never meets its stop rule there
        return 0.0 if below else 1.0
    if below:
        ap = a
        term = 1.0 / a
        total = term
        for _ in range(_MAX_ITER):
            ap += 1.0
            term *= x / ap
            total += term
            if abs(term) < abs(total) * _CONV_EPS:
                break
        else:
            raise ConvergenceError(_CDF_CAP_MSG)
        val = total * math.exp(logp)
        if val > 1.0:
            return 1.0
        return val
    # continued fraction evaluates the upper tail Q(a, x)
    b = x + 1.0 - a
    c = 1.0 / _FPMIN
    d = 1.0 / b
    h = d
    for i in range(1, _MAX_ITER + 1):
        an = -float(i) * (float(i) - a)
        b += 2.0
        d = an * d + b
        if abs(d) < _FPMIN:
            d = _FPMIN
        c = b + an / c
        if abs(c) < _FPMIN:
            c = _FPMIN
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < _CONV_EPS:
            break
    else:
        raise ConvergenceError(_CDF_CAP_MSG)
    p = 1.0 - h * math.exp(logp)
    if p < 0.0:
        return 0.0
    if p > 1.0:
        return 1.0
    return p


def digamma(x: float) -> float:
    # recurrence up to x >= 10, then the asymptotic series
    r = 0.0
    while x < 10.0:
        r -= 1.0 / x
        x += 1.0
    f = 1.0 / (x * x)
    return r + math.log(x) - 0.5 / x - f * (
        1.0 / 12.0 - f * (1.0 / 120.0 - f * (1.0 / 252.0 - f * (1.0 / 240.0 - f * (1.0 / 132.0)))))


def trigamma(x: float) -> float:
    r = 0.0
    while x < 15.0:
        r += 1.0 / (x * x)
        x += 1.0
    f = 1.0 / (x * x)
    return r + 1.0 / x + f * (
        0.5 + (1.0 / x) * (1.0 / 6.0 - f * (1.0 / 30.0 - f * (1.0 / 42.0 - f * (1.0 / 30.0)))))


def solve_gamma_shape(s: float):
    # Solve ln(a) - digamma(a) = s for a > 0 (s > 0).
    # Returns (shape, iterations, converged 0/1).
    if s <= 0.0:
        return 0.0, 0, 0
    a = (3.0 - s + math.sqrt((s - 3.0) * (s - 3.0) + 24.0 * s)) / (12.0 * s)
    if a <= 0.0:
        a = 1e-8
    for it in range(1, 101):
        h = math.log(a) - digamma(a) - s
        if abs(h) < 1e-12:
            return a, it, 1
        hp = 1.0 / a - trigamma(a)
        a_new = a - h / hp
        if a_new <= 0.0:
            a_new = 0.5 * a
        a = a_new
    return a, 100, 0


def gamma_quantile_unit(p: float, a: float) -> float:
    # Inverse of P(a, .) at probability p, unit scale.
    # Wilson-Hilferty start, bracketed Newton afterwards.
    z = norm_ppf_approx(p)
    t = 1.0 - 1.0 / (9.0 * a) + z / (3.0 * math.sqrt(a))
    if t > 0.0:
        x = a * t * t * t
    else:
        x = 0.0
    if x <= 0.0:
        # small-x asymptote of the lower tail
        x = math.exp((math.log(p) + math.lgamma(a + 1.0)) / a)
    lo = 0.0
    hi = x
    if hi <= 0.0:
        hi = a
    tries = 0
    while reg_lower_gamma(a, hi) < p:
        if tries == 400:
            raise ConvergenceError(
                "gamma quantile: no upper bracket within 400 doublings")
        hi *= 2.0
        tries += 1
    if x <= lo or x >= hi:
        x = 0.5 * hi
    for _ in range(200):
        f = reg_lower_gamma(a, x) - p
        if f > 0.0:
            hi = x
        else:
            lo = x
        logpdf = (a - 1.0) * math.log(x) - x - math.lgamma(a)
        if logpdf > _LOG_TINY:
            xn = x - f / math.exp(logpdf)
        else:
            xn = -1.0
        if not (lo < xn < hi):
            xn = 0.5 * (lo + hi)
        if abs(xn - x) <= 1e-13 * (abs(xn) + _FPMIN):
            return xn
        x = xn
    raise ConvergenceError(
        "gamma quantile: Newton did not converge within 200 steps")


# ---------------------------------------------------------------------------
# array variants


def reg_lower_gamma_arr(a, x):
    # P(a, x) on 1-d arrays, the scalar kernel lane by lane
    a = np.ascontiguousarray(a, dtype=np.float64)
    x = np.ascontiguousarray(x, dtype=np.float64)
    return np.fromiter(map(_reg_lower_gamma_lane, a.tolist(), x.tolist()),
                       np.float64, count=a.shape[0])


def _log_chord_factor(d):
    # log((e^d - 1) / d), finite for every finite d (0 at d = 0)
    with np.errstate(all="ignore"):
        big = d > 1.0
        return np.where(big, d + np.log1p(-np.exp(-d)) - np.log(d),
                        np.where(d == 0.0, 0.0, np.log(np.expm1(d) / d)))


def _tangent_terms(a, x):
    # log g, with g = x^a e^(-x) / S(a) >= x^a e^(-x) / Gamma(a), and the
    # tangent bound g / |x - (a-1)| of the smaller side (see the bracket)
    v = (x - a) / a
    log_g = a * (np.log1p(v) - v) + 0.5 * np.log(a) - _HALF_LOG_2PI
    am1 = a - 1.0
    right = x > am1
    with np.errstate(divide="ignore"):
        tan = np.exp(log_g) / np.abs(x - am1)
    return log_g, right, tan


def _reg_lower_gamma_tangent(a, x):
    # lo <= P(a, x) <= hi on arrays, x > 0, with one log1p, one log and one
    # exp pass. For a >= 1, log t^(a-1) e^(-t) is concave, so its tangent at
    # x bounds the density above: Q <= g/(x-a+1) for x > a-1 and
    # P <= g/(a-1-x) for x < a-1, where g = x^a e^(-x) / S(a) and
    # S(a) = sqrt(2 pi) a^(a-1/2) e^(-a) <= Gamma(a) <= S(a) e^(1/(12a))
    # (Stirling-Binet). A lane with a < 1, whose density is not log-concave,
    # gets [0, 1]. The bounds are not clipped to [0, 1]. Also returns log g,
    # which the chord stage reuses on the lanes left in doubt; None when
    # every lane is below shape 1, where no tangent term is computed.
    small = a < 1.0
    some_small = small.any()
    if some_small and small.all():
        return np.zeros(a.shape), np.ones(a.shape), None
    log_g, right, tan = _tangent_terms(a, x)
    lo = np.where(right, 1.0 - tan, 0.0)
    hi = np.where(right, 1.0, tan)
    if some_small:
        lo[small] = 0.0
        hi[small] = 1.0
    return lo, hi, log_g


def _reg_lower_gamma_chord(a, x, log_g):
    # P(a, x) <= hi on arrays, a >= 1, not clipped, with log_g taken from the
    # tangent pass on the same lanes instead of computed again. The chord of
    # the log-concave density over [x, x + w], w = 1.5 sqrt(a), bounds it
    # below, so Q >= (g/x) w (e^d - 1)/d, where d is the change of the log
    # density across the chord, and hi = 1 - that
    w = 1.5 * np.sqrt(a)
    d = (a - 1.0) * np.log1p(w / x) - w
    log_lo_density = log_g - 1.0 / (12.0 * a) - np.log(x)
    return 1.0 - np.exp(log_lo_density + np.log(w) + _log_chord_factor(d))


# a bound settles a lane only when it clears p by this much, the exact
# kernel when its value clears p by twice as much
_SCREEN_MARGIN = 1e-9
# a call on at most this many lanes runs the exact kernel on each at once:
# there the bounds' fixed cost of a few dozen array passes exceeds the
# scalar kernel's
_EXACT_ONLY_LANES = 4


def _settled(lo, hi, p):
    # lanes a bracket proves P >= p, and lanes it leaves in doubt (for
    # bools, b > a is b & ~a)
    above = lo >= p + _SCREEN_MARGIN
    return above, (hi >= p - _SCREEN_MARGIN) > above


def _exact_at_least(a, x, p):
    # the exact kernel's flags, and the mask of the lanes it puts at least 2
    # margins from p, or True when that is every lane; the few lanes that
    # reach here are checked in Python, cheaper than array passes
    cdf = reg_lower_gamma_arr(a, x)
    lo, hi = p - 2.0 * _SCREEN_MARGIN, p + 2.0 * _SCREEN_MARGIN
    near = [i for i, c in enumerate(cdf.tolist()) if lo < c < hi]
    settled = True
    if near:
        settled = np.ones(a.shape, dtype=bool)
        settled[near] = False
    return cdf >= p, settled


def reg_lower_gamma_at_least(a, x, p):
    """Flags P(a, x) >= p on 1-d float64 arrays, the exact kernel's on every
    lane, a > 0, x > 0, 0 < p < 1, and the lanes settled with margin.

    Returns ``(flags, settled)``, ``settled`` a bool mask or True when it
    is set on every lane. Closed-form bounds on P spare most lanes the
    exact kernel (:func:`reg_lower_gamma_arr`). A bound settles a lane when
    lo >= p + _SCREEN_MARGIN (flag set) or hi < p - _SCREEN_MARGIN (flag
    clear), a margin far above the rounding of the bound and of the exact
    kernel. Each stage takes the lanes the last one left in doubt:

    1. the tangent bracket lo <= P <= hi, on every lane (trivial below
       shape 1, and not computed at all when every lane is below 1);
    2. on lanes of shape 1 or more, the upper chord, a bound P <= hi alone
       that reuses the tangent pass's density factor, so it can only prove
       a flag clear;
    3. the exact kernel, on the lanes still in doubt, those below shape 1
       among them.

    A call on at most _EXACT_ONLY_LANES lanes goes straight to stage 3.
    ``settled`` is set on every lane a bound settled and on every exact
    lane whose value lies at least 2 * _SCREEN_MARGIN from p; it is clear
    only on exact lanes closer to p than that. So the true P of a settled
    lane clears p by more than the exact kernel's rounding, and since P
    rises in x, a set flag holds at every x' >= x and a clear one at every
    x' <= x: the scheduler's pre-scan bounds rest on this and nothing more.

    Unchecked; the stages are looked up as module globals at call time.
    """
    if a.shape[0] <= _EXACT_ONLY_LANES:
        return _exact_at_least(a, x, p)
    lo, hi, log_g = _reg_lower_gamma_tangent(a, x)
    flags, doubt = _settled(lo, hi, p)
    doubt = np.flatnonzero(doubt)
    if doubt.size == 0:
        return flags, True
    # a doubt lane's flag is clear; the chord keeps in doubt only the lanes
    # it cannot prove below p, and has no bound below shape 1
    left = a[doubt] < 1.0
    chord = doubt[~left]
    if chord.size:
        left[~left] = _reg_lower_gamma_chord(
            a[chord], x[chord], log_g[chord]) >= p - _SCREEN_MARGIN
    exact = doubt[left]
    settled = True
    if exact.size:
        flags[exact], near = _exact_at_least(a[exact], x[exact], p)
        if near is not True:
            settled = np.ones(a.shape, dtype=bool)
            settled[exact] = near
    return flags, settled


def digamma_arr(x):
    x = np.array(x, dtype=np.float64, copy=True)
    r = np.zeros_like(x)
    m = x < 10.0
    while m.any():
        r[m] -= 1.0 / x[m]
        x[m] += 1.0
        m = x < 10.0
    f = 1.0 / (x * x)
    return r + np.log(x) - 0.5 / x - f * (
        1.0 / 12.0 - f * (1.0 / 120.0 - f * (1.0 / 252.0 - f * (1.0 / 240.0 - f * (1.0 / 132.0)))))


def _trigamma_arr(x):
    x = np.array(x, dtype=np.float64, copy=True)
    r = np.zeros_like(x)
    m = x < 15.0
    while m.any():
        r[m] += 1.0 / (x[m] * x[m])
        x[m] += 1.0
        m = x < 15.0
    f = 1.0 / (x * x)
    return r + 1.0 / x + f * (
        0.5 + (1.0 / x) * (1.0 / 6.0 - f * (1.0 / 30.0 - f * (1.0 / 42.0 - f * (1.0 / 30.0)))))


def solve_gamma_shape_arr(s):
    s = np.ascontiguousarray(s, dtype=np.float64)
    a = (3.0 - s + np.sqrt((s - 3.0) * (s - 3.0) + 24.0 * s)) / (12.0 * s)
    a = np.where(a <= 0.0, 1e-8, a)
    conv = np.zeros(s.shape[0], dtype=bool)
    for _ in range(100):
        h = np.log(a) - digamma_arr(a) - s
        conv |= np.abs(h) < 1e-12
        active = ~conv
        if not active.any():
            break
        hp = 1.0 / a - _trigamma_arr(a)
        a_new = a - h / hp
        a_new = np.where(a_new <= 0.0, 0.5 * a, a_new)
        a = np.where(active, a_new, a)
    return a, conv


def shape_equation_slope_arr(x):
    # d/dx [ln(x) - digamma(x)] = 1/x - trigamma(x) < 0, without the
    # cancellation of its two terms at large x: the recurrence
    # g'(x) = g'(x + 1) - 1 / (x^2 (x + 1)) adds terms of one sign up to
    # x >= 15, then the asymptotic series of trigamma less its 1/x term
    x = np.array(x, dtype=np.float64, copy=True)
    r = np.zeros_like(x)
    m = x < 15.0
    while m.any():
        r[m] -= 1.0 / (x[m] * x[m] * (x[m] + 1.0))
        x[m] += 1.0
        m = x < 15.0
    f = 1.0 / (x * x)
    return r - f * (0.5 + (1.0 / x) * (1.0 / 6.0 - f * (
        1.0 / 30.0 - f * (1.0 / 42.0 - f * (1.0 / 30.0 - f * (5.0 / 66.0))))))


def warm_up() -> None:
    """Call every kernel once on small in-domain inputs.

    Callers that time steady-state work call it first, so first calls fall
    outside their timed loop; the kernels keep no state, so it changes no
    later result.
    """
    reg_lower_gamma(2.0, 1.0)
    reg_lower_gamma(2.0, 5.0)
    digamma(1.5)
    trigamma(1.5)
    solve_gamma_shape(0.01)
    gamma_quantile_unit(0.5, 3.0)
    q_func(1.0)
    one = np.ones(2, dtype=np.float64)
    reg_lower_gamma_arr(one + 1.0, one)
    # more lanes than the exact-only path takes, all left in doubt by the
    # tangent pass and the chord, so every stage runs
    shapes = np.full(_EXACT_ONLY_LANES + 1, 8.0)
    reg_lower_gamma_at_least(shapes, shapes, 0.5)
    digamma_arr(one)
    solve_gamma_shape_arr(one * 0.01)
