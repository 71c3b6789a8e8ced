"""Low-level numeric kernels on plain Python floats and numpy arrays.

The hot loops are the regularized incomplete gamma, the digamma-family
Newton solve for the pooled Gamma shape, and quantile inversion. Each has a
scalar kernel for single evaluations. The incomplete gamma has one kernel:
its array form runs the scalar kernel lane by lane, so an array call gives
every lane the scalar kernel's bits, whatever other lanes share the call.
The pooled-shape solve also has a numpy array variant for the planner's
grid; a one-lane call of it would cost about a hundred times more than the
scalar solve.

The incomplete-gamma kernel has three branches. For a > 30 and
|x - a| < 0.3 a it evaluates Temme's uniform asymptotic expansion in
closed form (Temme 1979, SIAM J. Math. Anal. 10:757; coefficients and
region after DiDonato & Morris 1986, ACM TOMS 12:377), as straight-line
code: the atanh series of log1pmx and the seven coefficient rows are
written out as Horner expressions, not looped over tables. Elsewhere it sums
the power series for x < a + 1 and Lentz's continued fraction for the
upper tail above. Their prefactor x^a e^-x / Gamma(a) comes from log(x/a)
and the Stirling series for a > 30, where a log x and lgamma(a) are too
large to subtract accurately, and from lgamma for a <= 30.

The series and the continued fraction raise
:class:`~satsched.errors.ConvergenceError` when an evaluation uses up
``_MAX_ITER`` steps, instead of returning the partial sum; the quantile
inversion raises it when its bracket doubling or its Newton loop runs out,
instead of returning the last iterate.

``reg_lower_gamma_bounds`` brackets P(a, x) in closed form (no loop, no
lgamma): tangent and chord bounds of the log-concave density, with Gamma(a)
bracketed by Stirling-Binet; a shape below 1 is bracketed at a + 1 and
shifted back by the recurrence. The planner's grid pre-scan takes the
bracket in two stages with the same bits, in one pass over its lanes:
``reg_lower_gamma_tangent`` is the tangent side, for shapes of at least 1,
and also returns the log density factor; ``reg_lower_gamma_chords`` is the
chord side, on the lanes the tangent side leaves in doubt, reusing that
factor. The chord stage skips the lower chord where it cannot reach the
caller's threshold and gives shapes below 1 the shifted full bracket. The
exact kernel then runs only on the lanes whose feasibility flag is still in
doubt.

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
        q = math.sqrt(-2.0 * math.log(p))
        return (((((-7.784894002430293e-03 * q - 3.223964580411365e-01) * q
                   - 2.400758277161838e+00) * q - 2.549732539343734e+00) * q
                 + 4.374664141464968e+00) * q + 2.938163982698783e+00) / \
               ((((7.784695709041462e-03 * q + 3.224671290700398e-01) * q
                  + 2.445134137142996e+00) * q + 3.754408661907416e+00) * q + 1.0)
    if p <= 0.97575:
        q = p - 0.5
        r = q * q
        return (((((-3.969683028665376e+01 * r + 2.209460984245205e+02) * r
                   - 2.759285104469687e+02) * r + 1.383577518672690e+02) * r
                 - 3.066479806614716e+01) * r + 2.506628277459239e+00) * q / \
               (((((-5.447609879822406e+01 * r + 1.615858368580409e+02) * r
                   - 1.556989798598866e+02) * r + 6.680131188771972e+01) * r
                 - 1.328068155288572e+01) * r + 1.0)
    q = math.sqrt(-2.0 * math.log(1.0 - p))
    return -(((((-7.784894002430293e-03 * q - 3.223964580411365e-01) * q
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
        r2 = 1.0 / (a * a)
        logp = (a * (math.log(ratio) - sigma) + 0.5 * math.log(a)
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


def _upper_chord(a, x, log_lo_density):
    # Q(a, x) >= the chord of the density over [x, x + w], w = 1.5 sqrt(a)
    w = 1.5 * np.sqrt(a)
    d = (a - 1.0) * np.log1p(w / x) - w
    return np.exp(log_lo_density + np.log(w) + _log_chord_factor(d))


def _lower_chord(a, x, log_lo_density):
    # P(a, x) >= the chord of the density over [x - w, x], w as above but
    # capped at x/2
    w = np.minimum(1.5 * np.sqrt(a), 0.5 * x)
    d = (a - 1.0) * np.log1p(-w / x) + w
    return np.exp(log_lo_density + np.log(w) + _log_chord_factor(d))


# The lower chord's mass is at most its width 1.5 sqrt(a) times the mode
# density, and the mode density is below 1/sqrt(2 pi (a - 1)) (Stirling), so
# it stays below lo_th wherever lo_th^2 (a - 1) > 1.5^2 / (2 pi) a. The cap
# sits 3% above 1.5^2 / (2 pi) = 0.3581, far above the chord's rounding.
_LOWER_CHORD_CAP = 0.37


def reg_lower_gamma_tangent(a, x):
    # The tangent side of reg_lower_gamma_bounds alone, same bits:
    # lo <= P(a, x) <= hi on arrays, x > 0, with one log1p, one log and one
    # exp pass. The tangent bound needs a log-concave density, so a lane
    # with a < 1 gets [0, 1]. The bounds are not clipped to [0, 1]. Also
    # returns log g, which reg_lower_gamma_chords reuses on the lanes this
    # bracket leaves in doubt.
    a = np.asarray(a, dtype=np.float64)
    x = np.asarray(x, dtype=np.float64)
    log_g, right, tan = _tangent_terms(a, x)
    lo = np.where(right, 1.0 - tan, 0.0)
    hi = np.where(right, 1.0, tan)
    small = a < 1.0
    if small.any():
        lo[small] = 0.0
        hi[small] = 1.0
    return lo, hi, log_g


def reg_lower_gamma_chords(a, x, log_g, lo_th):
    # The chord side of reg_lower_gamma_bounds, for the lanes a tangent pass
    # left in doubt: lo <= P(a, x) <= hi, not clipped, with log_g taken from
    # reg_lower_gamma_tangent on the same lanes instead of computed again.
    # hi is 1 - the upper chord on every lane. lo is the lower chord only
    # where that could reach lo_th (see _LOWER_CHORD_CAP), else 0, so a
    # threshold the lower chord cannot meet costs no lower-chord pass. A lane
    # with a < 1 gets the shifted full bracket of reg_lower_gamma_bounds.
    a = np.asarray(a, dtype=np.float64)
    x = np.asarray(x, dtype=np.float64)
    log_lo_density = log_g - 1.0 / (12.0 * a) - np.log(x)
    hi = 1.0 - _upper_chord(a, x, log_lo_density)
    lo = np.zeros(a.shape)
    reach = lo_th * lo_th * (a - 1.0) <= _LOWER_CHORD_CAP * a
    if reach.any():
        lo[reach] = _lower_chord(a[reach], x[reach], log_lo_density[reach])
    small = a < 1.0
    if small.any():
        lo[small], hi[small] = reg_lower_gamma_bounds(a[small], x[small])
    return lo, hi


def reg_lower_gamma_bounds(a, x):
    # Closed-form bracket lo <= P(a, x) <= hi on arrays, x > 0, no loop.
    # For a >= 1, log t^(a-1) e^(-t) is concave, so its tangent at x bounds
    # the density above and its chords bound it below.
    # Tangent: Q <= g/(x-a+1) for x > a-1, P <= g/(a-1-x) for x < a-1.
    # Chord:   Q >= (g/x) w (e^d - 1)/d over [x, x+w], w = 1.5 sqrt(a), and
    # P likewise over [x-w, x] (w capped at x/2), where d is the change of
    # the log density across the chord.
    # Here g = x^a e^(-x) / Gamma(a), with Gamma(a) bracketed by
    # Stirling-Binet: S(a) <= Gamma(a) <= S(a) e^(1/(12a)),
    # S(a) = sqrt(2 pi) a^(a-1/2) e^(-a).
    # A lane with a < 1 is bracketed at a + 1 and shifted back by
    # P(a, x) = P(a+1, x) + g(a+1)/x, with g(a+1) bracketed as above.
    a = np.asarray(a, dtype=np.float64)
    x = np.asarray(x, dtype=np.float64)
    small = a < 1.0
    shift = small.any()  # most calls have no such lane: skip the extra passes
    if shift:
        a = np.where(small, a + 1.0, a)
    log_g, right, tan = _tangent_terms(a, x)
    log_lo_density = log_g - 1.0 / (12.0 * a) - np.log(x)
    q_lo = _upper_chord(a, x, log_lo_density)
    p_lo = _lower_chord(a, x, log_lo_density)
    lo = np.maximum(p_lo, np.where(right, 1.0 - tan, 0.0))
    hi = np.minimum(1.0 - q_lo, np.where(right, 1.0, tan))
    if shift:
        lo[small] += np.exp(log_lo_density[small])
        hi[small] += np.exp(log_g[small] - np.log(x[small]))
    return np.clip(lo, 0.0, 1.0), np.clip(hi, 0.0, 1.0)


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
    _, _, log_g = reg_lower_gamma_tangent(one + 1.0, one)
    reg_lower_gamma_chords(one + 1.0, one, log_g, 0.5)
    reg_lower_gamma_bounds(one + 1.0, one)
    digamma_arr(one)
    solve_gamma_shape_arr(one * 0.01)
