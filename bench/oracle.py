"""Reference values for the benchmark's checks, computed without satsched.

Nothing here imports satsched. The inputs are plain numbers: the raw config
tree, the platform constants, the ground truth's per-image work multipliers
and a fitted model's polynomial coefficients. Everything else is derived
again from the formulas the package documents, written independently and
evaluated with scipy:

* the Gamma CDF is ``scipy.special.gammainc``;
* the pooled shape solves ln a - psi(a) = s with ``scipy.special.digamma``
  and ``scipy.optimize.brentq`` on a bracket;
* the per-image mean is mu_c * W / (cores * flops * f) + mu_sync;
* the radio legs use the law-of-cosines slant range, free-space loss in dB,
  the normal-approximation block error ``ndtr`` gives, and the closed-form
  ARQ mean (t_tx + eps * t_nack) / (1 - eps).
"""

import math

import numpy as np
from scipy import optimize, special

SPEED_OF_LIGHT = 299_792_458.0
EARTH_RADIUS_M = 6_371_000.0


class Channel:
    """Communication legs of the default link, from the raw config tree."""

    def __init__(self, raw: dict):
        link, grid, isl = raw["link"], raw["grid"], raw["isl"]
        exp = raw["experiment"]
        self.t_e2e_s = float(exp["t_e2e_s"])
        self.altitude_m = float(link["altitude_m"])
        self.carrier_hz = float(link["carrier_hz"])
        q = float(link["shadow_quantile"])
        margin_db = float(special.ndtri(q)) * float(link["shadow_sigma_db"])
        noise_dbw = (float(link["noise_psd_dbm_hz"]) - 30.0
                     + 10.0 * math.log10(float(link["bandwidth_hz"])))
        # every fixed term of the uplink budget in dB; path loss is added per
        # distance
        self.fixed_db = (10.0 * math.log10(float(link["tx_power_ul_w"]))
                         + float(link["gain_ue_dbi"]) + float(link["gain_sat_dbi"])
                         - float(link["pointing_loss_db"]) - noise_dbw - margin_db)
        scs = float(grid["subcarrier_spacing_hz"])
        self.blocklength = int(grid["blocklength"])
        self.rate = float(grid["rate_bits_per_use"])
        symbols = math.ceil(self.blocklength / int(grid["subcarriers"]))
        self.airtime_s = symbols / scs
        nack = grid["nack_delay_s"]
        self.nack_s = (int(grid["symbols_per_slot"]) / scs if nack is None
                       else float(nack))
        hops = int(isl["hops"])
        if hops == 0:
            self.isl_s = 0.0
        else:
            n_sats = int(isl["n_sats_in_ring"])
            hop = isl["hop_distance_m"]
            hop = (2.0 * (EARTH_RADIUS_M + self.altitude_m)
                   * math.sin(math.pi / n_sats)) if hop is None else float(hop)
            sym = isl["symbol_time_s"]
            sym = 1.0 / scs if sym is None else float(sym)
            sc = isl["subcarriers"]
            sc = int(grid["subcarriers"]) if sc is None else int(sc)
            per_hop = (2.0 * sym * math.ceil(self.blocklength / sc)
                       + 2.0 * hop / SPEED_OF_LIGHT)
            self.isl_s = hops * per_hop

    def slant_range_m(self, elevation_deg: float) -> float:
        r, h = EARTH_RADIUS_M, self.altitude_m
        el = math.radians(elevation_deg)
        return (math.sqrt((r + h) ** 2 - (r * math.cos(el)) ** 2)
                - r * math.sin(el))

    def uplink_s(self, elevation_deg: float) -> float:
        """Mean ARQ uplink delay; inf when every attempt fails."""
        d = self.slant_range_m(elevation_deg)
        fspl_db = 20.0 * math.log10(4.0 * math.pi * d * self.carrier_hz
                                    / SPEED_OF_LIGHT)
        snr = 10.0 ** ((self.fixed_db - fspl_db) / 10.0)
        capacity = math.log2(1.0 + snr)
        dispersion = (1.0 - 1.0 / (1.0 + snr) ** 2) * math.log2(math.e) ** 2
        eps = float(special.ndtr(-math.sqrt(self.blocklength / dispersion)
                                 * (capacity - self.rate)))
        if eps >= 1.0:
            return math.inf
        t_tx = self.airtime_s + d / SPEED_OF_LIGHT
        return (t_tx + eps * self.nack_s) / (1.0 - eps)

    def downlink_s(self, elevation_deg: float) -> float:
        return self.airtime_s + self.slant_range_m(elevation_deg) / SPEED_OF_LIGHT

    def t_proc_s(self, elevation_deg: float) -> float:
        """Deadline minus the three legs (-inf when the uplink diverges)."""
        return (self.t_e2e_s - self.uplink_s(elevation_deg) - self.isl_s
                - self.downlink_s(elevation_deg))


def _shape_gap(a: float) -> float:
    return math.log(a) - float(special.digamma(a))


def solve_pooled_shape(image_shape: float, gap: float) -> float:
    """Root of ln a - psi(a) = ln a_img - psi(a_img) + gap, by bracketing."""
    if gap == 0.0:
        return image_shape
    target = _shape_gap(image_shape) + gap
    # ln a - psi(a) falls monotonically from +inf to 0, and the root lies
    # below a_img because gap > 0
    lo = image_shape
    while _shape_gap(lo) <= target:
        lo *= 0.5
    return optimize.brentq(lambda a: _shape_gap(a) - target, lo, image_shape,
                           xtol=1e-300, rtol=4.0 * np.finfo(float).eps,
                           maxiter=500)


class GroundTruthModel:
    """Pooled per-image Gamma law of the synthetic ground truth.

    ``platform`` needs the attributes mu_c, work_flops, n_cores, n_flops,
    mu_sync_s, f_min_hz, f_max_hz and p_max_w; ``multipliers`` are the
    per-image work multipliers the ground truth was drawn with.
    """

    def __init__(self, platform, cv: float, variance_model: str, multipliers):
        self.work_hz_s = (float(platform.mu_c) * float(platform.work_flops)
                          / (int(platform.n_cores) * float(platform.n_flops)))
        self.sync_s = float(platform.mu_sync_s)
        self.f_min_hz = float(platform.f_min_hz)
        self.f_max_hz = float(platform.f_max_hz)
        self.p_max_w = float(platform.p_max_w)
        self.cv = float(cv)
        self.variance_model = variance_model
        self.gap = max(0.0, -float(np.mean(np.log(np.asarray(multipliers,
                                                              dtype=float)))))

    @property
    def span_hz(self) -> float:
        return self.f_max_hz - self.f_min_hz

    def mean_s(self, f_hz: float) -> float:
        return self.work_hz_s / f_hz + self.sync_s

    def image_shape(self, f_hz: float) -> float:
        if self.variance_model == "constant":
            return 1.0 / (self.cv * self.cv)
        # structural: only the compute phase varies, so the per-image std
        # scales like 1/f and equals cv * mean at f_max
        std = self.cv * self.mean_s(self.f_max_hz) * self.f_max_hz / f_hz
        return (self.mean_s(f_hz) / std) ** 2

    def shape_scale(self, f_hz: float):
        shape = solve_pooled_shape(self.image_shape(f_hz), self.gap)
        return shape, self.mean_s(f_hz) / shape

    def reliability(self, f_hz: float, t_proc_s: float, n_img: int) -> float:
        """P(batch time <= t_proc) for n_img images at f."""
        shape, scale = self.shape_scale(f_hz)
        return float(special.gammainc(n_img * shape, t_proc_s / scale))

    def cantelli(self, f_hz: float, t_proc_s: float, n_img: int) -> float:
        """One-sided Chebyshev lower bound on the same probability."""
        shape, scale = self.shape_scale(f_hz)
        mean = n_img * shape * scale
        var = n_img * shape * scale * scale
        slack = t_proc_s - mean
        if slack <= 0.0:
            return 0.0
        return 1.0 - var / (var + slack * slack)

    def energy_j(self, f_hz: float, n_img: int) -> float:
        return self.p_max_w * (f_hz / self.f_max_hz) ** 3 * n_img * self.mean_s(f_hz)


class FittedModel:
    """A fitted model given by power-basis shape and scale coefficients,
    planned over the platform's [f_min, f_max]."""

    def __init__(self, shape_coefficients, scale_coefficients, f_min_hz,
                 f_max_hz):
        self.shape_c = np.asarray(shape_coefficients, dtype=float)
        self.scale_c = np.asarray(scale_coefficients, dtype=float)
        self.f_min_hz = float(f_min_hz)
        self.f_max_hz = float(f_max_hz)

    @property
    def span_hz(self) -> float:
        return self.f_max_hz - self.f_min_hz

    def reliability(self, f_hz: float, t_proc_s: float, n_img: int) -> float:
        shape = float(np.polynomial.polynomial.polyval(f_hz, self.shape_c))
        scale = float(np.polynomial.polynomial.polyval(f_hz, self.scale_c))
        if not (shape > 0.0 and scale > 0.0):
            return 0.0
        return float(special.gammainc(n_img * shape, t_proc_s / scale))
