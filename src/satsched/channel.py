"""Link budget, finite-blocklength errors, and latency of the radio legs.

Covers the satellite-to-device geometry, free-space path loss, SNR with
log-normal shadowing, the finite-blocklength error probability, stop-and-wait
ARQ uplink delay (PMF and closed-form expectation), the deterministic
downlink, and inter-satellite relay round trips.

Conventions: distances in meters, times in seconds, powers in watts,
gains/losses as linear ratios unless a name ends in ``_db``.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import (DomainError, InfeasibleLinkError, check_count,
                     check_positive, check_real)
from .numerics import q_function

SPEED_OF_LIGHT = 299_792_458.0
EARTH_RADIUS_M = 6_371_000.0

_LOG2_E = math.log2(math.e)


def db_to_linear(db: float) -> float:
    return 10.0 ** (check_real("db", db) / 10.0)


@dataclass(frozen=True)
class LinkGeometry:
    """Satellite-device geometry on a spherical Earth.

    Attributes:
        altitude_m: Orbit altitude above the surface.
        elevation_rad: Elevation angle seen from the device, in (0, pi/2].
        earth_radius_m: Sphere radius; defaults to the mean Earth radius.
    """

    altitude_m: float
    elevation_rad: float
    earth_radius_m: float = EARTH_RADIUS_M

    def __post_init__(self):
        check_positive("altitude_m", self.altitude_m)
        check_positive("earth_radius_m", self.earth_radius_m)
        if not (check_positive("elevation_rad", self.elevation_rad)
                <= math.pi / 2.0 + 1e-12):
            raise DomainError(
                f"elevation_rad must lie in (0, pi/2], got {self.elevation_rad!r}")


def slant_range(geom: LinkGeometry) -> float:
    """Line-of-sight distance from device to satellite.

    sqrt(R^2 sin^2(el) + 2 R h + h^2) - R sin(el); equals h at zenith and
    grows as the satellite drops toward the horizon.
    """
    r = geom.earth_radius_m
    h = geom.altitude_m
    s = math.sin(geom.elevation_rad)
    return math.sqrt(r * r * s * s + 2.0 * r * h + h * h) - r * s


def path_loss(d_m: float, carrier_hz: float) -> float:
    """Free-space path loss (4 pi d f / c)^2 as a linear power ratio."""
    d_m = check_positive("d_m", d_m)
    carrier_hz = check_positive("carrier_hz", carrier_hz)
    amp = 4.0 * math.pi * d_m * carrier_hz / SPEED_OF_LIGHT
    return amp * amp


@dataclass(frozen=True)
class LinkParams:
    """Radio parameters of one link direction.

    Attributes:
        carrier_hz: Carrier frequency.
        tx_power_w: Transmit power.
        gain_tx: Transmitter antenna gain, linear.
        gain_rx: Receiver antenna gain, linear.
        pointing_loss: Antenna mispointing loss, linear (>= 1 in practice).
        noise_power_w: Receiver noise power over the signal bandwidth.
    """

    carrier_hz: float
    tx_power_w: float
    gain_tx: float
    gain_rx: float
    pointing_loss: float
    noise_power_w: float

    def __post_init__(self):
        for name in ("carrier_hz", "tx_power_w", "gain_tx", "gain_rx",
                     "pointing_loss", "noise_power_w"):
            check_positive(name, getattr(self, name))


def snr(params: LinkParams, d_m: float, shadow_db: float = 0.0) -> float:
    """Received linear SNR after path loss, pointing loss, and shadowing.

    ``shadow_db`` is the realized shadow-fading attenuation in dB; 0 gives
    the median channel. Positive values attenuate.
    """
    loss = path_loss(d_m, params.carrier_hz)
    fade = db_to_linear(shadow_db)
    return (params.tx_power_w * params.gain_tx * params.gain_rx
            / (loss * params.pointing_loss * params.noise_power_w * fade))


def fbl_error_probability(gamma: float, n: int, rate: float) -> float:
    """Block error probability at finite blocklength.

    Normal approximation: Q(sqrt(n/V) * (C - R)) with Shannon capacity
    C = log2(1 + gamma) and channel dispersion
    V = gamma (gamma + 2) / (1 + gamma)^2 * log2(e)^2, clamped to [0, 1].
    """
    gamma = check_positive("gamma", gamma)
    n = check_count("n", n)
    rate = check_positive("rate", rate)
    cap = math.log2(1.0 + gamma)
    disp = gamma * (gamma + 2.0) / ((1.0 + gamma) ** 2) * _LOG2_E * _LOG2_E
    eps = q_function(math.sqrt(float(n) / disp) * (cap - rate))
    return min(max(eps, 0.0), 1.0)


@dataclass(frozen=True)
class OfdmGrid:
    """Resource-grid timing of one ARQ link.

    Attributes:
        subcarriers: Frequency-domain width of the grid.
        symbol_time_s: OFDM symbol duration (1/SCS, cyclic prefix ignored).
        blocklength: Channel uses per transport block.
        rate: Coding rate in bits per channel use.
        nack_delay_s: Wait before a retransmission after a failed attempt.
    """

    subcarriers: int
    symbol_time_s: float
    blocklength: int
    rate: float
    nack_delay_s: float

    def __post_init__(self):
        check_count("subcarriers", self.subcarriers)
        check_count("blocklength", self.blocklength)
        check_positive("symbol_time_s", self.symbol_time_s)
        check_positive("rate", self.rate)
        if check_real("nack_delay_s", self.nack_delay_s) < 0.0:
            raise DomainError(f"nack_delay_s must be >= 0, got {self.nack_delay_s!r}")

    @property
    def symbols_per_block(self) -> int:
        return -(-int(self.blocklength) // int(self.subcarriers))  # ceil division

    @property
    def airtime_s(self) -> float:
        """Serialization time of one attempt, excluding propagation."""
        return self.symbols_per_block * float(self.symbol_time_s)


def _attempt_time(grid: OfdmGrid, d_m: float) -> float:
    return grid.airtime_s + check_positive("d_m", d_m) / SPEED_OF_LIGHT


def _check_eps(eps: float) -> float:
    eps = check_real("error probability", eps)
    if eps < 0.0:
        raise DomainError(f"error probability must be in [0, 1), got {eps!r}")
    if eps >= 1.0:
        raise InfeasibleLinkError(
            f"error probability {eps!r} >= 1: every attempt fails, delay diverges")
    return eps


@dataclass(frozen=True)
class UplinkDelayPmf:
    """Truncated ARQ delay distribution.

    ``delays[i]`` occurs with ``probabilities[i]``; attempts beyond the
    truncation carry ``truncated_mass`` in total.
    """

    delays: np.ndarray
    probabilities: np.ndarray
    truncated_mass: float


def uplink_delay_pmf(grid: OfdmGrid, eps: float, d_m: float,
                     max_attempts: int = 10_000) -> UplinkDelayPmf:
    """PMF of the ARQ uplink delay, truncated at ``max_attempts`` tries.

    The x-th retransmission (x = 0 meaning success on the first try) lands
    at delay T_tx + x (T_tx + T_nack) with probability (1 - eps) eps^x.
    """
    eps = _check_eps(eps)
    max_attempts = check_count("max_attempts", max_attempts)
    t_tx = _attempt_time(grid, d_m)
    retry = t_tx + grid.nack_delay_s
    x = np.arange(max_attempts, dtype=np.float64)
    probs = (1.0 - eps) * np.power(eps, x)
    delays = t_tx + x * retry
    keep = probs > 0.0
    keep[0] = True
    truncated = eps ** max_attempts
    return UplinkDelayPmf(delays=delays[keep], probabilities=probs[keep],
                          truncated_mass=float(truncated))


def expected_uplink_delay(grid: OfdmGrid, eps: float, d_m: float) -> float:
    """Mean ARQ uplink delay: T_tx + (T_tx + T_nack) eps / (1 - eps)."""
    eps = _check_eps(eps)
    t_tx = _attempt_time(grid, d_m)
    return t_tx + (t_tx + grid.nack_delay_s) * eps / (1.0 - eps)


def downlink_delay(grid: OfdmGrid, d_dl_m: float) -> float:
    """One-shot downlink latency: serialization plus propagation."""
    return _attempt_time(grid, d_dl_m)


@dataclass(frozen=True)
class IslPath:
    """Relay path over inter-satellite links.

    Attributes:
        hop_distances_m: Per-hop distances; empty means no relaying.
        symbol_time_s: Symbol duration on the relay grid.
        subcarriers: Subcarrier count on the relay grid.
    """

    hop_distances_m: tuple
    symbol_time_s: float
    subcarriers: int

    def __post_init__(self):
        object.__setattr__(
            self, "hop_distances_m",
            tuple(check_positive("hop distance", d) for d in self.hop_distances_m))
        check_positive("symbol_time_s", self.symbol_time_s)
        check_count("subcarriers", self.subcarriers)

    @property
    def hops(self) -> int:
        return len(self.hop_distances_m)


def isl_round_trip(path: IslPath, n: int) -> float:
    """Round-trip relay latency: out and back over every hop.

    Each hop contributes twice its serialization time for an n-use block
    plus twice its propagation delay. An empty path costs nothing.
    """
    n = check_count("n", n)
    if path.hops == 0:
        return 0.0
    symbols = -(-n // int(path.subcarriers))
    serial = 2.0 * path.symbol_time_s * symbols
    total = 0.0
    for d in path.hop_distances_m:
        total += serial + 2.0 * d / SPEED_OF_LIGHT
    return total


def ring_chord_m(n_sats: int, altitude_m: float,
                 earth_radius_m: float = EARTH_RADIUS_M) -> float:
    """Distance between adjacent satellites in an evenly spaced circular ring."""
    n_sats = check_count("n_sats", n_sats, least=2)
    altitude_m = check_positive("altitude_m", altitude_m)
    return 2.0 * (earth_radius_m + altitude_m) * math.sin(math.pi / n_sats)
