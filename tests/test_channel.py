"""Link budget, finite-blocklength errors, ARQ delay, ISL timing.

The dB-chain numbers were hand-audited independently and frozen; geometric
values come from a law-of-cosines construction on the Earth-center triangle.
"""

import dataclasses
import math

import numpy as np
import pytest

import satsched as ss
from satsched.errors import DomainError, InfeasibleLinkError

C = ss.SPEED_OF_LIGHT
R_E = ss.EARTH_RADIUS_M
ALT = 600e3


def _geom(elev_deg):
    return ss.LinkGeometry(altitude_m=ALT, elevation_rad=math.radians(elev_deg))


# --------------------------------------------------------------- slant range

def test_slant_range_zenith_equals_altitude():
    assert ss.slant_range(_geom(90.0)) == pytest.approx(ALT, abs=1e-6)


def test_slant_range_matches_law_of_cosines_oracle():
    # independent construction: d solves d^2 + 2 R_E sin(el) d - (2 R_E h + h^2) = 0
    for elev in (5.0, 30.0, 60.0, 85.0):
        el = math.radians(elev)
        b = 2 * R_E * math.sin(el)
        c = -(2 * R_E * ALT + ALT * ALT)
        oracle = (-b + math.sqrt(b * b - 4 * c)) / 2
        assert ss.slant_range(_geom(elev)) == pytest.approx(oracle, rel=1e-12)
    assert ss.slant_range(_geom(30.0)) == pytest.approx(1075e3, abs=1e3)


def test_slant_range_decreases_with_elevation():
    d10, d45, d80 = (ss.slant_range(_geom(e)) for e in (10.0, 45.0, 80.0))
    assert d10 > d45 > d80


def test_link_geometry_rejects_horizon_and_below():
    for bad in (0.0, -0.2, math.pi / 2 + 0.01):
        with pytest.raises(DomainError):
            ss.LinkGeometry(altitude_m=ALT, elevation_rad=bad)


# ----------------------------------------------------------------- path loss

def _db(ratio):
    return 10.0 * math.log10(ratio)


def test_path_loss_at_table_point():
    loss_db = _db(ss.path_loss(600e3, 2e9))
    assert loss_db == pytest.approx(154.03, abs=0.01)


def test_path_loss_doubling_distance_adds_6dB():
    base = _db(ss.path_loss(600e3, 2e9))
    double = _db(ss.path_loss(1200e3, 2e9))
    assert double - base == pytest.approx(20 * math.log10(2.0), abs=1e-9)


def test_path_loss_unit_distance():
    d_unit = C / (4 * math.pi * 2e9)
    assert ss.path_loss(d_unit, 2e9) == pytest.approx(1.0, rel=1e-12)


def test_path_loss_rejects_nonpositive_inputs():
    with pytest.raises(DomainError):
        ss.path_loss(0.0, 2e9)
    with pytest.raises(DomainError):
        ss.path_loss(600e3, -1.0)


# ----------------------------------------------------------------------- snr

def test_snr_zenith_uplink_budget(scenario):
    gamma_db = _db(ss.snr(scenario.link_ul, 600e3))
    assert gamma_db == pytest.approx(22.4, abs=0.1)


def test_snr_shadow_margin_subtracts_in_db(scenario):
    base = _db(ss.snr(scenario.link_ul, 600e3))
    shadowed = _db(ss.snr(scenario.link_ul, 600e3, shadow_db=3.0))
    assert shadowed - base == pytest.approx(-3.0, abs=1e-9)
    # 3.0103 dB of shadowing halves the linear SNR
    half_db = 10 * math.log10(2.0)
    ratio = ss.snr(scenario.link_ul, 600e3, shadow_db=half_db) / ss.snr(scenario.link_ul, 600e3)
    assert ratio == pytest.approx(0.5, rel=1e-12)


def test_link_params_validation():
    with pytest.raises(DomainError):
        ss.LinkParams(carrier_hz=2e9, tx_power_w=0.0, gain_tx=1.0, gain_rx=1.0,
                      pointing_loss=1.0, noise_power_w=1e-15)


def test_db_helpers_round_trip():
    for x in (0.01, 1.0, 375.0):
        assert ss.db_to_linear(_db(x)) == pytest.approx(x, rel=1e-12)


# ---------------------------------------------------------------- fbl errors

def test_fbl_error_is_half_at_capacity():
    gamma = 2.0 ** 2.23 - 1.0
    assert ss.fbl_error_probability(gamma, 672, 2.23) == 0.5


def test_fbl_error_negligible_at_table_operating_point(scenario):
    gamma = ss.snr(scenario.link_ul, 600e3)
    assert ss.fbl_error_probability(gamma, 672, 2.23) < 1e-9


def test_fbl_error_decreasing_in_snr():
    gammas = np.logspace(0.0, 2.0, 40)
    eps = [ss.fbl_error_probability(float(g), 672, 2.23) for g in gammas]
    assert all(b <= a for a, b in zip(eps, eps[1:]))
    assert all(0.0 <= e <= 1.0 for e in eps)


def test_fbl_error_validation():
    with pytest.raises(DomainError):
        ss.fbl_error_probability(-1.0, 672, 2.23)
    with pytest.raises(DomainError):
        ss.fbl_error_probability(10.0, 0, 2.23)
    with pytest.raises(DomainError):
        ss.fbl_error_probability(10.0, 672, 0.0)


# ------------------------------------------------------------------ ARQ PMF

def test_uplink_pmf_no_retransmissions(scenario):
    pmf = ss.uplink_delay_pmf(scenario.grid, 0.0, 600e3)
    assert len(pmf.delays) == 1
    assert pmf.probabilities[0] == 1.0
    assert pmf.truncated_mass == 0.0
    t_tx = scenario.grid.airtime_s + 600e3 / C
    assert pmf.delays[0] == pytest.approx(t_tx, rel=1e-15)


def test_airtime_from_table_grid(scenario):
    # 672 uses over 12 subcarriers -> 56 symbols of 1/15 ms
    assert scenario.grid.symbols_per_block == 56
    assert scenario.grid.airtime_s == pytest.approx(56.0 / 15000.0, rel=1e-12)
    assert scenario.grid.airtime_s == pytest.approx(3.733e-3, abs=1e-6)


def test_uplink_pmf_geometric_mass(scenario):
    pmf = ss.uplink_delay_pmf(scenario.grid, 0.5, 600e3, max_attempts=20)
    assert float(pmf.probabilities.sum()) == pytest.approx(1.0 - 2.0 ** -20, rel=1e-15)
    assert pmf.truncated_mass == pytest.approx(2.0 ** -20, rel=1e-12)
    # atom spacing is one retransmission round
    t_tx = scenario.grid.airtime_s + 600e3 / C
    round_s = t_tx + scenario.grid.nack_delay_s
    gaps = np.diff(pmf.delays)
    assert np.allclose(gaps, round_s, rtol=1e-12)


def test_uplink_pmf_rejects_saturated_link(scenario):
    with pytest.raises(InfeasibleLinkError):
        ss.uplink_delay_pmf(scenario.grid, 1.0, 600e3)
    with pytest.raises(DomainError):
        ss.uplink_delay_pmf(scenario.grid, -0.1, 600e3)


# ------------------------------------------------------- expected ARQ delay

def test_expected_delay_reduces_to_airtime(scenario):
    t_tx = scenario.grid.airtime_s + 600e3 / C
    assert ss.expected_uplink_delay(scenario.grid, 0.0, 600e3) == pytest.approx(t_tx, rel=1e-15)


def test_expected_delay_half_loss_no_nack(scenario):
    grid = dataclasses.replace(scenario.grid, nack_delay_s=0.0)
    t_tx = grid.airtime_s + 600e3 / C
    assert ss.expected_uplink_delay(grid, 0.5, 600e3) == pytest.approx(2 * t_tx, rel=1e-14)


@pytest.mark.parametrize("eps", [0.0, 0.1, 0.5, 0.9])
def test_expected_delay_matches_pmf_summation(scenario, eps):
    pmf = ss.uplink_delay_pmf(scenario.grid, eps, 600e3, max_attempts=10_000)
    summed = float(np.dot(pmf.delays, pmf.probabilities))
    closed = ss.expected_uplink_delay(scenario.grid, eps, 600e3)
    assert abs(summed - closed) <= 1e-12 * closed


def test_expected_delay_increasing_in_eps(scenario):
    grid = scenario.grid
    es = np.linspace(0.0, 0.99, 34)
    ds = [ss.expected_uplink_delay(grid, float(e), 600e3) for e in es]
    assert all(b > a for a, b in zip(ds, ds[1:]))
    assert all(math.isfinite(d) and d > 0 for d in ds)


def test_expected_delay_diverges_at_eps_one(scenario):
    with pytest.raises(InfeasibleLinkError):
        ss.expected_uplink_delay(scenario.grid, 1.0, 600e3)


# ------------------------------------------------------------------ downlink

def test_downlink_equals_error_free_uplink(scenario):
    dl = ss.downlink_delay(scenario.grid, 600e3)
    ul0 = ss.expected_uplink_delay(scenario.grid, 0.0, 600e3)
    assert dl == ul0


def test_downlink_propagation_component(scenario):
    dl_600 = ss.downlink_delay(scenario.grid, 600e3)
    assert dl_600 - scenario.grid.airtime_s == pytest.approx(2.0014e-3, abs=1e-6)


def test_downlink_ceiling_step(scenario):
    # 671 and 672 uses need the same 56 symbols; 673 rolls to 57
    g671 = dataclasses.replace(scenario.grid, blocklength=671)
    g673 = dataclasses.replace(scenario.grid, blocklength=673)
    assert ss.downlink_delay(g671, 600e3) == ss.downlink_delay(scenario.grid, 600e3)
    assert g673.symbols_per_block == 57
    assert ss.downlink_delay(g673, 600e3) > ss.downlink_delay(scenario.grid, 600e3)


# ----------------------------------------------------------------------- ISL

def test_isl_empty_path_is_free(scenario):
    path = ss.IslPath(hop_distances_m=(), symbol_time_s=scenario.grid.symbol_time_s,
                      subcarriers=12)
    assert ss.isl_round_trip(path, 672) == 0.0


def test_isl_four_hop_ring(scenario):
    chord = ss.ring_chord_m(12, ALT)
    assert chord == pytest.approx(2 * (R_E + ALT) * math.sin(math.pi / 12), rel=1e-12)
    path = ss.IslPath(hop_distances_m=(chord,) * 4,
                      symbol_time_s=scenario.grid.symbol_time_s, subcarriers=12)
    total = ss.isl_round_trip(path, 672)
    prop = 2 * 4 * chord / C
    serial = 2 * 4 * 56 * scenario.grid.symbol_time_s
    assert prop == pytest.approx(96.3e-3, abs=0.1e-3)
    assert total == pytest.approx(prop + serial, rel=1e-12)


def test_isl_propagation_linearity(scenario):
    chord = ss.ring_chord_m(12, ALT)
    t_sym = scenario.grid.symbol_time_s
    one = ss.isl_round_trip(ss.IslPath((chord,), t_sym, 12), 672)
    two = ss.isl_round_trip(ss.IslPath((2 * chord,), t_sym, 12), 672)
    serial = 2 * 56 * t_sym
    assert two - one == pytest.approx(2 * chord / C, rel=1e-9)
    assert two - serial == pytest.approx(2 * (one - serial), rel=1e-9)


def test_isl_path_validation(scenario):
    with pytest.raises(DomainError):
        ss.IslPath(hop_distances_m=(-1.0,), symbol_time_s=scenario.grid.symbol_time_s,
                   subcarriers=12)


# --------------------------------------------------------------- regressions

def test_zenith_total_comm_under_110ms_at_median_shadowing(scenario):
    # end-to-end comm budget at zenith with the median channel; keeps the
    # processing budget positive at a 500 ms deadline
    grid = scenario.grid
    gamma = ss.snr(scenario.link_ul, 600e3)
    eps = ss.fbl_error_probability(gamma, grid.blocklength, grid.rate)
    total = (ss.expected_uplink_delay(grid, eps, 600e3)
             + ss.isl_round_trip(scenario.isl, grid.blocklength)
             + ss.downlink_delay(grid, 600e3))
    assert total < 0.110
    assert total == pytest.approx(11.469e-3, abs=1e-5)


def test_ofdm_grid_validation(scenario):
    with pytest.raises(DomainError):
        dataclasses.replace(scenario.grid, blocklength=0)
    with pytest.raises(DomainError):
        dataclasses.replace(scenario.grid, rate=0.0)
