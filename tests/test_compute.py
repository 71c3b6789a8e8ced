"""Cubic power, BSP mean-time model, Gamma batching, expected energy."""

import numpy as np
import pytest

import satsched as ss
from satsched.errors import DomainError


# --------------------------------------------------------------------- power

def test_power_at_fmax_is_board_max(nano, agx):
    assert ss.power(nano.f_max_hz, nano) == 25.0
    assert ss.power(agx.f_max_hz, agx) == 60.0


def test_power_cubic_scaling(nano):
    assert ss.power(nano.f_max_hz / 2, nano) == pytest.approx(25.0 / 8.0, rel=1e-12)
    f = 0.7 * nano.f_max_hz
    assert ss.power(f, nano) == pytest.approx(25.0 * 0.7 ** 3, rel=1e-12)


def test_power_strictly_increasing(nano):
    fg = np.linspace(nano.f_min_hz, nano.f_max_hz, 200)
    ps = ss.power(fg, nano)
    assert np.all(np.diff(ps) > 0)


def test_power_rejects_out_of_range(nano):
    with pytest.raises(DomainError):
        ss.power(0.9 * nano.f_min_hz, nano)
    with pytest.raises(DomainError):
        ss.power(1.1 * nano.f_max_hz, nano)


# ------------------------------------------------------------ mean_exec_time

def test_mean_time_reproduces_board_benchmarks(nano, agx):
    assert ss.mean_exec_time(nano.f_max_hz, nano) == pytest.approx(61.19e-3, rel=5e-3)
    assert ss.mean_exec_time(agx.f_max_hz, agx) == pytest.approx(32.63e-3, rel=5e-3)


def test_work_derivation_oracle(nano):
    # inverting the mean-time model at f_max fixes the workload
    w = (61.19e-3 - 17.48e-3) * 1024 * 2 * 1.02e9 / 1.071
    assert nano.work_flops == pytest.approx(w, rel=1e-12)
    assert nano.work_flops == pytest.approx(8.53e10, rel=5e-3)


def test_mean_time_decreasing_and_convex(nano, agx):
    for p in (nano, agx):
        fg = np.linspace(p.f_min_hz, p.f_max_hz, 1000)
        ms = ss.mean_exec_time(fg, p)
        assert np.all(np.diff(ms) < 0)
        assert np.all(np.diff(ms, 2) > -1e-18)


def test_mean_time_floor_is_sync_overhead(nano):
    assert ss.mean_exec_time(nano.f_max_hz, nano) > nano.mu_sync_s


# ----------------------------------------------------------------- batch_law

def test_batch_of_one_is_identity():
    law = ss.GammaLaw(5.0, 0.01)
    b = ss.batch_law(law, 1)
    assert b.shape == law.shape and b.scale == law.scale


def test_batch_moments():
    b = ss.batch_law(ss.GammaLaw(5.0, 0.01), 10)
    assert b.mean == pytest.approx(0.5, rel=1e-12)
    assert b.variance == pytest.approx(5e-3, rel=1e-12)
    assert b.scale == 0.01


def test_batch_shape_additivity():
    g = ss.GammaLaw(3.0, 0.2)
    nested = ss.batch_law(ss.batch_law(g, 4), 5)
    flat = ss.batch_law(g, 20)
    assert nested.shape == flat.shape and nested.scale == flat.scale


def test_batch_rejects_bad_count():
    with pytest.raises(DomainError):
        ss.batch_law(ss.GammaLaw(5.0, 0.01), 0)
    with pytest.raises(DomainError):
        ss.batch_law(ss.GammaLaw(5.0, 0.01), 2.5)


def test_batch_matches_monte_carlo_sums():
    # sums of 5 iid draws against the closed-form batch law
    law = ss.GammaLaw(5.0, 0.01)
    rng = ss.generator_from(ss.child_seed(77, 0))
    sums = ss.sample_gamma(law.shape, law.scale, rng,
                           size=(100_000, 5)).sum(axis=1)
    assert ss.ks_statistic(sums, ss.batch_law(law, 5)) < 0.01


# -------------------------------------------------------------------- energy

def test_energy_at_fmax(nano):
    mean_s = ss.mean_exec_time(nano.f_max_hz, nano)
    law = ss.GammaLaw(100.0, mean_s / 100.0)
    assert ss.energy(nano.f_max_hz, nano, law) == pytest.approx(1.530, abs=1e-3)


def test_energy_halving_frequency_saves(nano):
    # cubic power beats the sub-2x slowdown
    f_hi = nano.f_max_hz
    f_lo = nano.f_max_hz / 2
    law_hi = ss.GammaLaw(10.0, ss.mean_exec_time(f_hi, nano) / 10.0)
    law_lo = ss.GammaLaw(10.0, ss.mean_exec_time(f_lo, nano) / 10.0)
    e_hi = ss.energy(f_hi, nano, law_hi)
    e_lo = ss.energy(f_lo, nano, law_lo)
    assert e_lo < e_hi / 4


def test_energy_increasing_on_grid_both_platforms(nano, agx):
    # the monotone link between frequency and energy is what lets the
    # planner treat "lowest feasible clock" as "cheapest feasible clock"
    for p in (nano, agx):
        fg = np.linspace(p.f_min_hz, p.f_max_hz, 1000)
        means = ss.mean_exec_time(fg, p)
        es = ss.power(fg, p) * means
        assert np.all(np.diff(es) > 0)


# ------------------------------------------------------------------ platform

def test_builtin_platforms_registry(nano, agx):
    assert set(ss.BUILTIN_PLATFORMS) == {"nano", "agx"}
    assert ss.NANO.n_cores == 1024 and ss.NANO.f_max_hz == 1.02e9
    assert ss.AGX.n_cores == 2048 and ss.AGX.f_max_hz == 1.3e9
    assert nano.f_min_hz == pytest.approx(0.3 * nano.f_max_hz)
    assert agx.f_min_hz == pytest.approx(0.3 * agx.f_max_hz)


def test_platform_validation():
    with pytest.raises(DomainError):
        ss.Platform(name="bad", n_cores=0, n_flops=2.0, f_max_hz=1e9,
                    f_min_hz=3e8, p_max_w=25.0, mu_c=1.1, mu_sync_s=0.01,
                    work_flops=1e10)
    with pytest.raises(DomainError):
        ss.Platform(name="bad", n_cores=1024, n_flops=2.0, f_max_hz=1e9,
                    f_min_hz=1.2e9, p_max_w=25.0, mu_c=1.1, mu_sync_s=0.01,
                    work_flops=1e10)
    with pytest.raises(DomainError):
        ss.Platform(name="bad", n_cores=1024, n_flops=2.0, f_max_hz=1e9,
                    f_min_hz=3e8, p_max_w=25.0, mu_c=0.9, mu_sync_s=0.01,
                    work_flops=1e10)


def test_from_mean_at_max_round_trip():
    p = ss.Platform.from_mean_at_max(
        name="toy", n_cores=512, n_flops=2.0, f_max_hz=1e9, p_max_w=30.0,
        mu_c=1.05, mu_sync_s=0.005, mean_exec_at_max_s=0.040)
    assert ss.mean_exec_time(p.f_max_hz, p) == pytest.approx(0.040, rel=1e-12)
    assert p.f_min_hz == pytest.approx(0.3e9)
    with pytest.raises(DomainError):
        ss.Platform.from_mean_at_max(
            name="toy", n_cores=512, n_flops=2.0, f_max_hz=1e9, p_max_w=30.0,
            mu_c=1.05, mu_sync_s=0.05, mean_exec_at_max_s=0.040)


def test_check_frequency_clamps_tolerance_fuzz(nano):
    nudged = nano.f_max_hz * (1.0 + 1e-12)
    assert nano.check_frequency(nudged) == nano.f_max_hz


def test_check_frequency_float_path_matches_array_path(nano):
    # a Python float skips numpy; at the edges of the slack it accepts,
    # clamps and rejects exactly as the array path does
    slack = 1e-9 * nano.f_max_hz
    for edge, sign in ((nano.f_min_hz - slack, 1.0),
                       (nano.f_max_hz + slack, -1.0)):
        for f in (edge, edge + sign * 1e-3, edge - sign * 1e-3,
                  float(np.nextafter(edge, edge - sign))):
            try:
                expected = nano.check_frequency(np.asarray(f))
            except DomainError:
                with pytest.raises(DomainError):
                    nano.check_frequency(f)
                continue
            got = nano.check_frequency(f)
            assert type(got) is float and got == expected
    assert nano.check_frequency(nano.f_min_hz - slack) == nano.f_min_hz
    with pytest.raises(DomainError):
        nano.check_frequency(nano.f_max_hz + 2.0 * slack)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
def test_check_frequency_rejects_nonfinite(nano, bad):
    for f in (bad, np.asarray(bad), np.array([nano.f_min_hz, bad])):
        with pytest.raises(DomainError):
            nano.check_frequency(f)
