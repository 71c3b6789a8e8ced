"""Argument checks: one vocabulary for a valid real, positive real and count.

Every public entry point checks its scalar arguments with the helpers of
``satsched.errors``, so the same bad input raises DomainError wherever it
enters. A source scan keeps ad-hoc ``numbers`` checks from coming back.
"""

import dataclasses
import math
import pathlib

import numpy as np
import pytest

import satsched as ss
from satsched.errors import (DomainError, check_count, check_positive,
                             check_real)

PKG = pathlib.Path(ss.__file__).resolve().parent


def test_check_real_returns_a_plain_finite_float():
    for v, want in ((1.5, 1.5), (3, 3.0), (np.float64(2.5), 2.5),
                    (np.int64(-4), -4.0), (-0.0, -0.0)):
        got = check_real("v", v)
        assert type(got) is float and got == want
    for bad in (True, False, None, "1.0", math.nan, math.inf, -math.inf,
                np.float64("nan"), np.array(1.0), 10 ** 400, 1j):
        with pytest.raises(DomainError, match="v must"):
            check_real("v", bad)


def test_check_positive_rejects_zero_and_below():
    assert check_positive("v", 1e-300) == 1e-300
    assert type(check_positive("v", 2)) is float
    for bad in (0.0, -0.0, -1.0, 0, True, "2", math.inf, math.nan):
        with pytest.raises(DomainError, match="v must"):
            check_positive("v", bad)


def test_check_count_takes_integers_only():
    assert check_count("n", 3) == 3
    got = check_count("n", np.int64(5))
    assert type(got) is int and got == 5
    assert check_count("n", 0, least=0) == 0
    assert check_count("n", 2, least=2) == 2
    for bad, least in ((True, 1), (False, 0), (1.0, 1), ("3", 1), (None, 1),
                       (0, 1), (-1, 0), (1, 2), (np.float64(2.0), 1)):
        with pytest.raises(DomainError, match="n must"):
            check_count("n", bad, least=least)


def _law():
    return ss.GammaLaw(3.0, 0.01)


def _grid(scenario, **kw):
    fields = dataclasses.asdict(scenario.grid)
    fields.update(kw)
    return ss.OfdmGrid(**fields)


_RNG = np.random.default_rng(0)

# (id, call(scenario, gt, budget)) for inputs that must raise DomainError
BAD_CALLS = [
    # True is no count
    ("select_and_price-n_img-True", lambda sc, gt, b: ss.select_and_price(
        "gamma", gt, b, True, 0.95, gt.platform)),
    ("batch_law-True", lambda sc, gt, b: ss.batch_law(_law(), True)),
    ("sum_of-True", lambda sc, gt, b: _law().sum_of(True)),
    ("miss_probability-True", lambda sc, gt, b: ss.miss_probability(
        5e8, gt, b.t_proc_s, True)),
    ("draw_subset-True", lambda sc, gt, b: ss.draw_subset(
        gt.image_ids, True, _RNG)),
    ("fbl_error_probability-True",
     lambda sc, gt, b: ss.fbl_error_probability(3.0, True, 1.0)),
    ("isl_round_trip-True", lambda sc, gt, b: ss.isl_round_trip(
        sc.isl, True)),
    ("OfdmGrid-subcarriers-True", lambda sc, gt, b: _grid(
        sc, subcarriers=True)),
    ("Platform-n_cores-True", lambda sc, gt, b: dataclasses.replace(
        ss.NANO, n_cores=True)),
    ("shape_at-True", lambda sc, gt, b: gt.shape_at(True)),
    # None and strings are no reals
    ("path_loss-str", lambda sc, gt, b: ss.path_loss("1000", 2e9)),
    ("path_loss-None", lambda sc, gt, b: ss.path_loss(None, 2e9)),
    ("LinkGeometry-str", lambda sc, gt, b: ss.LinkGeometry("6e5", 1.0)),
    ("ExecSample-str", lambda sc, gt, b: ss.ExecSample("1e9", 0.1, 0)),
    ("LatencyBudget-str", lambda sc, gt, b: ss.LatencyBudget(
        "0.5", 0.0, 0.0, 0.0).t_proc_s),
    ("snr-shadow-str", lambda sc, gt, b: ss.snr(sc.link_ul, 6e5, "3")),
    ("processing_budget-str", lambda sc, gt, b: ss.processing_budget(
        "0.5", 0.01, 0.0, 0.01)),
    ("Platform-n_flops-str", lambda sc, gt, b: dataclasses.replace(
        ss.NANO, n_flops="2.0")),
    ("power-str", lambda sc, gt, b: ss.power("1e9", ss.NANO)),
    ("miss_probability-f-str", lambda sc, gt, b: ss.miss_probability(
        "5e8", gt, b.t_proc_s, 1)),
    ("scale_at-str", lambda sc, gt, b: gt.scale_at("5e8")),
    ("comm_legs-str", lambda sc, gt, b: ss.comm_legs(sc, "90")),
    ("per_image_law-str", lambda sc, gt, b: gt.per_image_law(0, "5e8")),
    ("sample_image_times-str", lambda sc, gt, b: gt.sample_image_times(
        gt.image_ids, "5e8", _RNG)),
    # NaN and inf where a real is expected
    ("path_loss-nan", lambda sc, gt, b: ss.path_loss(math.nan, 2e9)),
    ("path_loss-inf", lambda sc, gt, b: ss.path_loss(6e5, math.inf)),
    ("snr-shadow-nan", lambda sc, gt, b: ss.snr(sc.link_ul, 6e5, math.nan)),
    ("LinkGeometry-nan", lambda sc, gt, b: ss.LinkGeometry(6e5, math.nan)),
    ("ExecSample-inf", lambda sc, gt, b: ss.ExecSample(1e9, math.inf, 0)),
    ("LatencyBudget-inf", lambda sc, gt, b: ss.LatencyBudget(
        math.inf, 0.0, 0.0, 0.0)),
    ("processing_budget-nan", lambda sc, gt, b: ss.processing_budget(
        0.5, math.nan, 0.0, 0.01)),
    ("miss_probability-t_proc-inf", lambda sc, gt, b: ss.miss_probability(
        5e8, gt, math.inf, 1)),
    ("miss_probability-f-nan", lambda sc, gt, b: ss.miss_probability(
        math.nan, gt, b.t_proc_s, 1)),
    ("mean_at-nan", lambda sc, gt, b: gt.mean_at(math.nan)),
    ("gamma_cdf-t-nan", lambda sc, gt, b: ss.gamma_cdf(math.nan, 3.0, 0.01)),
    ("GammaLaw-shape-inf", lambda sc, gt, b: ss.GammaLaw(math.inf, 0.01)),
    ("fbl_error_probability-nan",
     lambda sc, gt, b: ss.fbl_error_probability(math.nan, 1000, 1.0)),
    ("select_and_price-rho-nan", lambda sc, gt, b: ss.select_and_price(
        "cantelli", gt, b, 1, math.nan, gt.platform)),
    ("Platform-f_max-inf", lambda sc, gt, b: dataclasses.replace(
        ss.NANO, f_max_hz=math.inf)),
    ("db_to_linear-nan", lambda sc, gt, b: ss.db_to_linear(math.nan)),
    ("Polynomial-inf", lambda sc, gt, b: ss.Polynomial((1.0, math.inf))),
]


@pytest.mark.parametrize("call", [c for _, c in BAD_CALLS],
                         ids=[i for i, _ in BAD_CALLS])
def test_public_api_rejects_bad_scalars_with_domain_error(
        scenario, gt_nano, zenith_budget, call):
    with pytest.raises(DomainError):
        call(scenario, gt_nano, zenith_budget)


def test_no_ad_hoc_numbers_checks_outside_the_helpers():
    # config keeps ConfigError with a key path and rand keeps ConfigError;
    # every other module checks arguments through satsched.errors
    allowed = {"errors.py", "config.py", "rand.py"}
    offenders = []
    for path in sorted(PKG.glob("*.py")):
        if path.name in allowed:
            continue
        for lineno, line in enumerate(path.read_text().splitlines(), 1):
            if "numbers.Integral" in line or "numbers.Real" in line:
                offenders.append(f"{path.name}:{lineno}: {line.strip()}")
    assert not offenders, "\n".join(offenders)
