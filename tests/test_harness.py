"""Harness end-to-end: ground-truth synthesis, communication legs, figure
runners and their CSV/JSON contracts, sample-log ingestion, and the CLI."""

import copy
import csv
import dataclasses
import filecmp
import gc
import json
import math
import os
import pickle
import re
import subprocess
import sys
import weakref
from pathlib import Path

import numpy as np
import pytest

import satsched as ss
from satsched import cli, kernels
from satsched.errors import (ConfigError, DomainError, InfeasibleBudgetError,
                             InfeasibleConstraintError)

_CLI = "import sys; from satsched.cli import main; sys.exit(main())"

# directory holding the satsched package this process imported; a relative
# PYTHONPATH entry (e.g. "src") names nothing once the child runs elsewhere
_PKG_ROOT = str(Path(ss.__file__).resolve().parents[1])


def _run_python(code, *args, cwd=None):
    # copy of os.environ so the caller's settings still reach the child;
    # the package under test goes first on its path
    env = dict(os.environ)
    paths = [_PKG_ROOT] + [p for p in env.get("PYTHONPATH", "").split(
        os.pathsep) if p]
    env["PYTHONPATH"] = os.pathsep.join(paths)
    return subprocess.run([sys.executable, "-c", code, *args],
                          capture_output=True, text=True, cwd=cwd, env=env)


def _run_cli(*args, cwd=None):
    return _run_python(_CLI, *args, cwd=cwd)


def _read_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


@pytest.fixture(scope="module")
def reduced_scenario():
    # small fig3 block for the determinism double-run; sweeps untouched
    user = {"experiment": {"fig3": {"sample_sizes": [10, 30],
                                    "k_replicates": 5}}}
    return ss.resolve(ss.merge_config(user))


@pytest.fixture(scope="module")
def fig4_run(scenario, tmp_path_factory):
    return ss.run_fig4(scenario, str(tmp_path_factory.mktemp("fig4")))


@pytest.fixture(scope="module")
def fig5_run(scenario, tmp_path_factory):
    return ss.run_fig5(scenario, str(tmp_path_factory.mktemp("fig5")))


# ---------------------------------------------------------------- ground truth

@pytest.mark.parametrize("fixture_name,mean_at_fmax_s",
                         [("gt_nano", 61.19e-3), ("gt_agx", 32.63e-3)])
def test_pooled_mean_reproduces_calibration(request, fixture_name,
                                            mean_at_fmax_s):
    """The pooled mean at f_max equals the benchmarked per-image time."""
    gt = request.getfixturevalue(fixture_name)
    f_max = gt.platform.f_max_hz
    assert gt.mean_at(f_max) == pytest.approx(mean_at_fmax_s, rel=1e-12)
    assert gt.mean_at(f_max) == pytest.approx(
        ss.mean_exec_time(f_max, gt.platform), rel=1e-14)


def test_constant_variance_mode_fixes_shape(scenario, nano):
    rng = ss.stream(scenario.seed, scenario.bit_generator, 11, 2)
    gt = ss.synthesize_ground_truth(nano, 0.10, 16, rng,
                                    variance_model="constant")
    for frac in (0.3, 0.55, 1.0):
        f = frac * nano.f_max_hz
        assert gt.image_shape_at(f) == pytest.approx(100.0, rel=1e-12)


def test_structural_mode_widens_at_low_clocks(gt_nano, nano):
    # compute phase dominates at low f, so relative spread grows there
    f_max = nano.f_max_hz
    assert gt_nano.image_shape_at(f_max) == pytest.approx(100.0, rel=1e-12)
    assert gt_nano.image_shape_at(0.5 * f_max) < gt_nano.image_shape_at(f_max)


def test_work_multipliers_normalized(gt_nano):
    assert gt_nano.n_images == 56
    assert float(np.mean(gt_nano.work_multipliers)) == pytest.approx(
        1.0, abs=1e-12)
    assert np.all(gt_nano.work_multipliers > 0.0)
    assert gt_nano.log_multiplier_gap >= 0.0


def test_pooled_shape_below_image_shape(gt_nano, nano, scenario):
    """Image heterogeneity widens the pooled law; without it both agree."""
    grid = np.linspace(nano.f_min_hz, nano.f_max_hz, 17)
    pooled = np.asarray(gt_nano.shape_at(grid))
    per_image = np.asarray(gt_nano.image_shape_at(grid))
    assert np.all(pooled < per_image)

    rng = ss.stream(scenario.seed, scenario.bit_generator, 11, 3)
    flat = ss.synthesize_ground_truth(nano, 0.10, 8, rng, image_sigma=0.0)
    assert np.array_equal(np.asarray(flat.shape_at(grid)),
                          np.asarray(flat.image_shape_at(grid)))


def test_pooled_law_mean_is_exact(gt_agx, agx):
    for frac in (0.31, 0.66, 0.97):
        f = frac * agx.f_max_hz
        law = gt_agx.law_at(f)
        assert law.mean == pytest.approx(gt_agx.mean_at(f), rel=1e-12)
        per_image = ss.GammaLaw(gt_agx.image_shape_at(f),
                                gt_agx.image_scale_at(f, 5))
        expected = gt_agx.mean_at(f) * float(gt_agx.work_multipliers[5])
        assert per_image.mean == pytest.approx(expected, rel=1e-12)


def _interpolation_truths(scenario):
    """Both platforms and variance models, cv 0.0011/0.1/0.5/0.899 and
    image_sigma 0/0.15/0.5/1: 64 ground truths, each built afresh."""
    for pi, platform in enumerate(scenario.platforms):
        for variance_model in ("structural", "constant"):
            for cv in (0.0011, 0.1, 0.5, 0.899):
                for sigma in (0.0, 0.15, 0.5, 1.0):
                    yield ss.synthesize_ground_truth(
                        platform, cv, scenario.gt_n_images,
                        ss.stream(scenario.seed, scenario.bit_generator,
                                  ss.NS_GROUND_TRUTH, pi),
                        image_sigma=sigma, variance_model=variance_model)


def _newton_shape(gt, f_hz):
    # the scalar solve of the pooled-shape equation at one clock
    a_img = gt.image_shape_at(f_hz)
    if gt.log_multiplier_gap == 0.0:
        return a_img
    shape, _, ok = kernels.solve_gamma_shape(
        math.log(a_img) - kernels.digamma(a_img) + gt.log_multiplier_gap)
    assert ok
    return shape


def test_interpolated_shape_matches_a_newton_solve(scenario):
    """Between grid clocks the interpolated pooled shape lies within 1e-11
    relative of the scalar Newton solve (4 seeded clocks on each of 64
    ground truths), and its scale keeps the pooled mean exact."""
    rng = np.random.default_rng(20261019)
    worst = 0.0
    clocks = 0
    for gt in _interpolation_truths(scenario):
        p = gt.platform
        for f in rng.uniform(p.f_min_hz, p.f_max_hz, 4).tolist():
            shape, scale = gt.shape_scale_at(f)
            want = _newton_shape(gt, f)
            worst = max(worst, abs(shape - want) / want)
            assert shape * scale == pytest.approx(gt.mean_at(f), rel=1e-15)
            clocks += 1
    assert clocks == 256 and worst <= 1e-11, worst


def test_interpolated_shape_matches_mpmath(scenario):
    """On one seeded clock per ground truth of the test above, the
    interpolated shape is within max(5e-13, twice the Newton solve's own
    error) of a 40-digit solve of the pooled-shape equation."""
    mpmath = pytest.importorskip("mpmath")
    rng = np.random.default_rng(20261020)
    for gt in _interpolation_truths(scenario):
        p = gt.platform
        f = float(rng.uniform(p.f_min_hz, p.f_max_hz))
        got = gt.shape_at(f)
        newton = _newton_shape(gt, f)
        with mpmath.workdps(40):
            a_img = mpmath.mpf(gt.image_shape_at(f))
            s = (mpmath.log(a_img) - mpmath.digamma(a_img)
                 + mpmath.mpf(gt.log_multiplier_gap))
            exact = mpmath.findroot(
                lambda a: mpmath.log(a) - mpmath.digamma(a) - s,
                mpmath.mpf(newton))
            err = float(abs((got - exact) / exact))
            newton_err = float(abs((newton - exact) / exact))
        assert err <= max(5e-13, 2.0 * newton_err), (gt, f, err, newton_err)


def test_clocks_outside_the_platform_range_get_a_fresh_solve(monkeypatch,
                                                             gt_nano, nano):
    """Below f_min and above f_max the pooled shape is solved afresh on
    every call, to the array solve's value at that clock, and kept nowhere."""
    solves = []
    solve_arr = kernels.solve_gamma_shape_arr
    monkeypatch.setattr(kernels, "solve_gamma_shape_arr",
                        lambda s: solves.append(s.size) or solve_arr(s))
    for f in (0.5 * nano.f_min_hz, 1.0, 1.5 * nano.f_max_hz):
        want = gt_nano.shape_at(np.array([f]))[0]
        for _ in range(2):
            assert gt_nano.shape_scale_at(f) == (
                want, float(gt_nano.mean_at(f) / want))
    assert solves == [1] * 9
    assert gt_nano.shape_at(nano.f_min_hz) == gt_nano.grid_values.shapes[0]
    assert gt_nano.shape_at(nano.f_max_hz) == gt_nano.grid_values.shapes[-1]
    assert solves == [1] * 9


def test_mixture_refit_recovers_pooled_table(scenario, gt_nano, nano):
    """A plain Gamma fit over pooled per-image draws converges to the
    pooled table the planners consume."""
    rng = ss.stream(scenario.seed, scenario.bit_generator, 9, 0)
    f = 0.6 * nano.f_max_hz
    ids = rng.integers(0, gt_nano.n_images, size=100_000)
    times = gt_nano.sample_image_times(ids, f, rng)
    fit = ss.fit_gamma_mle(times)
    assert fit.shape == pytest.approx(float(gt_nano.shape_at(f)), rel=0.02)
    assert fit.scale == pytest.approx(float(gt_nano.scale_at(f)), rel=0.02)


def test_sampling_is_seeded_and_multiplier_scaled(scenario, gt_nano, nano):
    f = 0.8 * nano.f_max_hz
    key = (scenario.seed, scenario.bit_generator, 11, 4)
    ids = list(range(gt_nano.n_images))
    t_a = gt_nano.sample_image_times(ids, f, ss.stream(*key))
    t_b = gt_nano.sample_image_times(ids, f, ss.stream(*key))
    assert np.array_equal(t_a, t_b)

    # same generator state, different image: times differ exactly by the
    # ratio of the two work multipliers
    one = gt_nano.sample_image_times([3], f, ss.stream(*key))
    other = gt_nano.sample_image_times([5], f, ss.stream(*key))
    expected = (float(gt_nano.work_multipliers[5])
                / float(gt_nano.work_multipliers[3]))
    assert other[0] / one[0] == pytest.approx(expected, rel=1e-12)

    with pytest.raises(DomainError):
        gt_nano.sample_image_times([gt_nano.n_images], f, ss.stream(*key))


def _one_clock_draws(gt, ids, f, rng):
    """Per-clock sampling as it was written before array clocks."""
    ids = np.asarray(ids, dtype=np.int64)
    shape = float(gt.image_shape_at(f))
    base_scale = float(gt.mean_at(f)) / shape
    draws = rng.standard_gamma(shape, size=ids.shape[0])
    return draws * (base_scale * gt.work_multipliers[ids])


@pytest.mark.parametrize("n", [1, 7, 10_000])
def test_array_clocks_equal_one_call_per_clock(scenario, gt_nano, gt_agx,
                                               nano, n):
    constant = ss.synthesize_ground_truth(
        nano, 0.1, 56, ss.stream(scenario.seed, scenario.bit_generator, 11, 6),
        variance_model="constant")
    key = (scenario.seed, scenario.bit_generator, 11, 5)
    for gt in (gt_nano, gt_agx, constant):
        if n == 7:  # repeated ids, the first and the last image
            ids = [3, 3, 0, 5, 3, gt.n_images - 1, 0]
        else:
            ids = ss.stream(*key).integers(0, gt.n_images, size=n)
        clocks = ss.fit_frequency_grid(gt.platform, 8)
        rng_rows, rng_calls, rng_ref = (ss.stream(*key) for _ in range(3))
        rows = gt.sample_image_times(ids, clocks, rng_rows)
        assert rows.shape == (8, n)
        for row, f in zip(rows, clocks.tolist()):
            assert (row.tobytes()
                    == gt.sample_image_times(ids, f, rng_calls).tobytes()
                    == _one_clock_draws(gt, ids, f, rng_ref).tobytes())
        assert rng_rows.random() == rng_calls.random() == rng_ref.random()


def test_array_clocks_reject_bad_ids_and_clocks(scenario, gt_nano, nano):
    key = (scenario.seed, scenario.bit_generator, 11, 7)
    clocks = ss.fit_frequency_grid(nano, 8)
    for ids in ([gt_nano.n_images], [0, -1]):
        with pytest.raises(DomainError):
            gt_nano.sample_image_times(ids, clocks, ss.stream(*key))
    for bad in (0.0, -5e8, math.nan, math.inf):
        for pos in (0, 4, 7):
            c = clocks.copy()
            c[pos] = bad
            with pytest.raises(DomainError):
                gt_nano.sample_image_times([0, 1], c, ss.stream(*key))
    with pytest.raises(DomainError):
        gt_nano.sample_image_times([0, 1], clocks.reshape(2, 4),
                                   ss.stream(*key))


def test_array_clocks_with_no_ids_draw_nothing(scenario, gt_nano, nano):
    key = (scenario.seed, scenario.bit_generator, 11, 8)
    rng = ss.stream(*key)
    rows = gt_nano.sample_image_times([], ss.fit_frequency_grid(nano, 8), rng)
    assert rows.shape == (8, 0)
    assert gt_nano.sample_image_times([], nano.f_max_hz, rng).shape == (0,)
    assert rng.random() == ss.stream(*key).random()


def test_ground_truth_keyed_by_platform_index(scenario, gt_nano, gt_agx):
    again = ss.ground_truth_for(scenario, 0)
    assert np.array_equal(again.work_multipliers, gt_nano.work_multipliers)
    assert not np.array_equal(gt_nano.work_multipliers,
                              gt_agx.work_multipliers)


def test_ground_truth_for_keeps_one_object_per_input(scenario):
    """Equal inputs share one ground truth; a change to any one value the
    build reads gives another, which is kept in turn."""
    ss.harness._ground_truth.cache_clear()
    gt = ss.ground_truth_for(scenario, 0)
    assert ss.ground_truth_for(scenario, 0) is gt
    assert ss.ground_truth_for(dataclasses.replace(scenario), 0) is gt
    nano = scenario.platforms[0]
    changes = {
        "seed": {"seed": scenario.seed + 1},
        "bit_generator": {"bit_generator": "pcg64"},
        "platform": {"platforms": (dataclasses.replace(
            nano, mu_sync_s=2.0 * nano.mu_sync_s),)},
        "cv": {"gt_cv": 0.5 * scenario.gt_cv},
        "n_images": {"gt_n_images": scenario.gt_n_images + 1},
        "image_sigma": {"gt_image_sigma": 0.5 * scenario.gt_image_sigma},
        "variance_model": {"gt_variance_model": "constant"},
    }
    assert scenario.bit_generator != "pcg64"
    assert scenario.gt_variance_model != "constant"
    # the platform index alone: the same platform listed twice
    twice = dataclasses.replace(scenario, platforms=(nano, nano))
    by_index = ss.ground_truth_for(twice, 1)
    assert by_index is not gt and ss.ground_truth_for(twice, 0) is gt
    assert not np.array_equal(by_index.work_multipliers, gt.work_multipliers)
    others = [by_index]
    for name, change in changes.items():
        changed = dataclasses.replace(scenario, **change)
        other = ss.ground_truth_for(changed, 0)
        assert other is not gt, name
        assert ss.ground_truth_for(changed, 0) is other, name
        others.append(other)
    assert len(set(map(id, others))) == 1 + len(changes)


def test_ground_truth_for_drops_the_least_recently_used(scenario):
    """With the cache full, a new input drops the input asked for least
    recently, and an input that raises is not kept."""
    cache = ss.harness._ground_truth
    cache.cache_clear()
    size = ss.harness._GROUND_TRUTHS
    assert size == 8

    def seeded(k):
        return dataclasses.replace(scenario, seed=scenario.seed + k)

    first = [ss.ground_truth_for(seeded(k), 0) for k in range(size)]
    assert ss.ground_truth_for(seeded(0), 0) is first[0]  # now the newest
    ss.ground_truth_for(seeded(size), 0)  # a ninth input drops seed + 1
    assert cache.cache_info().currsize == size
    assert ss.ground_truth_for(seeded(0), 0) is first[0]
    assert all(ss.ground_truth_for(seeded(k), 0) is first[k]
               for k in range(2, size))
    assert ss.ground_truth_for(seeded(1), 0) is not first[1]
    # builds that raise are not kept, and a bool count does not find the
    # entry of the equal int
    cache.cache_clear()
    ss.ground_truth_for(dataclasses.replace(scenario, gt_n_images=1), 0)
    for bad, error in (({"bit_generator": "mt19937"}, ConfigError),
                       ({"gt_cv": 1.5}, DomainError),
                       ({"gt_n_images": True}, DomainError)):
        for _ in range(2):
            with pytest.raises(error):
                ss.ground_truth_for(dataclasses.replace(scenario, **bad), 0)
    assert cache.cache_info().currsize == 1


def test_ground_truth_keeps_a_read_only_copy_of_its_multipliers(scenario):
    # a fresh ground truth: a write that got through would spoil the
    # session fixture and the one ground_truth_for keeps
    gt = dataclasses.replace(ss.ground_truth_for(scenario, 0))
    gap = gt.log_multiplier_gap
    assert gap > 0.0 and gt.work_multipliers.dtype == np.float64
    with pytest.raises(ValueError):
        gt.work_multipliers[:] = 1.0
    assert gt.log_multiplier_gap == gap
    assert dataclasses.replace(gt).log_multiplier_gap == gap
    mult = np.array([0.5, 1.5])
    own = ss.GroundTruth(gt.platform, 0.1, "structural", mult)
    mult[:] = 1.0  # the caller's array, not the ground truth's
    assert own.work_multipliers.tolist() == [0.5, 1.5]


def test_ground_truth_compares_and_hashes_by_identity(scenario):
    gt = ss.ground_truth_for(scenario, 0)
    twin = dataclasses.replace(gt, work_multipliers=gt.work_multipliers.copy())
    assert gt == gt and gt != twin
    assert hash(gt) == hash(gt)
    assert len({gt, twin}) == 2


def test_ground_truth_checks_a_clock_before_its_lookup(scenario):
    gt = ss.ground_truth_for(scenario, 0)
    law = gt.law_at(1e9)
    for bad in (True, "1e9", [1e9], math.nan, -1e9):
        with pytest.raises(DomainError):
            gt.shape_at(bad)
    for clock in (10 ** 9, np.float64(1e9), np.int64(10 ** 9)):
        assert gt.law_at(clock) == law
    gt.law_at(1.0)  # True == 1.0 and hashes alike, but a bool is no clock
    for bad in (True, np.bool_(True)):
        with pytest.raises(DomainError):
            gt.scale_at(bad)


def test_ground_truth_pickles_and_copies_as_its_init_fields(scenario):
    gt = ss.ground_truth_for(scenario, 0)
    law = gt.law_at(5e8)
    for twin in (pickle.loads(pickle.dumps(gt)), copy.deepcopy(gt),
                 copy.copy(gt)):
        assert twin is not gt and twin.law_at(5e8) == law
        assert np.array_equal(twin.work_multipliers, gt.work_multipliers)
        assert np.array_equal(twin.grid_values.shapes,
                              gt.grid_values.shapes)


def test_ground_truth_is_freed_once_dropped(scenario):
    # no reference cycle: dropping the last reference frees it at once
    # (a copy: ground_truth_for keeps a reference to its own)
    gt = dataclasses.replace(ss.ground_truth_for(scenario, 0))
    gt.law_at(5e8)
    ref = weakref.ref(gt)
    gc.disable()
    try:
        del gt
        assert ref() is None
    finally:
        gc.enable()


def test_ground_truth_rejects_bad_inputs(scenario, nano):
    rng = ss.stream(scenario.seed, scenario.bit_generator, 11, 5)
    with pytest.raises(DomainError):
        ss.synthesize_ground_truth(nano, 0.0, 8, rng)
    with pytest.raises(DomainError):
        ss.synthesize_ground_truth(nano, 1.0, 8, rng)
    with pytest.raises(DomainError):
        ss.synthesize_ground_truth(nano, 0.1, 0, rng)
    with pytest.raises(DomainError):
        ss.synthesize_ground_truth(nano, 0.1, 8, rng, image_sigma=-0.1)
    with pytest.raises(DomainError):
        ss.synthesize_ground_truth(nano, 0.1, 8, rng, variance_model="cubic")


# ---------------------------------------------------------------- comm legs

def test_zenith_legs_frozen_values(scenario):
    legs = ss.comm_legs(scenario, 90.0)
    assert 10.0 * math.log10(legs.snr_linear) == pytest.approx(
        15.856752254964995, abs=1e-9)
    assert legs.error_probability == 0.0  # deep in the reliable region
    assert legs.expected_uplink_s == pytest.approx(
        0.005734717904522246, rel=1e-12)
    assert legs.isl_round_trip_s == 0.0  # no relay hops by default
    assert legs.downlink_s == legs.expected_uplink_s  # same block, no retries
    assert legs.total_s == pytest.approx(0.011469435809044491, rel=1e-12)


def test_zenith_budget_frozen_value(zenith_budget, scenario):
    assert zenith_budget.t_proc_s == pytest.approx(
        0.48853056419095553, rel=1e-12)
    assert zenith_budget.t_e2e_s == scenario.t_e2e_s


def test_low_elevation_blows_the_budget(scenario):
    nine = ss.comm_legs(scenario, 9.0)
    budget = ss.budget_from_legs(scenario, nine)
    assert budget.t_proc_s == pytest.approx(0.3577228917320388, rel=1e-9)

    eight = ss.comm_legs(scenario, 8.0)
    assert eight.error_probability > 0.9
    assert math.isfinite(eight.expected_uplink_s)
    assert eight.expected_uplink_s > scenario.t_e2e_s
    with pytest.raises(InfeasibleBudgetError):
        ss.budget_from_legs(scenario, eight)


def test_legs_degrade_with_elevation(scenario):
    sweep = [ss.comm_legs(scenario, deg) for deg in (90.0, 60.0, 30.0, 10.0)]
    snrs = [l.snr_linear for l in sweep]
    uplinks = [l.expected_uplink_s for l in sweep]
    assert all(b < a for a, b in zip(snrs, snrs[1:]))
    assert all(b >= a for a, b in zip(uplinks, uplinks[1:]))
    assert uplinks[-1] > uplinks[0]


# ---------------------------------------------------------------- figure runs

def test_fig3_reruns_byte_identical(reduced_scenario, tmp_path):
    out_a = ss.run_fig3(reduced_scenario, str(tmp_path / "a"))
    out_b = ss.run_fig3(reduced_scenario, str(tmp_path / "b"))
    for key in ("replicates_csv", "summary_csv"):
        assert filecmp.cmp(out_a["paths"][key], out_b["paths"][key],
                           shallow=False)

    header, rows = _read_csv(out_a["paths"]["replicates_csv"])
    assert header == ["platform", "n_s", "k", "f_hat_hz", "p_miss",
                      "infeasible_flag"]
    assert len(rows) == 2 * 2 * 5  # platforms x sizes x replicates
    assert all(0.0 <= float(r[4]) <= 1.0 for r in rows)

    header, rows = _read_csv(out_a["paths"]["summary_csv"])
    assert header == ["platform", "n_s", "mean_p_miss", "p05_p_miss",
                      "p95_p_miss", "min_p_miss", "max_p_miss"]
    assert len(rows) == 2 * 2
    for r in rows:
        lo, hi = float(r[5]), float(r[6])
        assert lo <= float(r[2]) <= hi  # mean between min and max
        assert lo <= float(r[3]) <= float(r[4]) <= hi


def test_fig3_exact_cdf_lanes_gate(monkeypatch, tmp_path):
    """The pre-scan screen leaves few exact CDF lanes per fitted-model plan
    (every grid point per replicate without it); reduced k_replicates,
    full ladder."""
    lanes = []
    arr_cdf = kernels.reg_lower_gamma_arr

    def counted(a, x):
        lanes.append(a.shape[0])
        return arr_cdf(a, x)

    monkeypatch.setattr(kernels, "reg_lower_gamma_arr", counted)
    scenario = ss.resolve(ss.merge_config(
        {"experiment": {"fig3": {"k_replicates": 2}}}))
    out = ss.run_fig3(scenario, str(tmp_path))
    replicates = sum(len(res.replicates) for study in out["results"].values()
                     for res in study)
    assert replicates == 2 * len(scenario.fig3_sample_sizes) * 2
    assert sum(lanes) / replicates <= 64


def test_meta_sidecar_is_self_describing(reduced_scenario, tmp_path):
    out = ss.run_fig3(reduced_scenario, str(tmp_path))
    with open(out["paths"]["meta"]) as fh:
        meta = json.load(fh)
    assert sorted(meta) == ["backend", "bit_generator", "config", "figure",
                            "package_version", "seed"]
    assert meta["figure"] == "fig3"
    assert meta["seed"] == reduced_scenario.seed
    assert meta["bit_generator"] == reduced_scenario.bit_generator
    assert meta["backend"] == "numpy"
    assert meta["package_version"] == ss.__version__
    assert meta["config"]["experiment"]["fig3"]["k_replicates"] == 5
    assert meta["config"]["experiment"]["t_e2e_s"] == 0.5


def test_fig4_schema_and_planner_boundaries(fig4_run, scenario):
    header, rows = _read_csv(fig4_run["paths"]["csv"])
    assert header == ["platform", "method", "n_img", "frequency_hz",
                      "energy_j", "feasible"]

    feasible_max = {}
    for platform, method, n_img, f_hz, e_j, ok in rows:
        if ok == "1":
            assert f_hz and e_j  # feasible rows carry values
            p = scenario.platform_named(platform)
            assert p.f_min_hz <= float(f_hz) <= p.f_max_hz * (1 + 1e-12)
            key = (platform, method)
            feasible_max[key] = max(feasible_max.get(key, 0), int(n_img))
        else:
            assert ok == "0" and f_hz == "" and e_j == ""

    # last feasible batch sizes under the default calibration
    assert feasible_max[("nano", "gamma")] == 7
    assert feasible_max[("nano", "cantelli")] == 6
    assert feasible_max[("agx", "gamma")] == 13
    assert feasible_max[("agx", "cantelli")] == 12

    # the sweep records the terminal infeasible row for each planner
    recorded = {(r[0], r[1], int(r[2])) for r in rows}
    assert ("nano", "gamma", 8) in recorded
    assert ("agx", "cantelli", 13) in recorded


def test_fig4_energy_monotone_and_bound_pays_more(fig4_run):
    header, rows = _read_csv(fig4_run["paths"]["csv"])
    energy = {(r[0], r[1], int(r[2])): float(r[4])
              for r in rows if r[5] == "1"}

    by_group = {}
    for (platform, method, n_img), e_j in energy.items():
        by_group.setdefault((platform, method), []).append((n_img, e_j))
    for pairs in by_group.values():
        pairs.sort()
        values = [e for _, e in pairs]
        assert all(b > a for a, b in zip(values, values[1:]))

    for platform in ("nano", "agx"):
        for n_img in range(1, 7):
            gamma = energy[(platform, "gamma", n_img)]
            cantelli = energy[(platform, "cantelli", n_img)]
            assert cantelli >= gamma


def test_fig4_frozen_midrange_row(fig4_run):
    # regression pin for the default seed: nano, 3 images, exact planner
    header, rows = _read_csv(fig4_run["paths"]["csv"])
    row = next(r for r in rows
               if r[0] == "nano" and r[1] == "gamma" and r[2] == "3")
    assert float(row[3]) == pytest.approx(362256275.0, rel=1e-6)
    assert float(row[4]) == pytest.approx(0.472226778, rel=1e-6)
    assert row[5] == "1"


def test_fig5_schema_and_zenith_matches_fig4(fig5_run, fig4_run):
    header5, rows5 = _read_csv(fig5_run["paths"]["csv"])
    assert header5 == ["platform", "n_img", "elevation_deg", "e_t_ul_s",
                       "t_proc_s", "method", "frequency_hz", "energy_j",
                       "feasible"]
    header4, rows4 = _read_csv(fig4_run["paths"]["csv"])
    fig4_cells = {(r[0], r[1], r[2]): (r[3], r[4], r[5]) for r in rows4}

    checked = 0
    for r in rows5:
        if float(r[2]) == 90.0:
            key = (r[0], r[5], r[1])
            assert fig4_cells[key] == (r[6], r[7], r[8])  # same strings
            checked += 1
    assert checked == 8  # 2 platforms x 2 batch sizes x 2 methods


def test_fig5_energy_rises_as_elevation_drops(fig5_run):
    header, rows = _read_csv(fig5_run["paths"]["csv"])
    groups = {}
    for r in rows:
        groups.setdefault((r[0], r[1], r[5]), []).append(r)

    assert len(groups) == 8
    for key, rs in groups.items():
        elevations = [float(r[2]) for r in rs]
        assert elevations == sorted(elevations, reverse=True)
        uplinks = [float(r[3]) for r in rs]
        assert all(b >= a for a, b in zip(uplinks, uplinks[1:]))

        feasible = [float(r[2]) for r in rs if r[8] == "1"]
        infeasible = [float(r[2]) for r in rs if r[8] == "0"]
        # feasible down to 9 deg, infeasible below: a clean knee
        assert feasible and infeasible
        assert min(feasible) == 9.0
        assert max(infeasible) == 8.0

        energies = [float(r[7]) for r in rs if r[8] == "1"]
        assert all(b >= a for a, b in zip(energies, energies[1:]))
        # small batches can sit on the frequency floor for the whole sweep
        # (flat energy); the larger per-platform batch must leave it
        if key[1] in ("4", "8") and key[0] == ("nano" if key[1] == "4" else "agx"):
            assert energies[-1] > energies[0]


def test_fig5_t_proc_is_the_planners_budget(scenario, tmp_path, monkeypatch):
    # the unformatted rows: a 9-digit CSV would hide a last-bit difference
    written = {}
    write_csv = ss.harness._write_csv

    def capture(path, header, rows):
        rows = list(rows)
        written[os.path.basename(path)] = (header, rows)
        return write_csv(path, header, rows)

    monkeypatch.setattr(ss.harness, "_write_csv", capture)
    ss.run_fig5(scenario, str(tmp_path))
    header, rows = written["fig5.csv"]
    col = header.index("t_proc_s")
    elevation_col = header.index("elevation_deg")
    budgeted = 0
    for row in rows:
        legs = ss.comm_legs(scenario, row[elevation_col])
        try:
            budget = ss.budget_from_legs(scenario, legs)
        except ss.InfeasibleLinkError:
            assert row[col] == -math.inf
            continue
        except InfeasibleBudgetError:
            assert row[col] <= 0.0
            continue
        assert row[col] == budget.t_proc_s, row  # bit for bit
        budgeted += 1
    assert budgeted > len(rows) // 2


def _reference_fmt(value) -> str:
    # the CSV cell format by type, without the float fast path
    if value is None:
        return ""
    if isinstance(value, str):
        return value
    if isinstance(value, (bool, np.bool_)):
        return "1" if value else "0"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return format(float(value), ".9g")


def test_csv_cells_format_as_the_type_ladder(scenario, tmp_path,
                                             monkeypatch):
    """Every cell fig4 and fig5 write, and values of every cell type, is
    formatted as the general type ladder formats it."""
    cells = [None, "", "nano", True, False, np.True_, 0, -3, np.int64(7),
             0.0, -0.0, 1.5, 1e-300, 5e-324, math.inf, -math.inf, math.nan,
             np.float64(0.1), np.float32(0.1), 2 ** 60]
    write_csv = ss.harness._write_csv

    def capture(path, header, rows):
        rows = list(rows)
        cells.extend(v for row in rows for v in row)
        return write_csv(path, header, rows)

    monkeypatch.setattr(ss.harness, "_write_csv", capture)
    ss.run_fig4(scenario, str(tmp_path))
    ss.run_fig5(scenario, str(tmp_path))
    assert sum(type(v) is float for v in cells) > 1000
    assert [ss.harness._fmt(v) for v in cells] == [_reference_fmt(v)
                                                   for v in cells]


@pytest.mark.parametrize("n", [0, 1, 2, 3, 86])
def test_bisection_order_visits_each_index_between_two_visited(n):
    """Every index once, both ends first; each later index is the midpoint
    of two indices visited before it with none visited between them."""
    order = ss.harness._bisection_order(n)
    assert sorted(order) == list(range(n))
    assert order[:2] == ([0, n - 1] if n > 1 else list(range(n)))
    for k in range(2, n):
        seen = order[:k]
        i = order[k]
        lo = max(j for j in seen if j < i)
        hi = min(j for j in seen if j > i)
        assert i == (lo + hi) // 2, (k, lo, i, hi)


@pytest.mark.parametrize("seed", [None, 901])
def test_fig5_csv_does_not_depend_on_the_planning_order(tmp_path, monkeypatch,
                                                        seed):
    """fig5.csv planned in bisection order of t_proc equals, byte for
    byte, the one planned from the highest t_proc down (90 degrees down to
    5, the order of the configured sweep), each from fresh ground truths."""
    scenario = ss.load_scenario(seed_override=seed)
    csvs = []
    for label in ("bisection", "descending"):
        if label == "descending":
            calls = []

            def descending(n):
                calls.append(n)
                return list(range(n - 1, -1, -1))

            monkeypatch.setattr(ss.harness, "_bisection_order", descending)
        ss.harness._ground_truth.cache_clear()
        out = ss.run_fig5(scenario, str(tmp_path / label))
        with open(out["paths"]["csv"], "rb") as fh:
            csvs.append(fh.read())
    assert calls and calls[0] > 2
    assert csvs[0] == csvs[1]


# ---------------------------------------------------------------- ingestion

def _write_samples(path, rows):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["image_id", "frequency_hz", "exec_time_s"])
        writer.writerows(rows)


def test_ingest_round_trip(tmp_path):
    path = tmp_path / "log.csv"
    _write_samples(path, [
        (0, 1.0e9, 0.050), (1, 1.0e9, 0.052),
        (0, 5.0e8, 0.101), (1, 5.0e8, 0.098), (2, 5.0e8, 0.103),
    ])
    data = ss.ingest_samples_csv(str(path))
    assert list(data) == [5.0e8, 1.0e9]  # sorted by frequency
    assert np.array_equal(data[1.0e9], np.array([0.050, 0.052]))
    assert data[5.0e8].shape == (3,)


def test_ingest_rejects_malformed_logs(tmp_path):
    bad_header = tmp_path / "bad_header.csv"
    bad_header.write_text("image,freq,time\n0,1e9,0.05\n")
    with pytest.raises(DomainError):
        ss.ingest_samples_csv(str(bad_header))

    empty = tmp_path / "empty.csv"
    empty.write_text("image_id,frequency_hz,exec_time_s\n")
    with pytest.raises(DomainError):
        ss.ingest_samples_csv(str(empty))

    short_row = tmp_path / "short.csv"
    short_row.write_text("image_id,frequency_hz,exec_time_s\n0,1e9\n")
    with pytest.raises(DomainError):
        ss.ingest_samples_csv(str(short_row))

    not_numeric = tmp_path / "nan.csv"
    not_numeric.write_text("image_id,frequency_hz,exec_time_s\n0,1e9,fast\n")
    with pytest.raises(DomainError):
        ss.ingest_samples_csv(str(not_numeric))

    with pytest.raises(DomainError):
        ss.ingest_samples_csv(str(tmp_path / "missing.csv"))


# one malformed data row per case, after a good first row (line 2), so the
# error must name line 3
BAD_SAMPLE_ROWS = [
    ("id-text", "x,1e9,0.05"),
    ("id-negative", "-1,1e9,0.05"),
    ("id-fraction", "1.5,1e9,0.05"),
    ("frequency-negative", "1,-4e8,0.05"),
    ("frequency-zero", "1,0,0.05"),
    ("frequency-nan", "1,nan,0.05"),
    ("frequency-inf", "1,inf,0.05"),
    ("time-negative", "1,1e9,-0.05"),
    ("time-zero", "1,1e9,0"),
    ("time-nan", "1,1e9,nan"),
]


@pytest.mark.parametrize("row", [r for _, r in BAD_SAMPLE_ROWS],
                         ids=[i for i, _ in BAD_SAMPLE_ROWS])
def test_ingest_rejects_bad_values_with_line_number(tmp_path, row):
    path = tmp_path / "log.csv"
    path.write_text("image_id,frequency_hz,exec_time_s\n0,1e9,0.05\n"
                    + row + "\n")
    with pytest.raises(DomainError, match=f"{re.escape(str(path))}:3: "):
        ss.ingest_samples_csv(str(path))


def test_fit_report_is_json_ready(scenario, gt_nano, nano):
    rng = ss.stream(scenario.seed, scenario.bit_generator, 11, 0)
    ids = gt_nano.image_ids
    samples = {}
    for f in ss.fit_frequency_grid(nano, 8):
        chunks = [gt_nano.sample_image_times(ids, float(f), rng)
                  for _ in range(4)]
        samples[float(f)] = np.concatenate(chunks)

    report = ss.fit_report(samples, degree=3)
    assert report["degree"] == 3
    assert len(report["shape_coefficients"]) == 4
    assert len(report["scale_coefficients"]) == 4
    assert 0.0 <= report["r2_shape"] <= 1.0
    assert report["domain_hz"] == [nano.f_min_hz, nano.f_max_hz]
    assert len(report["per_frequency"]) == 8
    for entry in report["per_frequency"]:
        assert entry["n_samples"] == 4 * len(ids)
        assert entry["shape"] > 0 and entry["scale"] > 0
        assert 0.0 <= entry["ks_statistic"] < 0.2
    json.dumps(report)  # must serialize without custom encoders


# ---------------------------------------------------------------- CLI

def test_cli_child_runs_package_under_test(tmp_path):
    # the exact numbers below depend on the code, so the CLI child must
    # import the same package (and report the same kernel backend)
    res = _run_python("import satsched; print(satsched.__file__); "
                      "print(satsched.BACKEND)", cwd=str(tmp_path))
    assert res.returncode == 0, res.stderr
    child_file, child_backend = res.stdout.splitlines()
    assert Path(child_file).resolve() == Path(ss.__file__).resolve()
    assert child_backend == ss.BACKEND


def test_import_adds_no_third_party_module_beyond_numpy(tmp_path):
    # the import is part of every CLI call and of the benchmark's setup_s;
    # scipy.special alone would cost more than the whole package does.
    # numpy.random goes into the baseline because it loads Cython's runtime
    res = _run_python(
        "import sys; import numpy.random; before = set(sys.modules); "
        "import satsched; new = {m.split('.')[0] for m in "
        "set(sys.modules) - before}; "
        "print(sorted(new - set(sys.stdlib_module_names) - {'numpy'}))",
        cwd=str(tmp_path))
    assert res.returncode == 0, res.stderr
    assert res.stdout.strip() == "['satsched']"


def test_cli_validate_config_roundtrip(tmp_path):
    res = _run_cli("validate-config", cwd=str(tmp_path))
    assert res.returncode == 0, res.stderr
    doc = json.loads(res.stdout)
    assert doc["config"]["experiment"]["t_e2e_s"] == 0.5
    assert doc["derived"]["shadow_margin_db"] == pytest.approx(
        6.5794145078058905, rel=1e-9)

    res = _run_cli("validate-config", "--seed", "7", cwd=str(tmp_path))
    assert res.returncode == 0, res.stderr
    assert json.loads(res.stdout)["config"]["experiment"]["seed"] == 7


def test_cli_rejects_unknown_config_key(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"experiment": {"bogus": 1}}\n')
    res = _run_cli("validate-config", "--config", str(cfg), cwd=str(tmp_path))
    assert res.returncode == 1, res.stderr
    assert "config error" in res.stderr
    assert "experiment.bogus" in res.stderr


def test_config_rejects_negative_shadow_sigma():
    with pytest.raises(ss.ConfigError, match="link.shadow_sigma_db"):
        ss.resolve(ss.merge_config({"link": {"shadow_sigma_db": -1}}))


@pytest.mark.parametrize("command", [
    ["validate-config"], ["plan", "--platform", "nano", "--n-img", "3"],
], ids=["validate-config", "plan"])
def test_cli_rejects_ground_truth_cv_of_one(tmp_path, capsys, command):
    # a cv of 1 or more has no peaked law, so the config rejects it before
    # any plan can fail on it
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"experiment": {"ground_truth": {"cv": 1.0}}}\n')
    assert cli.main(command + ["--config", str(cfg)]) == cli.EXIT_CONFIG
    assert "experiment.ground_truth.cv" in capsys.readouterr().err


@pytest.mark.parametrize("argv,message", [
    (["plan", "--n-img", "3"], "--platform"),
    (["plan", "--platform", "nano", "--n-img", "x"], "--n-img"),
    (["plan", "--platform", "nano", "--n-img", "0"], "--n-img"),
    (["plan", "--platform", "nano", "--n-img", "3", "--elevation", "0"],
     "--elevation"),
    (["plan", "--platform", "nano", "--n-img", "3", "--elevation", "120"],
     "--elevation"),
    (["plan", "--platform", "nano", "--n-img", "3", "--elevation", "nan"],
     "--elevation"),
], ids=["no-platform", "n-img-x", "n-img-0", "elevation-0", "elevation-120",
        "elevation-nan"])
def test_cli_usage_errors_exit_config(capsys, argv, message):
    # argparse's own code 2 would read as "infeasible", and a bad flag value
    # is a usage error, not a numerical failure
    assert cli.main(argv) == cli.EXIT_CONFIG
    assert message in capsys.readouterr().err


def test_cli_help_exits_zero(capsys):
    assert cli.main(["plan", "--help"]) == cli.EXIT_OK
    assert "--n-img" in capsys.readouterr().out


def test_cli_plan_feasible_instance(tmp_path):
    res = _run_cli("plan", "--platform", "nano", "--n-img", "3",
                   cwd=str(tmp_path))
    assert res.returncode == 0, res.stderr
    assert "processing budget 488.531 ms" in res.stdout
    assert "0.362256" in res.stdout  # exact planner, GHz
    assert "0.4722" in res.stdout    # its energy
    assert "cantelli" in res.stdout


def test_cli_plan_infeasible_paths(tmp_path):
    # batch too large for any clock: planner infeasibility, exit 2
    res = _run_cli("plan", "--platform", "nano", "--n-img", "40",
                   cwd=str(tmp_path))
    assert res.returncode == 2, res.stderr
    assert "no feasible plan" in res.stderr

    # low elevation: the uplink eats the deadline before planning starts
    res = _run_cli("plan", "--platform", "nano", "--n-img", "1",
                   "--elevation", "8", cwd=str(tmp_path))
    assert res.returncode == 2, res.stderr
    assert "infeasible" in res.stderr


def test_cli_fig3_writes_outputs(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"experiment": {"fig3": {
        "sample_sizes": [10, 30], "k_replicates": 5}}}))
    out_dir = tmp_path / "out"
    res = _run_cli("fig3", "--config", str(cfg), "--out", str(out_dir),
                   cwd=str(tmp_path))
    assert res.returncode == 0, res.stderr
    assert res.stdout.count("wrote ") == 3
    assert (out_dir / "fig3_replicates.csv").exists()
    assert (out_dir / "fig3_summary.csv").exists()
    assert (out_dir / "fig3_meta.json").exists()


def test_cli_shared_flags_parse_on_either_side(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"experiment": {"t_e2e_s": 0.6}}\n')
    shared = ["--config", str(cfg), "--seed", "9"]
    parser = cli.build_parser()
    before = parser.parse_args(shared + ["--out", "d", "fig4"])
    after = parser.parse_args(["fig4"] + shared + ["--out", "d"])
    assert vars(before) == vars(after)
    assert (before.config, before.seed, before.out) == (str(cfg), 9, "d")

    outs = []
    for side, argv in (("before", shared + ["--out", "before", "fig4"]),
                       ("after", ["fig4"] + shared + ["--out", "after"])):
        res = _run_cli(*argv, cwd=str(tmp_path))
        assert res.returncode == 0, res.stderr
        outs.append(tmp_path / side)
    names = sorted(p.name for p in outs[0].iterdir())
    assert names == sorted(p.name for p in outs[1].iterdir())
    assert "fig4.csv" in names
    _, mismatch, errors = filecmp.cmpfiles(outs[0], outs[1], names,
                                           shallow=False)
    assert not mismatch and not errors
    meta = json.loads((outs[0] / "fig4_meta.json").read_text())
    assert meta["seed"] == 9
    assert meta["config"]["experiment"]["t_e2e_s"] == 0.6


def test_cli_plan_at_large_batch_shape(tmp_path):
    """Grid shapes of 4.8e5 to 2e6, where the exact kernel evaluates lanes
    near x = a by Temme's expansion: feasible plans are tight under scipy,
    and nano with n_img 8, infeasible even at f_max, exits 2 with the
    reliability reached there."""
    special = pytest.importorskip("scipy.special")
    user = {"experiment": {"ground_truth": {"cv": 0.002, "image_sigma": 0}}}
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(user))
    scenario = ss.resolve(ss.merge_config(user))
    budget = ss.budget_from_legs(scenario,
                                 ss.comm_legs(scenario, scenario.elevation_deg))
    for platform_idx, name, n_img in ((1, "agx", 8), (0, "nano", 3)):
        res = _run_cli("plan", "--config", str(cfg), "--platform", name,
                       "--n-img", str(n_img), cwd=str(tmp_path))
        assert res.returncode == 0, res.stderr

        platform = scenario.platform_named(name)
        gt = ss.ground_truth_for(scenario, platform_idx)
        sel = ss.select_and_price("gamma", gt, budget, n_img, scenario.rho_th,
                                  platform)
        assert f"{sel.frequency_hz / 1e9:.6f}" in res.stdout

        def reliability(f_hz):
            return special.gammainc(n_img * gt.shape_at(f_hz),
                                    budget.t_proc_s / gt.scale_at(f_hz))

        assert reliability(sel.frequency_hz) >= scenario.rho_th
        delta = 1e-4 * (platform.f_max_hz - platform.f_min_hz)
        assert reliability(sel.frequency_hz - delta) < scenario.rho_th

    res = _run_cli("plan", "--config", str(cfg), "--platform", "nano",
                   "--n-img", "8", cwd=str(tmp_path))
    assert res.returncode == 2, res.stderr
    assert "no feasible plan" in res.stderr
    nano = scenario.platform_named("nano")
    gt = ss.ground_truth_for(scenario, 0)
    with pytest.raises(InfeasibleConstraintError) as info:
        ss.select_and_price("gamma", gt, budget, 8, scenario.rho_th, nano)
    got = info.value.achievable_reliability
    want = special.gammainc(8 * gt.shape_at(nano.f_max_hz),
                            budget.t_proc_s / gt.scale_at(nano.f_max_hz))
    assert math.isfinite(got) and abs(got - want) < 1e-12
