"""Tests of the benchmark's oracle and of its output checks.

    python3 -m pytest -q bench

The oracle is compared with mpmath at 50 digits. Each workload check must
pass the package's real output and reject a slightly damaged copy of it.
"""

import dataclasses
import sys
from pathlib import Path
from types import SimpleNamespace

import mpmath
import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import oracle  # noqa: E402
import run  # noqa: E402
import satsched as ss  # noqa: E402

mpmath.mp.dps = 50

PLATFORM = SimpleNamespace(mu_c=1.071, work_flops=2.0e8, n_cores=1024,
                           n_flops=2.0, mu_sync_s=17.48e-3, f_min_hz=3.06e8,
                           f_max_hz=1.02e9, p_max_w=25.0)
MULTIPLIERS = [0.7, 0.9, 1.0, 1.1, 1.3]


def _mp_reliability(f_hz, t_proc_s, n_img, cv):
    """The oracle's quantity computed in mpmath from the same definitions."""
    p = PLATFORM
    mp = mpmath.mpf
    work = mp(p.mu_c) * mp(p.work_flops) / (p.n_cores * mp(p.n_flops))
    mean = work / mp(f_hz) + mp(p.mu_sync_s)
    mean_max = work / mp(p.f_max_hz) + mp(p.mu_sync_s)
    std = mp(cv) * mean_max * mp(p.f_max_hz) / mp(f_hz)
    a_img = (mean / std) ** 2
    mults = [mp(m) for m in MULTIPLIERS]
    gap = -sum(mpmath.log(m) for m in mults) / len(mults)
    target = mpmath.log(a_img) - mpmath.digamma(a_img) + gap
    shape = mpmath.findroot(lambda a: mpmath.log(a) - mpmath.digamma(a) - target,
                            (mp("0.01"), a_img), solver="anderson")
    scale = mean / shape
    return mpmath.gammainc(n_img * shape, 0, mp(t_proc_s) / scale,
                           regularized=True)


@pytest.mark.parametrize("f_hz, t_proc_s, n_img, cv", [
    (3.06e8, 0.4885, 1, 0.10),
    (5.0e8, 0.4885, 3, 0.10),
    (7.5e8, 0.30, 4, 0.10),
    (1.02e9, 0.25, 4, 0.05),
    (6.6e8, 0.40, 12, 0.02),
])
def test_oracle_reliability_matches_mpmath(f_hz, t_proc_s, n_img, cv):
    model = oracle.GroundTruthModel(PLATFORM, cv, "structural", MULTIPLIERS)
    want = float(_mp_reliability(f_hz, t_proc_s, n_img, cv))
    got = model.reliability(f_hz, t_proc_s, n_img)
    assert got == pytest.approx(want, abs=1e-12, rel=1e-11)


@pytest.mark.parametrize("a, x", [(0.5, 0.2), (3.0, 2.5), (47.1, 50.0),
                                  (300.0, 290.0), (1300.0, 1350.0)])
def test_fitted_model_cdf_matches_mpmath(a, x):
    fitted = oracle.FittedModel([a], [2.0], 1.0, 2.0)
    want = float(mpmath.gammainc(a, 0, x, regularized=True))
    assert fitted.reliability(1.5, 2.0 * x, 1) == pytest.approx(
        want, abs=1e-13, rel=1e-12)


def test_channel_matches_package_legs():
    scenario = ss.load_scenario()
    chan = oracle.Channel(scenario.raw)
    for elevation in (90.0, 45.0, 20.0, 10.0):
        legs = ss.comm_legs(scenario, elevation)
        assert chan.t_proc_s(elevation) == pytest.approx(
            scenario.t_e2e_s - legs.total_s, rel=1e-12)


# ---------------------------------------------------------------------------
# checks reject damaged outputs


def _models(env):
    cfg = env.scenario.raw["experiment"]["ground_truth"]
    return (oracle.Channel(env.scenario.raw),
            {name: oracle.GroundTruthModel(env.platforms[name], cfg["cv"],
                                           cfg["variance_model"],
                                           gt.work_multipliers)
             for name, gt in env.gts.items()})


@pytest.fixture(scope="module")
def plan_env():
    return run.build_env(ss, "plans", 0)


def _shift(sel, model, share):
    return dataclasses.replace(sel, frequency_hz=sel.frequency_hz
                               - share * model.span_hz)


def test_request_check_rejects_damage(plan_env):
    chan, models = _models(plan_env)
    rho = plan_env.scenario.rho_th
    req = run.plan_request(ss, plan_env, "nano", 4, 50.0)
    model = models["nano"]
    assert req.gamma.frequency_hz > model.f_min_hz
    assert checks.check_request(chan, model, req, rho) == []
    damaged = [
        dataclasses.replace(req, gamma=_shift(req.gamma, model, 1e-3)),
        dataclasses.replace(req, cantelli=_shift(req.cantelli, model, 1e-3)),
        dataclasses.replace(req, gamma=dataclasses.replace(
            req.gamma, frequency_hz=req.gamma.frequency_hz + 1e-3 * model.span_hz)),
        dataclasses.replace(req, gamma=dataclasses.replace(
            req.gamma, reliability=req.gamma.reliability + 1e-6)),
        dataclasses.replace(req, cantelli=dataclasses.replace(
            req.cantelli, energy_j=req.cantelli.energy_j * 1.001)),
        dataclasses.replace(req, t_proc_s=req.t_proc_s * (1.0 + 1e-6)),
        dataclasses.replace(req, cantelli=req.gamma),
    ]
    for bad in damaged:
        assert checks.check_request(chan, model, bad, rho), bad


def test_request_check_floor_answer(plan_env):
    chan, models = _models(plan_env)
    rho = plan_env.scenario.rho_th
    req = run.plan_request(ss, plan_env, "agx", 3, 30.0)
    model = models["agx"]
    assert req.gamma.frequency_hz == model.f_min_hz
    assert checks.check_request(chan, model, req, rho) == []
    # a floor answer where the floor misses the target is caught
    tight = dataclasses.replace(req, n_img=8)
    assert checks.check_request(chan, model, tight, rho)


def _figure(kind, overlay, tmp_path):
    scenario = ss.resolve(ss.merge_config(overlay))
    env = run.Env(scenario, {p.name: ss.ground_truth_for(scenario, i)
                             for i, p in enumerate(scenario.platforms)},
                  {}, {p.name: p for p in scenario.platforms})
    out = {"fig3": ss.run_fig3, "fig4": ss.run_fig4,
           "fig5": ss.run_fig5}[kind](scenario, str(tmp_path))
    texts = {key: Path(path).read_text() for key, path in out["paths"].items()
             if path.endswith(".csv")}
    return env, out.get("results"), texts


def _replace_cell(text, row_index, column, transform):
    lines = text.splitlines()
    header = lines[0].split(",")
    cells = lines[row_index].split(",")
    j = header.index(column)
    cells[j] = transform(cells[j])
    lines[row_index] = ",".join(cells)
    return "\n".join(lines) + "\n"


def test_fig4_check_rejects_damage(tmp_path):
    env, results, texts = _figure("fig4", {"experiment": {"fig4": {"n_img_max": 12}}},
                                  tmp_path)
    chan, models = _models(env)
    sc = env.scenario
    assert checks.check_fig4(chan, models, sc, results, texts["csv"]) == []
    model = models["nano"]
    rows = results["nano"]
    i = next(i for i, r in enumerate(rows)
             if r[0] == "gamma" and r[4] and r[2] > model.f_min_hz)
    method, n_img, f_hz, e_j, ok = rows[i]

    def damaged(entry):
        bad = dict(results)
        bad["nano"] = rows[:i] + [entry] + rows[i + 1:]
        return bad
    for entry in [(method, n_img, f_hz - 1e-3 * model.span_hz, e_j, ok),
                  (method, n_img, f_hz, e_j * 1.001, ok),
                  (method, n_img, None, None, False)]:
        assert checks.check_fig4(chan, models, sc, damaged(entry), texts["csv"])
    bad_csv = _replace_cell(texts["csv"], 1, "energy_j",
                            lambda v: format(float(v) * 1.001, ".9g"))
    assert checks.check_fig4(chan, models, sc, results, bad_csv)


def test_fig5_check_rejects_damage(tmp_path):
    overlay = {"experiment": {
        "elevation_sweep_deg": {"start": 90.0, "stop": 5.0, "step": 17.0},
        "fig5": {"n_img": {"nano": [4], "agx": [8]}}}}
    env, _, texts = _figure("fig5", overlay, tmp_path)
    chan, models = _models(env)
    sc = env.scenario
    text = texts["csv"]
    assert checks.check_fig5(chan, models, sc, text) == []
    span = models["nano"].span_hz
    row = 1 + next(i for i, line in enumerate(text.splitlines()[1:])
                   if line.startswith("nano,") and line.endswith(",1"))
    for column, transform in [
            ("frequency_hz", lambda v: format(float(v) - 1e-3 * span, ".9g")),
            ("energy_j", lambda v: format(float(v) * 1.001, ".9g")),
            ("t_proc_s", lambda v: format(float(v) - 1e-6, ".9g")),
            ("e_t_ul_s", lambda v: format(float(v) * 1.001, ".9g")),
            ("feasible", lambda v: "0")]:
        bad = _replace_cell(text, row, column, transform)
        assert checks.check_fig5(chan, models, sc, bad), column
    dropped = "\n".join(text.splitlines()[:-1]) + "\n"
    assert checks.check_fig5(chan, models, sc, dropped)


def test_fig3_check_rejects_damage(tmp_path):
    overlay = {"experiment": {"fig3": {"k_replicates": 2,
                                       "sample_sizes": [10, 300]}}}
    env, results, texts = _figure("fig3", overlay, tmp_path)
    chan, models = _models(env)
    sc = env.scenario
    rng = np.random.default_rng(0)
    reruns = [run.rerun_replicate(ss, oracle, env, rng) for _ in range(2)]
    args = (texts["replicates_csv"], texts["summary_csv"])
    assert checks.check_fig3(chan, models, sc, results, *args, reruns) == []

    study = results["agx"][1]
    rep = study.replicates[0]

    def with_rep(new):
        bad = dict(results)
        bad["agx"] = [results["agx"][0], dataclasses.replace(
            study, replicates=(new,) + study.replicates[1:])]
        return bad
    for new in [dataclasses.replace(rep, p_miss=rep.p_miss + 1e-6),
                dataclasses.replace(rep, infeasible=True)]:
        assert checks.check_fig3(chan, models, sc, with_rep(new), *args, reruns)
    name, n_s, k, rerun = reruns[0]
    moved = dataclasses.replace(rerun, f_hat_hz=rerun.f_hat_hz * (1.0 - 1e-9))
    assert checks.check_fig3(chan, models, sc, results, *args,
                             [(name, n_s, k, moved)])
    # the fitted model's own two-sided test catches an answer 1e-3 of the
    # span too low, once the study agrees with it
    low = rerun.f_hat_hz - 1e-3 * models[name].span_hz
    assert checks.two_sided(rerun.fitted, "gamma", low,
                            chan.t_proc_s(sc.elevation_deg),
                            sc.fig3_n_img[name], sc.rho_th, "fitted")
    bad_summary = _replace_cell(texts["summary_csv"], 1, "mean_p_miss",
                                lambda v: format(float(v) + 1e-6, ".9g"))
    assert checks.check_fig3(chan, models, sc, results, texts["replicates_csv"],
                             bad_summary, reruns)
