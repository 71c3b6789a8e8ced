"""Layered benchmark of satsched, checked against an independent oracle.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (one client in a closed loop, one process):

* ``plan-stream``: single planning requests shaped like ``satsched plan``:
  comm_legs, budget_from_legs, then select_and_price for gamma and for
  cantelli, on ground truths built once at set-up.
* ``sweep``: run_fig4 and run_fig5 on the default scenario.
* ``subset-study``: run_fig3 with ``experiment.fig3.k_replicates`` reduced
  to ``FIG3_K``; full sample-size ladder, both platforms.

The seed draws the plan-stream requests and, for the figure workloads, is
the scenario's ``experiment.seed``. A run repeats whole rounds of its
workload's operations until ``--seconds`` of them have been timed. With
``--trace 0`` it prints every end-to-end metric: each workload times its own
operations in that loop, and the operations of the other two workloads run
once more afterwards as a probe (200 requests, one round of each other
figure), so every run reports the full set. With ``--trace 1`` the loop runs
with spans around each layer's public functions and prints the per-layer
metrics instead. All times are in reference units (see ``calibration.py``).
Every output is checked against ``oracle.py`` after the timed work. The
last line of standard output is the JSON result; result and trace files go
to ``.bench_out/`` at the repository root.
"""

import os

# one client in one process: numerical libraries get one thread each, set
# before numpy is first imported
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import platform as _platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

# imports numpy, so the set-up clock below covers satsched's own import only
import calibration  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

WORKLOADS = {
    "plan-stream": ("plans",),
    "sweep": ("fig4", "fig5"),
    "subset-study": ("fig3",),
}
SETUP_REPEATS = 5
FIG3_K = 3
FIG3_RERUNS_PER_CALL = 2
MIN_REQUESTS = 200      # leaves at least ten requests beyond the p95
# a fig4 call takes about a fifteenth of a fig5 call, so a round makes three
# and fig4_s is their median
CALLS_PER_ROUND = {"fig4": 3}
ELEVATION_DEG = (20.0, 90.0)
# One plan-stream block of (platform, n_img) cells. Both planners are
# feasible in every cell at every elevation in ELEVATION_DEG, and each cell
# lands on the same side of the f_min floor throughout: gamma and cantelli
# at the floor for nano 1 and agx 1, 3; gamma at the floor and cantelli above
# it for nano 2 and agx 5; both above it for the rest. So every block does
# the same kernel work whatever the seed, which draws the order of the cells
# and each request's elevation.
BLOCK = (("nano", 1), ("nano", 2), ("nano", 3), ("nano", 4), ("nano", 5),
         ("nano", 6), ("agx", 1), ("agx", 3), ("agx", 5), ("agx", 6),
         ("agx", 8), ("agx", 10), ("agx", 12))

END_TO_END_UNITS = {"setup_s": "s", "plan_p50_ms": "ms", "plan_p95_ms": "ms",
                    "plans_per_s": "1/s", "fig4_s": "s", "fig5_s": "s",
                    "fig3_s": "s"}


def overlay(kind, seed):
    """Config overlay of the scenario an operation kind runs on."""
    if kind == "plans":
        return {}
    if kind == "fig3":
        return {"experiment": {"seed": seed, "fig3": {"k_replicates": FIG3_K}}}
    return {"experiment": {"seed": seed}}


@dataclass
class Env:
    scenario: object
    gts: dict
    moments: dict
    platforms: dict


def build_env(ss, kind, seed):
    scenario = ss.resolve(ss.merge_config(overlay(kind, seed)))
    gts, moments, platforms = {}, {}, {}
    for i, p in enumerate(scenario.platforms):
        gts[p.name] = ss.ground_truth_for(scenario, i)
        moments[p.name] = ss.MomentModel.from_shape_scale_model(gts[p.name])
        platforms[p.name] = p
    ss.kernels.warm_up()
    return Env(scenario, gts, moments, platforms)


def set_up(kind, seed):
    """Import the package, then build the workload SETUP_REPEATS times.

    Returns the package, the last build and the (start, end) spans of the
    import and of each build; setup_s is the import plus the median build.
    """
    t0 = time.perf_counter()
    sys.path.insert(0, str(SRC))
    try:
        ss = importlib.import_module("satsched")
    except ImportError as exc:
        raise SystemExit(f"bench: cannot import satsched from {SRC}: {exc}")
    spans = {"import": (t0, time.perf_counter()), "builds": []}
    if Path(ss.__file__).resolve().parent != SRC / "satsched":
        raise SystemExit(f"bench: imported satsched from {ss.__file__}, "
                         f"not from {SRC}")
    for _ in range(SETUP_REPEATS):
        t = time.perf_counter()
        env = build_env(ss, kind, seed)
        spans["builds"].append((t, time.perf_counter()))
    return ss, env, spans


# ---------------------------------------------------------------------------
# operations


@dataclass
class Request:
    platform: str
    n_img: int
    elevation_deg: float
    t_proc_s: float
    gamma: object
    cantelli: object


class RequestStream:
    """Blocks of BLOCK cells in seeded order, with seeded elevations."""

    def __init__(self, np, seed):
        # second key word: this stream, apart from the rerun choice below
        self.rng = np.random.default_rng([seed, 1])

    def next_block(self):
        order = self.rng.permutation(len(BLOCK))
        elevations = self.rng.uniform(*ELEVATION_DEG, size=len(BLOCK))
        return [(*BLOCK[i], float(el)) for i, el in zip(order, elevations)]


def plan_request(ss, env, name, n_img, elevation):
    scenario = env.scenario
    platform = env.platforms[name]
    legs = ss.comm_legs(scenario, elevation)
    budget = ss.budget_from_legs(scenario, legs)
    sel = {}
    for method in ("gamma", "cantelli"):
        sel[method] = ss.select_and_price(method, env.gts[name], budget, n_img,
                                          scenario.rho_th, platform,
                                          moments=env.moments[name])
    return Request(name, n_img, elevation, budget.t_proc_s, sel["gamma"],
                   sel["cantelli"])


class Runner:
    """Runs operations, times them, and keeps their outputs for the checks."""

    def __init__(self, ss, np, seed, work_dir, tracer=None):
        self.ss = ss
        self.work_dir = work_dir
        self.tracer = tracer
        self.stream = RequestStream(np, seed)
        self.request_spans = []  # (start, end) of each plan request
        self.block_spans = []
        self.figure_spans = {"fig3": [], "fig4": [], "fig5": []}
        self.requests = []
        self.figures = []        # (kind, env, output)
        self.attempted = 0
        self.failed = 0
        self.failures = []
        self.csv_bytes = 0
        self.replicates = 0
        self.infeasible_replicates = 0

    def _call(self, label, fn, *args):
        if self.tracer is None:
            return fn(*args)
        return self.tracer.operation(label, fn, *args)

    def plans(self, env):
        """One block of requests; returns the time it took."""
        start = time.perf_counter()
        for name, n_img, elevation in self.stream.next_block():
            self.attempted += 1
            t0 = time.perf_counter()
            try:
                req = self._call("bench.request", plan_request, self.ss, env,
                                 name, n_img, elevation)
            except self.ss.SatschedError as exc:
                self.failed += 1
                self.failures.append(f"request {name} n_img={n_img} "
                                     f"elevation={elevation}: {exc!r}")
                continue
            self.request_spans.append((t0, time.perf_counter()))
            self.requests.append((env, req))
        self.block_spans.append((start, time.perf_counter()))
        return self.block_spans[-1][1] - start

    def figure(self, kind, env):
        runner = {"fig3": self.ss.run_fig3, "fig4": self.ss.run_fig4,
                  "fig5": self.ss.run_fig5}[kind]
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            out = self._call("bench." + kind, runner, env.scenario,
                             str(self.work_dir))
        except self.ss.SatschedError as exc:
            self.failed += 1
            self.failures.append(f"{kind}: {exc!r}")
            return time.perf_counter() - t0
        self.figure_spans[kind].append((t0, time.perf_counter()))
        dt = self.figure_spans[kind][-1][1] - t0
        texts = {}
        for key, path in out["paths"].items():
            if path.endswith(".csv"):
                self.csv_bytes += os.path.getsize(path)
                with open(path, encoding="utf-8") as fh:
                    texts[key] = fh.read()
        if kind == "fig3":
            for studies in out["results"].values():
                for study in studies:
                    self.replicates += len(study.replicates)
                    self.infeasible_replicates += study.n_infeasible
        self.figures.append((kind, env, out.get("results"), texts))
        return dt

    def round(self, kind, env):
        """One round of an operation kind; returns the time it took."""
        if kind == "plans":
            return self.plans(env)
        return sum(self.figure(kind, env)
                   for _ in range(CALLS_PER_ROUND.get(kind, 1)))


def timed_loop(runner, kinds, env, seconds):
    """Whole rounds of the workload's operations until `seconds` are timed."""
    busy = 0.0
    rounds = 0
    while (busy < seconds
           or ("plans" in kinds and len(runner.request_spans) < MIN_REQUESTS)):
        for kind in kinds:
            busy += runner.round(kind, env)
        rounds += 1
    return busy, rounds


# ---------------------------------------------------------------------------
# checks


def check_all(ss, np, runner, seed):
    import checks
    import oracle

    cache = {}

    def models_for(env):
        key = id(env)
        if key not in cache:
            sc = env.scenario
            gt_cfg = sc.raw["experiment"]["ground_truth"]
            models = {name: oracle.GroundTruthModel(
                env.platforms[name], gt_cfg["cv"], gt_cfg["variance_model"],
                gt.work_multipliers) for name, gt in env.gts.items()}
            cache[key] = (oracle.Channel(sc.raw), models)
        return cache[key]

    problems = list(runner.failures)
    # requests per platform and planner: [at the f_min floor, above it]
    floor_share = {}
    for env, req in runner.requests:
        chan, models = models_for(env)
        problems += checks.check_request(chan, models[req.platform], req,
                                         env.scenario.rho_th)
        f_min = env.platforms[req.platform].f_min_hz
        for method, sel in (("gamma", req.gamma), ("cantelli", req.cantelli)):
            counts = floor_share.setdefault(req.platform, {}).setdefault(
                method, [0, 0])
            counts[0 if sel.frequency_hz == f_min else 1] += 1
    rng = np.random.default_rng([seed, 2])
    for kind, env, results, texts in runner.figures:
        chan, models = models_for(env)
        sc = env.scenario
        if kind == "fig4":
            problems += checks.check_fig4(chan, models, sc, results, texts["csv"])
        elif kind == "fig5":
            problems += checks.check_fig5(chan, models, sc, texts["csv"])
        else:
            reruns = [rerun_replicate(ss, oracle, env, rng)
                      for _ in range(FIG3_RERUNS_PER_CALL)]
            problems += checks.check_fig3(
                chan, models, sc, results, texts["replicates_csv"],
                texts["summary_csv"], reruns)
    return problems, floor_share


@dataclass
class Rerun:
    f_hat_hz: float
    infeasible: bool
    fitted: object


def rerun_replicate(ss, oracle, env, rng):
    """Run one fig3 replicate again on its own stream, keeping its model."""
    sc = env.scenario
    pi = int(rng.integers(len(sc.platforms)))
    platform = sc.platforms[pi]
    n_s = int(sc.fig3_sample_sizes[int(rng.integers(len(sc.fig3_sample_sizes)))])
    k = int(rng.integers(sc.fig3_k_replicates))
    gt = env.gts[platform.name]
    budget = ss.budget_from_legs(sc, ss.comm_legs(sc, sc.elevation_deg))
    stream = ss.stream(sc.seed, sc.bit_generator, ss.NS_SUBSET_STUDY, pi, n_s, k)
    rep = ss.run_subset_replicate(
        gt, gt.image_ids, n_s,
        ss.fit_frequency_grid(platform, sc.fit_n_frequencies), budget,
        sc.fig3_n_img[platform.name], sc.rho_th, platform, stream,
        degree=sc.fit_degree, keep_model=True)
    fitted = None
    if rep.model is not None:
        fitted = oracle.FittedModel(rep.model.shape_poly.coefficients,
                                    rep.model.scale_poly.coefficients,
                                    platform.f_min_hz, platform.f_max_hz)
    return platform.name, n_s, k, Rerun(rep.f_hat_hz, rep.infeasible, fitted)


# ---------------------------------------------------------------------------
# metrics


def end_to_end(np, runner, setup_spans, seconds):
    """The end-to-end metrics, with ``seconds(start, end)`` as the clock.

    Metrics of operations the run did not make are left out.
    """
    values = {"setup_s": seconds(*setup_spans["import"]) + statistics.median(
        [seconds(*span) for span in setup_spans["builds"]])}
    if runner.request_spans:
        lat_ms = np.array([seconds(*span) for span in runner.request_spans]) * 1e3
        values["plan_p50_ms"] = float(np.percentile(lat_ms, 50.0))
        values["plan_p95_ms"] = float(np.percentile(lat_ms, 95.0))
        values["plans_per_s"] = len(lat_ms) / sum(
            seconds(*span) for span in runner.block_spans)
    for kind in ("fig4", "fig5", "fig3"):
        if runner.figure_spans[kind]:
            values[kind + "_s"] = statistics.median(
                [seconds(*span) for span in runner.figure_spans[kind]])
    return {name: {"value": values[name], "unit": unit}
            for name, unit in END_TO_END_UNITS.items() if name in values}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    kinds = WORKLOADS[args.workload]

    OUT.mkdir(exist_ok=True)
    work_dir = Path(tempfile.mkdtemp(prefix="work-", dir=OUT))
    try:
        with calibration.Speedometer() as speed:
            ss, env, setup_spans = set_up(kinds[0], args.seed)
            import numpy as np

            import tracing

            tracer = tracing.Tracer() if args.trace else None
            runner = Runner(ss, np, args.seed, work_dir, tracer)
            if tracer is not None:
                tracing.install(tracer, ss)
            try:
                busy, rounds = timed_loop(runner, kinds, env, args.seconds)
            finally:
                if tracer is not None:
                    tracer.uninstall()
            ops = runner.replicates if kinds == ("fig3",) else runner.attempted
            if not args.trace:
                for kind in ("plans", "fig4", "fig5", "fig3"):
                    if kind in kinds:
                        continue
                    probe_env = build_env(ss, kind, args.seed)
                    if kind == "plans":
                        while len(runner.request_spans) < MIN_REQUESTS:
                            runner.plans(probe_env)
                    else:
                        runner.round(kind, probe_env)
        problems, floor_share = check_all(ss, np, runner, args.seed)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    reference = end_to_end(np, runner, setup_spans, speed.reference_seconds)
    raw = end_to_end(np, runner, setup_spans, lambda t0, t1: t1 - t0)
    if args.trace:
        metrics = tracing.per_layer(tracer, ops, {
            "csv_bytes": runner.csv_bytes,
            "infeasible_replicates": runner.infeasible_replicates},
            speed.factor())
    else:
        metrics = reference
    result = {"correct": not problems, "attempted": runner.attempted,
              "failed": runner.failed, "metrics": metrics}

    import scipy
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    details = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "timed_s": busy, "rounds": rounds, "operations": ops,
        "requests": len(runner.request_spans),
        "end_to_end_reference": reference, "end_to_end_raw": raw,
        "speed_samples": len(speed.durations),
        "speed_median_s": statistics.median(speed.durations),
        "floor_above_by_platform_and_planner": floor_share,
        "problems": problems[:50], "result": result,
        "machine": {"nproc": os.cpu_count(), "python": _platform.python_version(),
                    "numpy": np.__version__, "scipy": scipy.__version__,
                    "backend": ss.BACKEND},
    }
    with open(OUT / f"{stem}.json", "w", encoding="utf-8") as fh:
        json.dump(details, fh, indent=1)
        fh.write("\n")
    if tracer is not None:
        tracer.write(OUT / f"{args.workload}-seed{args.seed}-spans.json",
                     {"workload": args.workload, "seed": args.seed,
                      "operations": ops})

    for problem in problems[:20]:
        print(f"bench: check failed: {problem}", file=sys.stderr)
    print(f"workload {args.workload}, seed {args.seed}: {rounds} rounds, "
          f"{ops} operations in {busy:.2f} s timed")
    for name, m in metrics.items():
        print(f"  {name:<34} {m['value']:.6g} {m['unit']}")
    print(f"  attempted {runner.attempted}, failed {runner.failed}, "
          f"correct {str(not problems).lower()}")
    print(json.dumps(result))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
