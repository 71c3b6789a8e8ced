"""The benchmark's tracer still finds every name it wraps.

``bench/tracing.py`` wraps package functions by name, and a change that
claims a speed-up may not edit the benchmark, so a renamed function would
only show up as a failed benchmark run. This test installs the tracer on
the package, plans one request the way the benchmark's ``plan-stream``
workload does, and uninstalls it. It reads ``bench/`` and writes nothing
there: the tracer's source is executed, not imported, so no bytecode cache
is written.
"""

import pathlib
import sys
import types

import numpy as np
import pytest

import satsched as ss

TRACING = pathlib.Path(__file__).resolve().parent.parent / "bench" / "tracing.py"

# spans the traced window must record: the kernels, every planner step and
# score call, pricing and the legs of one plan request, and the ground
# truth's array shape lookup, which a plan does not make (it reads the kept
# grid values), so the test calls it directly
PLAN_SPANS = ("kernels.cdf", "harness.shape_at", "numerics.gamma_cdf",
              "scheduler.score", "scheduler.select_and_price",
              "scheduler.solve_optimal_frequency",
              "scheduler.solve_cantelli_frequency", "harness.comm_legs",
              "harness.budget_from_legs")


def _load_tracing():
    if not TRACING.exists():
        pytest.skip("no bench/ beside tests/")
    module = types.ModuleType("satsched_bench_tracing")
    exec(compile(TRACING.read_text(encoding="utf-8"), str(TRACING), "exec"),
         module.__dict__)
    return module


def _package_bindings():
    # every name a satsched module or GroundTruth binds, by identity
    out = {}
    for name, mod in list(sys.modules.items()):
        if mod is not None and (name == "satsched"
                                or name.startswith("satsched.")):
            out.update({(name, k): v for k, v in vars(mod).items()})
    out.update({("GroundTruth", k): v
                for k, v in vars(ss.harness.GroundTruth).items()})
    return out


def test_bench_tracer_wraps_a_plan_request(scenario, gt_nano, nano):
    tracing = _load_tracing()
    before = _package_bindings()
    tracer = tracing.Tracer()
    try:
        tracing.install(tracer, ss)
        moments = ss.MomentModel.from_shape_scale_model(gt_nano)
        legs = ss.comm_legs(scenario, 55.0)
        budget = ss.budget_from_legs(scenario, legs)
        for method in ("gamma", "cantelli"):
            sel = ss.select_and_price(method, gt_nano, budget, 4,
                                      scenario.rho_th, nano, moments=moments)
            assert sel.frequency_hz > nano.f_min_hz
        gt_nano.shape_at(np.array([nano.f_min_hz, nano.f_max_hz]))
    finally:
        tracer.uninstall()
    missing = [n for n in PLAN_SPANS if tracer.total(n, 0) == 0]
    assert not missing, missing
    after = _package_bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is v for k, v in before.items())
