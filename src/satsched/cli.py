"""Command-line interface.

Subcommands:
    fit              fit a frequency model from an execution-log CSV
    fig3             subset-size study (miss probability vs sample count)
    fig4             batch-size sweep (energy vs images per request)
    fig5             elevation sweep (energy vs serving elevation)
    plan             one-shot frequency decision, both planners side by side
    validate-config  strict-parse the config and echo the resolved values

Exit codes: 0 success, 1 configuration or usage error, 2 infeasible
instance, 3 numerical failure.
"""

import argparse
import dataclasses
import json
import math
import os
import sys

from .config import load_scenario
from .errors import (ConfigError, InfeasibleBudgetError,
                     InfeasibleConstraintError, InfeasibleLinkError,
                     SatschedError)
from .harness import (budget_from_legs, comm_legs, fit_report,
                      ground_truth_for, ingest_samples_csv, run_fig3,
                      run_fig4, run_fig5)
from .scheduler import select_and_price

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_INFEASIBLE = 2
EXIT_NUMERICAL = 3


def _shared_flags(defaults: bool) -> argparse.ArgumentParser:
    # the subcommands' copy has no defaults (SUPPRESS), so a flag given
    # before the subcommand name is not overwritten by the copy's default
    def default(value):
        return value if defaults else argparse.SUPPRESS

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", metavar="PATH", default=default(None),
                        help="JSON config; defaults apply where omitted")
    common.add_argument("--seed", type=int, metavar="U64",
                        default=default(None),
                        help="override experiment.seed")
    common.add_argument("--out", metavar="DIR", default=default("."),
                        help="output directory (default: current)")
    return common


def build_parser() -> argparse.ArgumentParser:
    # shared flags parse before or after the subcommand name; given on both
    # sides, the one after it wins
    common = _shared_flags(defaults=False)

    parser = argparse.ArgumentParser(
        prog="satsched",
        parents=[_shared_flags(defaults=True)],
        description="Energy-minimal GPU frequency planning for on-board "
                    "satellite image processing under a probabilistic "
                    "end-to-end deadline.")
    sub = parser.add_subparsers(dest="command", required=True)

    fit = sub.add_parser("fit", parents=[common],
                         help="fit a frequency model from a sample log")
    fit.add_argument("samples", metavar="CSV",
                     help="log with header image_id,frequency_hz,exec_time_s")
    fit.add_argument("--degree", type=int, default=None,
                     help="polynomial degree (default: experiment.fit.degree)")

    sub.add_parser("fig3", parents=[common], help="subset-size study CSVs")
    sub.add_parser("fig4", parents=[common], help="batch-size sweep CSV")
    sub.add_parser("fig5", parents=[common], help="elevation sweep CSV")

    plan = sub.add_parser("plan", parents=[common],
                          help="plan one request with both methods")
    plan.add_argument("--platform", required=True, metavar="NAME")
    plan.add_argument("--n-img", type=int, required=True, metavar="N")
    plan.add_argument("--elevation", type=float, default=None, metavar="DEG",
                      help="serving elevation (default: experiment.elevation_deg)")
    plan.add_argument("--deadline", type=float, default=None, metavar="SEC",
                      help="end-to-end deadline (default: experiment.t_e2e_s)")

    sub.add_parser("validate-config", parents=[common],
                   help="check the config and echo it")
    return parser


def _cmd_fit(args, scenario) -> int:
    degree = args.degree if args.degree is not None else scenario.fit_degree
    samples = ingest_samples_csv(args.samples)
    report = fit_report(samples, degree=degree)
    print(f"fitted {len(report['per_frequency'])} frequencies, "
          f"degree {report['degree']}")
    print(f"R^2 shape: {report['r2_shape']:.6f}   "
          f"R^2 scale: {report['r2_scale']:.6f}")
    print(f"{'frequency_hz':>14} {'n':>7} {'shape':>12} {'scale':>14} {'ks':>9}")
    for row in report["per_frequency"]:
        print(f"{row['frequency_hz']:>14.6g} {row['n_samples']:>7d} "
              f"{row['shape']:>12.6g} {row['scale']:>14.6g} "
              f"{row['ks_statistic']:>9.4f}")
    os.makedirs(args.out, exist_ok=True)
    out_path = os.path.join(args.out, "fit_model.json")
    with open(out_path, "w", encoding="utf-8", newline="") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {out_path}")
    return EXIT_OK


def _cmd_figure(args, scenario) -> int:
    runner = {"fig3": run_fig3, "fig4": run_fig4, "fig5": run_fig5}[args.command]
    out = runner(scenario, args.out)
    for path in sorted(out["paths"].values()):
        print(f"wrote {path}")
    return EXIT_OK


def _cmd_plan(args, scenario) -> int:
    if args.n_img < 1:
        raise ConfigError(f"--n-img: must be >= 1, got {args.n_img!r}")
    if args.elevation is not None and not 0.0 < args.elevation <= 90.0:
        raise ConfigError(f"--elevation: must be in (0, 90], got {args.elevation!r}")
    platform = scenario.platform_named(args.platform)
    pi = [p.name for p in scenario.platforms].index(platform.name)
    if args.deadline is not None:
        if not (math.isfinite(args.deadline) and args.deadline > 0.0):
            raise ConfigError(f"--deadline: must be > 0, got {args.deadline!r}")
        scenario = dataclasses.replace(scenario, t_e2e_s=float(args.deadline))
    elevation = (args.elevation if args.elevation is not None
                 else scenario.elevation_deg)
    legs = comm_legs(scenario, elevation)
    budget = budget_from_legs(scenario, legs)
    gt = ground_truth_for(scenario, pi)

    print(f"platform {platform.name}, {args.n_img} images, "
          f"elevation {elevation:.6g} deg, deadline {scenario.t_e2e_s:.6g} s")
    print(f"uplink error prob {legs.error_probability:.3g}, "
          f"E[T_UL] {legs.expected_uplink_s * 1e3:.4g} ms, "
          f"relay {legs.isl_round_trip_s * 1e3:.4g} ms, "
          f"downlink {legs.downlink_s * 1e3:.4g} ms, "
          f"processing budget {budget.t_proc_s * 1e3:.6g} ms")
    print(f"{'method':<10} {'frequency_ghz':>14} {'energy_j':>10} "
          f"{'reliability':>12}")
    gamma_sel = None
    for method in ("gamma", "cantelli"):
        try:
            sel = select_and_price(method, gt, budget, args.n_img,
                                   scenario.rho_th, platform)
        except InfeasibleConstraintError as exc:
            print(f"{method:<10} {'infeasible':>14} {'-':>10} "
                  f"{exc.achievable_reliability:>12.6f}")
            continue
        if method == "gamma":
            gamma_sel = sel
        print(f"{method:<10} {sel.frequency_hz / 1e9:>14.6f} "
              f"{sel.energy_j:>10.4f} {sel.reliability:>12.6f}")
    if gamma_sel is None:
        print("no feasible plan at this operating point", file=sys.stderr)
        return EXIT_INFEASIBLE
    return EXIT_OK


def _cmd_validate(args, scenario) -> int:
    derived = {
        "noise_power_w": scenario.link_ul.noise_power_w,
        "symbol_time_s": scenario.grid.symbol_time_s,
        "uplink_airtime_s": scenario.grid.airtime_s,
        "nack_delay_s": scenario.grid.nack_delay_s,
        "shadow_margin_db": scenario.shadow_margin_db,
        "isl_hops": scenario.isl.hops,
        "isl_hop_distance_m": (scenario.isl.hop_distances_m[0]
                               if scenario.isl.hops else None),
        "platforms": {
            p.name: {"f_min_hz": p.f_min_hz, "f_max_hz": p.f_max_hz,
                     "work_flops": p.work_flops}
            for p in scenario.platforms
        },
    }
    print(json.dumps({"config": scenario.raw, "derived": derived},
                     indent=2, sort_keys=True))
    return EXIT_OK


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse: 0 after --help, 2 on a usage error
        return EXIT_CONFIG if exc.code else EXIT_OK
    try:
        scenario = load_scenario(args.config, seed_override=args.seed)
        if args.command == "fit":
            return _cmd_fit(args, scenario)
        if args.command in ("fig3", "fig4", "fig5"):
            return _cmd_figure(args, scenario)
        if args.command == "plan":
            return _cmd_plan(args, scenario)
        if args.command == "validate-config":
            return _cmd_validate(args, scenario)
        raise ConfigError(f"unknown command {args.command!r}")
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (InfeasibleBudgetError, InfeasibleConstraintError,
            InfeasibleLinkError) as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except SatschedError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
