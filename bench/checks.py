"""Checks of every workload output against the oracle.

Each check returns a list of problems; an empty list means the output
passed. Planner answers get a two-sided test: the oracle's score at the
answer reaches rho_th (within ``P_TOL``), and, unless the answer is the
f_min floor, the score a step of ``STEP`` times the span lower misses it.
Frequencies read back from a CSV carry 9 significant digits, so those
checks widen by the rounding unit of the printed value.

Nothing here imports satsched: outputs are read through their attributes
(``frequency_hz``, ``energy_j``, ``reliability``, ...) or parsed from CSV
text, and the scenario through plain attributes.
"""

import csv
import io
import math

import numpy as np

P_TOL = 1e-9       # absolute, on probabilities
REL_TOL = 1e-9     # relative, on energies and times
STEP = 1e-4        # step-down, as a share of the frequency span
CSV_REL_TOL = 1e-8  # relative, on values printed with 9 significant digits
METHODS = ("gamma", "cantelli")


def rounding_unit(x: float) -> float:
    """Half a unit in the 9th significant digit of ``x``."""
    if x == 0.0 or not math.isfinite(x):
        return 0.0
    return 0.5 * 10.0 ** (math.floor(math.log10(abs(x))) - 8)


def _close(a: float, b: float, rel: float, abs_tol: float = 0.0) -> bool:
    if math.isinf(a) or math.isinf(b):
        return a == b
    return abs(a - b) <= rel * max(abs(a), abs(b)) + abs_tol


def _score(model, method):
    return model.reliability if method == "gamma" else model.cantelli


def two_sided(model, method, f_hz, t_proc_s, n_img, rho, label, unit=0.0):
    """The answer meets rho_th and a step of STEP * span lower misses it."""
    score = _score(model, method)
    problems = []
    at = score(min(f_hz + unit, model.f_max_hz), t_proc_s, n_img)
    if at < rho - P_TOL:
        problems.append(f"{label}: {method} score {at:.12g} at f* = "
                        f"{f_hz:.10g} Hz is below {rho}")
    if f_hz - unit > model.f_min_hz:
        f_low = max(model.f_min_hz, f_hz - STEP * model.span_hz)
        below = score(f_low, t_proc_s, n_img)
        if below >= rho:
            problems.append(f"{label}: {method} score {below:.12g} at "
                            f"{f_low:.10g} Hz, below f* = {f_hz:.10g} Hz, "
                            f"still meets {rho}; f* is not the lowest clock")
    return problems


def confirm_infeasible(model, method, t_proc_s, n_img, rho, label):
    at = _score(model, method)(model.f_max_hz, t_proc_s, n_img)
    if at >= rho + P_TOL:
        return [f"{label}: {method} reported infeasible, but the oracle "
                f"score at f_max is {at:.12g} >= {rho}"]
    return []


def _energy_tolerance(model, f_hz, n_img, unit):
    e = model.energy_j(f_hz, n_img)
    tol = REL_TOL * e
    if unit:
        lo = model.energy_j(max(model.f_min_hz, f_hz - unit), n_img)
        hi = model.energy_j(min(model.f_max_hz, f_hz + unit), n_img)
        tol += max(abs(hi - e), abs(e - lo)) + CSV_REL_TOL * e
    return e, tol


def check_plan(model, method, sel, t_proc_s, n_img, rho, label):
    """A priced planner answer held in memory (exact floats)."""
    f = sel.frequency_hz
    problems = two_sided(model, method, f, t_proc_s, n_img, rho, label)
    p = model.reliability(f, t_proc_s, n_img)
    if abs(sel.reliability - p) > P_TOL:
        problems.append(f"{label}: {method} reliability {sel.reliability:.15g}"
                        f" differs from the oracle {p:.15g}")
    e, tol = _energy_tolerance(model, f, n_img, 0.0)
    if abs(sel.energy_j - e) > tol:
        problems.append(f"{label}: {method} energy {sel.energy_j:.15g} J "
                        f"differs from the oracle {e:.15g} J")
    return problems


def check_request(chan, model, req, rho):
    """One plan-stream request: legs, both planners, their order."""
    label = (f"request platform={req.platform} n_img={req.n_img} "
             f"elevation={req.elevation_deg:.6f}")
    t = chan.t_proc_s(req.elevation_deg)
    problems = []
    if not _close(req.t_proc_s, t, REL_TOL):
        problems.append(f"{label}: t_proc {req.t_proc_s:.15g} s differs from "
                        f"deadline minus legs {t:.15g} s")
    problems += check_plan(model, "gamma", req.gamma, t, req.n_img, rho, label)
    problems += check_plan(model, "cantelli", req.cantelli, t, req.n_img, rho,
                           label)
    if req.cantelli.frequency_hz < req.gamma.frequency_hz:
        problems.append(f"{label}: cantelli picked {req.cantelli.frequency_hz:.10g}"
                        f" Hz, below gamma's {req.gamma.frequency_hz:.10g} Hz")
    return problems


def _rows(text):
    reader = csv.reader(io.StringIO(text))
    header = next(reader)
    return header, [dict(zip(header, row)) for row in reader]


def _fmt(value):
    if value is None:
        return ""
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, int):
        return str(value)
    return format(float(value), ".9g")


def _order(label, freqs, feasible):
    """Cantelli never below gamma; cantelli infeasible where gamma is."""
    if feasible["cantelli"] and not feasible["gamma"]:
        return [f"{label}: cantelli feasible where gamma is not"]
    if (feasible["gamma"] and feasible["cantelli"]
            and freqs["cantelli"] < freqs["gamma"]):
        return [f"{label}: cantelli picked {freqs['cantelli']:.10g} Hz, below "
                f"gamma's {freqs['gamma']:.10g} Hz"]
    return []


def check_fig4(chan, models, scenario, results, csv_text):
    """Batch sweep: in-memory rows against the oracle, the CSV against them."""
    rho = scenario.rho_th
    t = chan.t_proc_s(scenario.elevation_deg)
    problems = []
    expected_csv = []
    for platform in scenario.platforms:
        model = models[platform.name]
        entries = results.get(platform.name, [])
        by_n = {}
        for method, n_img, f_hz, e_j, ok in entries:
            by_n.setdefault(n_img, {})[method] = (f_hz, e_j, ok)
        last = max(by_n) if by_n else 0
        if sorted(by_n) != list(range(1, last + 1)):
            problems.append(f"fig4 {platform.name}: n_img rows {sorted(by_n)} "
                            "are not 1..N")
        for n_img in range(1, last + 1):
            cell = by_n.get(n_img, {})
            if set(cell) != set(METHODS):
                problems.append(f"fig4 {platform.name} n_img={n_img}: methods "
                                f"{sorted(cell)}")
                continue
            label = f"fig4 {platform.name} n_img={n_img}"
            for method in METHODS:
                f_hz, e_j, ok = cell[method]
                if ok:
                    problems += two_sided(model, method, f_hz, t, n_img, rho,
                                          label)
                    e, tol = _energy_tolerance(model, f_hz, n_img, 0.0)
                    if abs(e_j - e) > tol:
                        problems.append(f"{label}: {method} energy {e_j:.15g}"
                                        f" J differs from the oracle {e:.15g} J")
                else:
                    problems += confirm_infeasible(model, method, t, n_img,
                                                   rho, label)
            both_out = not any(cell[m][2] for m in METHODS)
            if both_out and n_img != last:
                problems.append(f"{label}: both planners fail, yet the sweep "
                                "went on")
            if (n_img == last and not both_out
                    and last != scenario.fig4_n_img_max):
                problems.append(f"{label}: the sweep stopped before both "
                                "planners failed")
            problems += _order(label, {m: cell[m][0] for m in METHODS},
                               {m: cell[m][2] for m in METHODS})
        for mi, method in enumerate(METHODS):
            for n_img in range(1, last + 1):
                f_hz, e_j, ok = by_n.get(n_img, {}).get(method, (None, None, False))
                expected_csv.append([platform.name, method, str(n_img), _fmt(f_hz),
                                     _fmt(e_j), _fmt(bool(ok))])
    header, rows = _rows(csv_text)
    got = [[r[h] for h in header] for r in rows]
    if header != ["platform", "method", "n_img", "frequency_hz", "energy_j",
                  "feasible"] or got != expected_csv:
        problems.append("fig4.csv does not hold the returned rows in "
                        "canonical order")
    return problems


def check_fig5(chan, models, scenario, csv_text):
    """Elevation sweep, read back from fig5.csv."""
    rho = scenario.rho_th
    header, rows = _rows(csv_text)
    problems = []
    if header != ["platform", "n_img", "elevation_deg", "e_t_ul_s", "t_proc_s",
                  "method", "frequency_hz", "energy_j", "feasible"]:
        return [f"fig5.csv header {header}"]
    expected = {(p.name, n, _fmt(el), m)
                for p in scenario.platforms
                for n in scenario.fig5_n_img[p.name]
                for el in scenario.elevation_sweep_deg for m in METHODS}
    keys = [(r["platform"], int(r["n_img"]), r["elevation_deg"], r["method"])
            for r in rows]
    if len(keys) != len(expected) or set(keys) != expected:
        problems.append(f"fig5.csv has {len(keys)} rows, expected "
                        f"{len(expected)} distinct (platform, n_img, "
                        "elevation, method) rows")
    cells = {}
    for r in rows:
        name, n_img, el = r["platform"], int(r["n_img"]), float(r["elevation_deg"])
        label = f"fig5 {name} n_img={n_img} elevation={el:g}"
        model = models[name]
        ul = chan.uplink_s(el)
        t = chan.t_proc_s(el)
        if not _close(float(r["e_t_ul_s"]), ul, CSV_REL_TOL, 1e-15):
            problems.append(f"{label}: e_t_ul_s {r['e_t_ul_s']} differs from "
                            f"the oracle {ul:.15g}")
        if not _close(float(r["t_proc_s"]), t, CSV_REL_TOL, 1e-15):
            problems.append(f"{label}: t_proc_s {r['t_proc_s']} differs from "
                            f"deadline minus legs {t:.15g}")
        ok = r["feasible"] == "1"
        method = r["method"]
        if ok and not t > 0.0:
            problems.append(f"{label}: {method} feasible with no time left "
                            "for processing")
        elif ok:
            f_hz = float(r["frequency_hz"])
            unit = rounding_unit(f_hz)
            problems += two_sided(model, method, f_hz, t, n_img, rho, label, unit)
            e, tol = _energy_tolerance(model, f_hz, n_img, unit)
            if abs(float(r["energy_j"]) - e) > tol:
                problems.append(f"{label}: {method} energy {r['energy_j']} J "
                                f"differs from the oracle {e:.15g} J")
        else:
            if r["frequency_hz"] or r["energy_j"]:
                problems.append(f"{label}: infeasible row carries values")
            if t > 0.0:
                problems += confirm_infeasible(model, method, t, n_img, rho,
                                               label)
        cell = cells.setdefault((name, n_img, el), ({}, {}))
        cell[0][method] = float(r["frequency_hz"]) if ok else None
        cell[1][method] = ok
    for (name, n_img, el), (freqs, feasible) in cells.items():
        if set(feasible) == set(METHODS):
            problems += _order(f"fig5 {name} n_img={n_img} elevation={el:g}",
                               freqs, feasible)
    return problems


def check_fig3(chan, models, scenario, results, replicates_csv, summary_csv,
               reruns):
    """Subset study: every replicate's p_miss, the CSVs, and reruns.

    ``reruns`` holds (platform name, n_s, k, replicate) for replicates run
    again with their own stream and ``keep_model=True``; each must return
    the same f_hat, and a feasible one's fitted model must pass the
    two-sided test on its own terms.
    """
    rho = scenario.rho_th
    t = chan.t_proc_s(scenario.elevation_deg)
    problems = []
    expected_rows, expected_summary = [], []
    for platform in scenario.platforms:
        name = platform.name
        model = models[name]
        n_img = scenario.fig3_n_img[name]
        studies = results.get(name, [])
        if [s.sample_size for s in studies] != list(scenario.fig3_sample_sizes):
            problems.append(f"fig3 {name}: sample sizes "
                            f"{[s.sample_size for s in studies]}")
        for study in studies:
            if len(study.replicates) != scenario.fig3_k_replicates:
                problems.append(f"fig3 {name} n_s={study.sample_size}: "
                                f"{len(study.replicates)} replicates")
            p_oracle = []
            for k, rep in enumerate(study.replicates):
                label = f"fig3 {name} n_s={study.sample_size} k={k}"
                p = 1.0 - model.reliability(rep.f_hat_hz, t, n_img)
                p_oracle.append(p)
                if abs(rep.p_miss - p) > P_TOL:
                    problems.append(f"{label}: p_miss {rep.p_miss:.15g} "
                                    f"differs from the oracle {p:.15g}")
                if rep.infeasible and rep.f_hat_hz != platform.f_max_hz:
                    problems.append(f"{label}: infeasible replicate at "
                                    f"{rep.f_hat_hz:.10g} Hz, not f_max")
                if not model.f_min_hz <= rep.f_hat_hz <= model.f_max_hz:
                    problems.append(f"{label}: f_hat outside [f_min, f_max]")
                expected_rows.append([name, str(study.sample_size), str(k),
                                      _fmt(rep.f_hat_hz), _fmt(rep.p_miss),
                                      _fmt(bool(rep.infeasible))])
            p_oracle = np.array(p_oracle)
            expected_summary.append((name, study.sample_size, [
                p_oracle.mean(), np.percentile(p_oracle, 5.0),
                np.percentile(p_oracle, 95.0), p_oracle.min(), p_oracle.max()]))
    header, rows = _rows(replicates_csv)
    if (header != ["platform", "n_s", "k", "f_hat_hz", "p_miss",
                   "infeasible_flag"]
            or [[r[h] for h in header] for r in rows] != expected_rows):
        problems.append("fig3_replicates.csv does not hold the returned "
                        "replicates in canonical order")
    header, rows = _rows(summary_csv)
    stats = ["mean_p_miss", "p05_p_miss", "p95_p_miss", "min_p_miss",
             "max_p_miss"]
    if header != ["platform", "n_s"] + stats or len(rows) != len(expected_summary):
        problems.append("fig3_summary.csv has the wrong shape")
    else:
        for r, (name, n_s, values) in zip(rows, expected_summary):
            if (r["platform"], int(r["n_s"])) != (name, n_s):
                problems.append(f"fig3_summary.csv row {name} {n_s} out of order")
                continue
            for stat, v in zip(stats, values):
                if not _close(float(r[stat]), float(v), CSV_REL_TOL, P_TOL):
                    problems.append(f"fig3_summary.csv {name} n_s={n_s} {stat}"
                                    f" {r[stat]} differs from the oracle {v:.12g}")
    by_key = {}
    for platform in scenario.platforms:
        for study in results.get(platform.name, []):
            for k, rep in enumerate(study.replicates):
                by_key[(platform.name, study.sample_size, k)] = rep
    for name, n_s, k, rerun in reruns:
        label = f"fig3 rerun {name} n_s={n_s} k={k}"
        rep = by_key.get((name, n_s, k))
        if rep is None or rerun.f_hat_hz != rep.f_hat_hz:
            problems.append(f"{label}: rerun f_hat {rerun.f_hat_hz!r} differs "
                            f"from the study's")
            continue
        fitted = rerun.fitted
        n_img = scenario.fig3_n_img[name]
        if not rerun.infeasible:
            problems += two_sided(fitted, "gamma", rerun.f_hat_hz, t, n_img,
                                  rho, label + " (fitted model)")
        elif fitted is not None:
            problems += confirm_infeasible(fitted, "gamma", t, n_img, rho,
                                           label + " (fitted model)")
    return problems
