"""Spans around the public functions of each satsched layer.

The traced run replaces chosen functions in every loaded ``satsched``
module (and the ``GroundTruth.shape_at`` method) with wrappers that record
a span: name, parent span, operation id, start and end. Per (name, parent
name) pair the tracer keeps calls, lanes (array length where the function
takes an array), total time and self time, where self time is the span's
duration minus the time its child spans cover. The untraced run installs
nothing, so it calls the package exactly as a user would.
"""

import functools
import json
import sys
import time

import numpy as np

# the trace file keeps the first spans of a run; the aggregates cover all
SPAN_FILE_CAP = 5_000


class Tracer:
    def __init__(self):
        self._stack = []        # open spans: [name, span_id, child_seconds]
        self.stats = {}         # (name, parent name) -> [calls, lanes, total_s, self_s]
        self.spans = []         # (span_id, parent_id, op, name, t0, t1)
        self.dropped_spans = 0
        self.op = -1
        self._next_id = 0
        self._installed = []

    # -- recording -------------------------------------------------------

    def span(self, name, fn, args=(), kwargs=None, lanes=1):
        parent = self._stack[-1] if self._stack else None
        span_id = self._next_id
        self._next_id += 1
        frame = [name, span_id, 0.0]
        self._stack.append(frame)
        t0 = time.perf_counter()
        try:
            return fn(*args, **(kwargs or {}))
        finally:
            t1 = time.perf_counter()
            self._stack.pop()
            dur = t1 - t0
            if parent is not None:
                parent[2] += dur
            key = (name, parent[0] if parent is not None else None)
            st = self.stats.get(key)
            if st is None:
                st = self.stats[key] = [0, 0, 0.0, 0.0]
            st[0] += 1
            st[1] += lanes
            st[2] += dur
            st[3] += dur - frame[2]
            if len(self.spans) < SPAN_FILE_CAP:
                self.spans.append((span_id, parent[1] if parent else None,
                                   self.op, name, t0, t1))
            else:
                self.dropped_spans += 1

    def operation(self, name, fn, *args, **kwargs):
        """Run one benchmark operation as a root span with a fresh op id."""
        self.op += 1
        return self.span(name, fn, args, kwargs)

    # -- queries -----------------------------------------------------------

    def total(self, name, field, parent=None):
        """Sum one stat field (0 calls, 1 lanes, 2 total_s, 3 self_s)."""
        return sum(st[field] for (n, p), st in self.stats.items()
                   if n == name and (parent is None or p == parent))

    def self_time(self, prefix):
        return sum(st[3] for (n, _), st in self.stats.items()
                   if n.startswith(prefix))

    def write(self, path, extra):
        doc = dict(extra)
        doc["aggregates"] = [
            {"name": n, "parent": p, "calls": st[0], "lanes": st[1],
             "total_s": st[2], "self_s": st[3]}
            for (n, p), st in sorted(self.stats.items(), key=lambda kv: (kv[0][0], str(kv[0][1])))]
        doc["spans"] = [{"id": s[0], "parent": s[1], "op": s[2], "name": s[3],
                         "start_s": s[4], "end_s": s[5]} for s in self.spans]
        doc["dropped_spans"] = self.dropped_spans
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
            fh.write("\n")

    # -- instrumentation ---------------------------------------------------

    def _wrap(self, name, fn, lanes):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return tracer.span(name, fn, args, kwargs,
                               lanes(*args, **kwargs) if lanes else 1)
        return traced

    def patch_function(self, module, attr, name, lanes=None):
        """Replace ``module.attr`` everywhere a satsched module holds it."""
        original = getattr(module, attr)
        traced = self._wrap(name, original, lanes)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "satsched"
                                   or mod_name.startswith("satsched.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, traced)
                    self._installed.append((mod, key, original))

    def patch_method(self, cls, attr, name, lanes=None):
        original = cls.__dict__[attr]
        setattr(cls, attr, self._wrap(name, original, lanes))
        self._installed.append((cls, attr, original))

    def uninstall(self):
        for owner, key, original in reversed(self._installed):
            setattr(owner, key, original)
        self._installed.clear()


def _size(*arrays):
    return max(int(np.size(a)) for a in arrays)


def install(tracer, ss):
    """Wrap the public functions of each layer of the imported package."""
    kernels, numerics, harness = ss.kernels, ss.numerics, ss.harness
    scheduler, estimation = ss.scheduler, ss.estimation
    for attr in ("reg_lower_gamma_arr", "reg_lower_gamma"):
        tracer.patch_function(kernels, attr, "kernels.cdf",
                              lambda a, x: _size(a))
    for attr in ("solve_gamma_shape_arr", "solve_gamma_shape"):
        tracer.patch_function(kernels, attr, "kernels.shape_solve",
                              lambda s: _size(s))
    tracer.patch_function(numerics, "gamma_cdf", "numerics.gamma_cdf",
                          lambda t, shape, scale: _size(t, shape, scale))
    tracer.patch_function(numerics, "fit_gamma_mle", "numerics.fit_gamma_mle")
    tracer.patch_function(numerics, "polyfit", "numerics.polyfit")
    tracer.patch_method(harness.GroundTruth, "shape_at", "harness.shape_at",
                        lambda self, f: _size(f))
    tracer.patch_method(harness.GroundTruth, "sample_image_times",
                        "harness.sample_image_times")
    # budget_from_legs and ground_truth_for have no metric of their own;
    # their spans keep their time out of the runners' self time
    for attr in ("comm_legs", "budget_from_legs", "ground_truth_for"):
        tracer.patch_function(harness, attr, "harness." + attr)
    for attr in ("run_fig3", "run_fig4", "run_fig5"):
        tracer.patch_function(harness, attr, "harness.figure")
    for attr in ("select_and_price", "solve_optimal_frequency",
                 "solve_cantelli_frequency"):
        tracer.patch_function(scheduler, attr, "scheduler." + attr)
    # every score evaluation of the boundary search goes through the
    # callback it receives; count those calls
    search = scheduler._boundary_search

    @functools.wraps(search)
    def counted_search(achieved_vec, *args, **kwargs):
        def score(f_arr):
            return tracer.span("scheduler.score", achieved_vec, (f_arr,),
                               lanes=_size(f_arr))
        return search(score, *args, **kwargs)
    scheduler._boundary_search = counted_search
    tracer._installed.append((scheduler, "_boundary_search", search))
    for attr in ("sample_size_study", "run_subset_replicate",
                 "fit_frequency_model", "miss_probability"):
        tracer.patch_function(estimation, attr, "estimation." + attr)


def per_layer(tracer, ops, extra_counts, time_factor):
    """The per-layer metrics, per operation unless the name says otherwise.

    ``extra_counts`` carries the values measured outside spans:
    ``csv_bytes`` and ``infeasible_replicates`` (totals over the run).
    Times are multiplied by ``time_factor`` (reference units).
    """
    t = tracer.total
    solves = (t("scheduler.solve_optimal_frequency", 0)
              + t("scheduler.solve_cantelli_frequency", 0))
    values = {
        "kernels.cdf_calls": (t("kernels.cdf", 0), "count"),
        "kernels.cdf_lanes": (t("kernels.cdf", 1), "count"),
        "kernels.cdf_s": (t("kernels.cdf", 2), "s"),
        "kernels.shape_solve_calls": (t("kernels.shape_solve", 0, "harness.shape_at"), "count"),
        "kernels.shape_solve_lanes": (t("kernels.shape_solve", 1, "harness.shape_at"), "count"),
        "kernels.shape_solve_s": (t("kernels.shape_solve", 2, "harness.shape_at"), "s"),
        "harness.shape_at_calls": (t("harness.shape_at", 0), "count"),
        "harness.shape_at_lanes": (t("harness.shape_at", 1), "count"),
        "harness.shape_at_s": (t("harness.shape_at", 2), "s"),
        "numerics.gamma_cdf_calls": (t("numerics.gamma_cdf", 0), "count"),
        "numerics.gamma_cdf_self_s": (t("numerics.gamma_cdf", 3), "s"),
        "scheduler.gamma_solve_s": (t("scheduler.solve_optimal_frequency", 2), "s"),
        "scheduler.cantelli_solve_s": (t("scheduler.solve_cantelli_frequency", 2), "s"),
        "scheduler.self_s": (tracer.self_time("scheduler."), "s"),
        "harness.comm_legs_calls": (t("harness.comm_legs", 0), "count"),
        "harness.comm_legs_s": (t("harness.comm_legs", 2), "s"),
        "harness.figure_self_s": (t("harness.figure", 3), "s"),
        "harness.csv_bytes": (extra_counts["csv_bytes"], "bytes"),
        "harness.sample_draw_s": (t("harness.sample_image_times", 2), "s"),
        "estimation.replicate_s": (t("estimation.run_subset_replicate", 2), "s"),
        "estimation.fit_model_s": (t("estimation.fit_frequency_model", 2), "s"),
        "estimation.miss_probability_s": (t("estimation.miss_probability", 2), "s"),
        "estimation.infeasible_replicates": (extra_counts["infeasible_replicates"], "count"),
        "numerics.fit_gamma_mle_calls": (t("numerics.fit_gamma_mle", 0), "count"),
        "numerics.fit_gamma_mle_s": (t("numerics.fit_gamma_mle", 2), "s"),
        "numerics.polyfit_s": (t("numerics.polyfit", 2), "s"),
    }
    out = {name: {"value": value / ops * (time_factor if unit == "s" else 1.0),
                  "unit": unit}
           for name, (value, unit) in values.items()}
    out["scheduler.boundary_evals"] = {
        "value": t("scheduler.score", 0) / solves if solves else 0.0,
        "unit": "count"}
    return out
