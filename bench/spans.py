"""Spans around calls into each layer of s1mk, installed from benchmark code.

``Tracer.install`` replaces module attributes of s1mk with wrappers that
record a span (name, start, end, parent) per call; ``uninstall`` puts the
originals back, so untraced rounds run the package unmodified.  Spans stay in
memory until ``dump``.  A span's self time is its duration minus the time its
direct child spans cover.
"""

from __future__ import annotations

import functools
import json
import math
import os
import sys
import time
from collections import Counter, defaultdict

# (module, attribute, span name).  ``s1mk.john`` is the john() function, which
# shadows the module of the same name, so the module comes from sys.modules.
TARGETS = (
    ("s1mk.solver", "solve", "solver.solve"),
    ("s1mk.solver", "diff", "grid.diff"),
    ("s1mk.solver", "lu_factor", "solver.lu"),
    ("s1mk.solver", "lu_solve", "solver.lu"),
    ("s1mk.body", "trig_eval", "grid.trig_eval"),
    ("s1mk.measures", "radial", "body.radial"),
    ("s1mk.measures", "dual_volume", "measures.dual_volume"),
    ("s1mk.measures", "lp_dual_density", "measures.density"),
    ("s1mk.john", "ConvexHull", "john.hull"),
    ("s1mk.john", "boundary_xy", "body.boundary_xy"),
    ("s1mk.john", "lp_dual_density", "measures.density"),
    ("s1mk.harness", "run_diameter", "harness.sweep"),
    ("s1mk.harness", "run_sandwich", "harness.sweep"),
    ("s1mk.harness", "run_variational", "measures.variational"),
    ("s1mk.harness", "gen_f", "harness.gen"),
    ("s1mk.harness", "random_convex_body", "harness.gen"),
    ("s1mk.harness", "write_csv", "harness.write"),
    ("s1mk.harness", "write_json", "harness.write"),
    ("s1mk.harness", "solve", "solver.solve"),
    ("s1mk.harness", "john", "john.fit"),
    ("s1mk.harness", "containment_report", "john.certificate"),
    ("s1mk.harness", "lp_dual_density", "measures.density"),
)

SOLVER_FAILURE_CLASSES = ("StagnationError", "SingularJacobianError")


class Tracer:
    def __init__(self):
        self.spans = []          # [name, start, end, parent index or -1]
        self.counts = Counter()  # counters read from arguments and results
        self.failures = Counter()
        self._stack = []
        self._saved = []

    # -- recording ---------------------------------------------------------

    def _wrap(self, name, fn):
        spans, stack = self.spans, self._stack
        observe = {
            "solver.solve": self._observe_solve,
            "harness.sweep": self._observe_sweep,
            "harness.write": self._observe_write,
        }.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append([name, time.perf_counter(), 0.0, stack[-1] if stack else -1])
            stack.append(idx)
            try:
                out = fn(*args, **kwargs)
            except Exception as exc:
                if name == "solver.solve":
                    self.failures[type(exc).__name__] += 1
                    self._count_newton(getattr(exc, "trace", ()))
                raise
            finally:
                stack.pop()
                spans[idx][2] = time.perf_counter()
            if observe is not None:
                observe(out, args)
            return out

        return wrapper

    def _count_newton(self, trace):
        # trace entries are (t, iteration, residual, damping); a damping of
        # 2^-k means k halvings, so k + 1 line-search trials for that step
        self.counts["newton_iters"] += len(trace)
        self.counts["ls_trials"] += sum(1 + round(math.log2(1.0 / entry[3]))
                                        for entry in trace)

    def _observe_solve(self, report, args):
        self._count_newton(report.trace)

    def _observe_sweep(self, out, args):
        self.counts["samples"] += args[0].n_samples

    def _observe_write(self, out, args):
        self.counts["write_bytes"] += os.path.getsize(args[0])

    def install(self):
        for module_name, attr, name in TARGETS:
            module = sys.modules[module_name]
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(name, original))

    def uninstall(self):
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    # -- reporting ---------------------------------------------------------

    def layer_totals(self):
        """Per span name: calls, total seconds and self seconds."""
        child_time = defaultdict(float)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out = defaultdict(lambda: {"calls": 0, "total": 0.0, "self": 0.0})
        for i, (name, start, end, parent) in enumerate(self.spans):
            agg = out[name]
            agg["calls"] += 1
            agg["total"] += end - start
            agg["self"] += end - start - child_time[i]
        return out

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent"], "spans": self.spans}, fh)


def layer_metrics(tracer: Tracer) -> dict:
    """The benchmark's per-layer metrics, as {name: (value, unit)}."""
    agg = tracer.layer_totals()

    def calls(name):
        return agg[name]["calls"] if name in agg else 0

    def ms(name, kind="total"):
        return 1e3 * agg[name][kind] if name in agg else 0.0

    c = tracer.counts
    other = sum(v for k, v in tracer.failures.items() if k not in SOLVER_FAILURE_CLASSES)
    metrics = {
        "solver.newton_iters": (c["newton_iters"], "count"),
        "solver.ls_trials": (c["ls_trials"], "count"),
        "solver.lu_calls": (calls("solver.lu"), "count"),
        "solver.lu_ms": (ms("solver.lu"), "ms"),
        "solver.self_ms": (ms("solver.solve", "self"), "ms"),
    }
    for cls in SOLVER_FAILURE_CLASSES:
        metrics[f"solver.fail.{cls}"] = (tracer.failures[cls], "count")
    metrics["solver.fail.other"] = (other, "count")
    metrics.update({
        "grid.diff_calls": (calls("grid.diff"), "count"),
        "grid.diff_ms": (ms("grid.diff"), "ms"),
        "grid.trig_eval_calls": (calls("grid.trig_eval"), "count"),
        "grid.trig_eval_ms": (ms("grid.trig_eval"), "ms"),
        "body.radial_calls": (calls("body.radial"), "count"),
        "body.radial_ms": (ms("body.radial"), "ms"),
        "body.boundary_xy_ms": (ms("body.boundary_xy"), "ms"),
        "measures.dual_volume_calls": (calls("measures.dual_volume"), "count"),
        "measures.dual_volume_ms": (ms("measures.dual_volume"), "ms"),
        "measures.variational_ms": (ms("measures.variational"), "ms"),
        "measures.density_ms": (ms("measures.density"), "ms"),
        "john.fit_calls": (calls("john.fit"), "count"),
        "john.fit_ms": (ms("john.fit"), "ms"),
        "john.fit_self_ms": (ms("john.fit", "self"), "ms"),
        "john.hull_calls": (calls("john.hull"), "count"),
        "john.hull_ms": (ms("john.hull"), "ms"),
        "john.certificate_ms": (ms("john.certificate"), "ms"),
        "harness.samples": (c["samples"], "count"),
        "harness.sweep_self_ms": (ms("harness.sweep", "self"), "ms"),
        "harness.gen_ms": (ms("harness.gen"), "ms"),
        "harness.write_ms": (ms("harness.write"), "ms"),
        "harness.write_bytes": (c["write_bytes"], "bytes"),
        "trace.spans": (len(tracer.spans), "count"),
    })
    return metrics
