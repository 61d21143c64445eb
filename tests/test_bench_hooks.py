"""The benchmark's tracer hooks module attributes of s1mk by name; these tests
load ``bench/spans.py`` unchanged and check that the names and the solve trace
format it relies on still exist."""

import importlib.util
import sys
from pathlib import Path

import numpy as np

import s1mk
from s1mk import Grid, ProblemParams, gen_f

SPANS_PATH = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _small_solve(n=64, kind="trig"):
    grid = Grid(n)
    return s1mk.solver.solve(ProblemParams(0.5, 3.0, gen_f(kind, 2.0, 1, grid), lam=2.0))


def test_every_target_resolves():
    spans = _load_spans()
    for module_name, attr, _ in spans.TARGETS:
        assert module_name in sys.modules, module_name
        assert callable(getattr(sys.modules[module_name], attr, None)), (module_name, attr)


def test_solve_trace_entries_are_read_by_the_tracer():
    rep = _small_solve()
    assert rep.trace
    for entry in rep.trace:
        t, iteration, residual_sup, damping = entry
        assert isinstance(entry, tuple)
        assert 0.0 <= t <= 1.0 and iteration >= 1 and residual_sup >= 0.0
        assert np.log2(1.0 / damping) == round(np.log2(1.0 / damping))


def test_traced_solve_counts_layers():
    spans = _load_spans()
    original = s1mk.solver.solve
    tracer = spans.Tracer()
    tracer.install()
    try:
        rep = _small_solve()
    finally:
        tracer.uninstall()
    metrics = spans.layer_metrics(tracer)
    assert metrics["solver.newton_iters"][0] == len(rep.trace)
    assert metrics["solver.lu_calls"][0] == 2 * len(rep.trace)
    assert metrics["grid.diff_calls"][0] > 0
    assert s1mk.solver.solve is original


def test_sequenced_solve_is_one_span():
    # at n = 512 solve runs two grid levels; the tracer must still see one
    # solve whose trace holds the Newton steps of both
    spans = _load_spans()
    tracer = spans.Tracer()
    tracer.install()
    try:
        rep = _small_solve(512, "bump")
    finally:
        tracer.uninstall()
    assert [n for n, _ in rep.levels] == [128, 512] and rep.levels[1][1] >= 1
    metrics = spans.layer_metrics(tracer)
    assert sum(1 for span in tracer.spans if span[0] == "solver.solve") == 1
    assert metrics["solver.newton_iters"][0] == len(rep.trace)
    # only the coarse level factors its Jacobians; the polish runs GMRES
    assert metrics["solver.lu_calls"][0] == 2 * rep.levels[0][1]
    assert rep.krylov_iterations > 0
