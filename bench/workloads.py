"""The four benchmark workloads: their inputs, warm-up, rounds and checks.

A workload is built from the imported ``s1mk`` package, the run's seed and a
scratch directory.  It exposes

  kernel      name of the reference kernel that resembles its dominant layer
  cycle       rounds after which its inputs repeat (the traced run does one cycle)
  warm_up()   every distinct operation once, so caches are full before timing
  ops(r)      the operations of round r, each an ``Op``
  probe()     optional: a known-defect case run once after the measured rounds,
              outside the timing and the attempted/failed counts

Every call into s1mk goes through a module attribute looked up at call time
(``S.solver.solve``, ``S.harness.run_diameter``, ...), so the wrappers that
``spans.py`` installs on those attributes see it.  The package receives only
inputs generated here from the seed.
"""

from __future__ import annotations

import csv
import io
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np


class VerificationError(Exception):
    """An operation returned, but its output failed the benchmark's check."""


@dataclass
class Op:
    name: str
    call: Callable[[], Any]
    check: Callable[[Any], None]


def _require(ok, message):
    if not ok:
        raise VerificationError(message)


def _csv_rows(data: bytes):
    return list(csv.DictReader(io.StringIO(data.decode("utf-8"))))


class SolveLarge:
    """Direct solves at n = 512, 768 and 1024, fresh seeded data every round.

    Timed, every round: n = 512 with each data kind once and each (p, q)
    once, n = 768 trig data at (0.5, 3) and n = 1024 bump data at (0.5, 3).
    None of these cases failed in about 200 seeded draws each.  Bump data
    at (0.5, 2) and n = 1024 and piecewise data at (0.5, 2) and n = 768
    stagnate on a few draws (about 1 in 12 and 1 in 36), so they are not
    timed: a run's failure count would then depend on the seed and on how
    many rounds fit in the run.

    The n = 1024 defect is measured by ``probe``: trig data at (0.5, 2) and
    n = 1024, which raised StagnationError on 11 of the first 12 seeds,
    solved once per run after the timed rounds, outside the timing and
    outside attempted/failed.  Its outcome is printed, and the traced run
    counts it in ``solver.fail.StagnationError``.
    """

    kernel = "dense-lu"
    cycle = 1
    CASES = (
        (512, "trig", 0.5, 3.0), (512, "bump", 3.0, 2.0), (512, "piecewise", 0.5, 2.0),
        (768, "trig", 0.5, 3.0), (1024, "bump", 0.5, 3.0),
    )
    PROBE_CASE = (1024, "trig", 0.5, 2.0)
    LAM = 2.0

    def __init__(self, S, seed, out_dir):
        self.S, self.seed = S, seed

    def _params(self, r, i, case):
        S = self.S
        n, kind, p, q = case
        f = S.harness.gen_f(kind, self.LAM, np.random.SeedSequence([self.seed, r, i]),
                            S.Grid(n))
        return S.ProblemParams(p, q, f, lam=self.LAM)

    def _op(self, r, i, case):
        S = self.S
        n, kind, p, q = case
        params = self._params(r, i, case)

        def check(rep):
            _require(rep.converged, "solve returned converged=False")
            _require(rep.residual_sup <= 1e-10, f"residual {rep.residual_sup:.3e}")
            total = S.measures.lp_dual_density(rep.body, p, q).total
            target = S.integrate(params.f)
            _require(abs(total - target) <= 1e-8 * target,
                     f"total measure {total!r} != integral of f {target!r}")

        return Op(f"solve n={n} {kind} p={p:g} q={q:g}", lambda: S.solver.solve(params), check)

    def warm_up(self):
        ops = self.ops(0)
        for op in (ops[0], ops[-1]):
            op.call()

    def ops(self, r):
        return [self._op(r, i, case) for i, case in enumerate(self.CASES)]

    def probe(self):
        """Solve the known-defect case once; returns a one-line outcome."""
        n, kind, p, q = self.PROBE_CASE
        params = self._params(0, len(self.CASES), self.PROBE_CASE)
        t0 = time.perf_counter()
        try:
            rep = self.S.solver.solve(params)
            outcome = (f"converged={rep.converged} residual {rep.residual_sup:.3e}"
                       f" after {rep.iterations} Newton steps")
        except self.S.StagnationError as exc:
            outcome = f"StagnationError after {len(exc.trace)} Newton steps"
        return (f"solve n={n} {kind} p={p:g} q={q:g}: {outcome},"
                f" {time.perf_counter() - t0:.2f} s")


class _Sweep:
    """Sweep rounds cycle through three sweep seeds, so every seed recurs and a
    repeated seed must reproduce its CSV byte for byte."""

    cycle = 3

    def __init__(self, S, seed, out_dir):
        self.S = S
        self.out_dir = Path(out_dir)
        self.seeds = [int(s) for s in np.random.SeedSequence(seed).generate_state(self.cycle)]
        self.first_csv = {}

    def _config(self, tag, **kw):
        return self.S.ExperimentConfig(out_dir=str(self.out_dir / tag), **kw)

    def _reproducible(self, key, data):
        first = self.first_csv.setdefault(key, data)
        _require(first == data, f"CSV for {key} differs from its first run")


class DiameterSweep(_Sweep):
    """Criterion 7's configuration: p = 0.5, q in {2, 3}, lambda = 2, n = 256."""

    kernel = "small-solve"
    N_SAMPLES = 5

    def _op(self, seed, q, n_samples=N_SAMPLES):
        cfg = self._config(f"diameter-q{q:g}", kind="diameter", p=0.5, q=q, lam=2.0,
                           n_samples=n_samples, seed=seed, n_points=256, f_kind="trig")

        def check(out):
            data = Path(out["csv"]).read_bytes()
            rows = _csv_rows(data)
            base = out["summary"]["baseline_max_h"]
            _require(len(rows) == n_samples, f"{len(rows)} rows for {n_samples} samples")
            for row in rows:
                _require(row["converged"] == "true", f"row {row['id']} not converged")
                _require(float(row["residual_sup"]) <= 1e-10,
                         f"row {row['id']} residual {row['residual_sup']}")
                _require(float(row["max_h"]) < 10.0 * base,
                         f"row {row['id']} max_h {row['max_h']} beyond 10 x {base}")
                _require(float(row["eccentricity"]) >= 1.0, f"row {row['id']} eccentricity")
            self._reproducible((seed, q), data)

        return Op(f"run_diameter q={q:g}", lambda: self.S.harness.run_diameter(cfg), check)

    def warm_up(self):
        for q in (2.0, 3.0):
            self._op(self.seeds[0], q, n_samples=1).call()

    def ops(self, r):
        seed = self.seeds[r % self.cycle]
        return [self._op(seed, 2.0), self._op(seed, 3.0)]


class SandwichSweep(_Sweep):
    """run_sandwich at p = 0.5, q = 2, n = 256.  Its n = 8192 ellipse battery is
    memoized per process; the warm-up fills that cache, so the battery's John
    fits land in setup_s and every timed round sees the same warm cache."""

    kernel = "barrier"
    N_SAMPLES = 10

    def _op(self, seed, n_samples=N_SAMPLES):
        cfg = self._config("sandwich", kind="sandwich", p=0.5, q=2.0,
                           n_samples=n_samples, seed=seed, n_points=256)

        def check(out):
            data = Path(out["csv"]).read_bytes()
            rows = _csv_rows(data)
            _require(len(rows) == n_samples + 6, f"{len(rows)} rows")
            _require(out["summary"]["upper_violations"] == 0, "upper bound violated")
            for row in rows:
                for flag in ("converged", "upper_ok", "lower_ok"):
                    _require(row[flag] == "true", f"row {row['id']} {flag} false")
                _require(float(row["ratio"]) <= float(row["c2"]), f"row {row['id']} ratio > c2")
                # containment factor <= 2 is the inside_2E certificate of the row
                _require(float(row["containment_centroid"]) <= 2.0,
                         f"row {row['id']} not inside 2E")
            self._reproducible(seed, data)

        return Op("run_sandwich", lambda: self.S.harness.run_sandwich(cfg), check)

    def warm_up(self):
        self._op(self.seeds[0], n_samples=1).call()

    def ops(self, r):
        return [self._op(self.seeds[r % self.cycle])]


class Measures:
    """run_variational at n = 256, then dual volumes (q = -1, 2, 3) and
    lp_dual densities at n = 512 on one of criterion 8's five bodies: the unit
    disk, the 2:1 ellipse and its three translated random bodies.  Round r
    uses body (seed + r) mod 5; the bodies themselves do not depend on the
    seed, because the dual_volume(q = 2) == area check holds to 1e-8 on
    these bodies but not on random bodies from most other seeds (the radial
    quadrature misses area by up to 3e-7 at n = 512)."""

    kernel = "trig-eval"
    cycle = 5

    def __init__(self, S, seed, out_dir):
        self.S, self.seed = S, seed
        grid = S.Grid(512)
        self.bodies = [S.disk(grid), S.ellipse_body(grid, 2.0, 1.0)]
        self.bodies += [S.translate(S.harness.random_convex_body(np.random.default_rng(s), grid),
                                    (0.05, -0.03)) for s in (1, 2, 3)]

    def _variational(self):
        def check(report):
            _require(report["ok"] and report["max_rel_error"] <= 1e-5,
                     f"variational max rel error {report['max_rel_error']:.3e}")

        return Op("run_variational", lambda: self.S.harness.run_variational(256), check)

    def _dual_volume(self, body, q, seen):
        S = self.S

        def check(vol):
            _require(np.isfinite(vol) and vol > 0.0, f"dual volume {vol!r}")
            if q == 2.0:
                a = S.area(body)
                _require(abs(vol - a) <= 1e-8 * a, f"dual volume {vol!r} != area {a!r}")
            seen[q] = vol
            if len(seen) == 3:
                # (V_q / pi)^(1/q) is a power mean of rho, nondecreasing in q
                m = [(seen[k] / np.pi) ** (1.0 / k) for k in (-1.0, 2.0, 3.0)]
                _require(m[0] <= m[1] * (1 + 1e-12) and m[1] <= m[2] * (1 + 1e-12),
                         f"power means not monotone: {m}")

        return Op(f"dual_volume q={q:g}", lambda: S.measures.dual_volume(body, q), check)

    def _density(self, body, p):
        S = self.S

        def check(dens):
            ref = S.lp_surface_density(body, p)
            _require(np.array_equal(dens.density.values, ref.density.values)
                     and dens.total == ref.total,
                     "lp_dual density at q = 2 differs from the lp surface density")

        return Op(f"lp_dual_density p={p:g}",
                  lambda: S.measures.lp_dual_density(body, p, 2.0), check)

    def warm_up(self):
        body = self.bodies[0]
        self._variational().call()
        self._dual_volume(body, 2.0, {}).call()
        self._density(body, 0.5).call()

    def ops(self, r):
        body = self.bodies[(self.seed + r) % self.cycle]
        seen = {}
        return ([self._variational()]
                + [self._dual_volume(body, q, seen) for q in (-1.0, 2.0, 3.0)]
                + [self._density(body, p) for p in (0.0, 0.5, 1.0)])


WORKLOADS = {
    "solve-large": SolveLarge,
    "diameter-sweep": DiameterSweep,
    "sandwich-sweep": SandwichSweep,
    "measures": Measures,
}
