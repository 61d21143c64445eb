"""End-to-end checks, one test per shipped guarantee.

Each test prints a single pass/fail line through the ``acceptance`` fixture;
the terminal summary re-emits all lines in order. Tolerances here are the
published contract, not the measured floor, so they are looser than the
module tests.
"""

import csv
import time

import numpy as np
import pytest

from s1mk import (
    ExperimentConfig,
    Grid,
    PeriodicSamples,
    ProblemParams,
    area,
    containment_report,
    disk,
    dual_volume,
    eccentric_battery,
    ellipse_body,
    gen_f,
    integrate,
    jacobian,
    john,
    lp_dual_density,
    lp_surface_density,
    radial,
    random_convex_body,
    run_diameter,
    run_maxprinciple,
    run_sandwich,
    run_uniqueness,
    run_variational,
    sandwich_ratio,
    solve,
    translate,
)


def test_criterion_01_round_solution(acceptance, grid256):
    f = PeriodicSamples(np.ones(256), grid256)
    t0 = time.perf_counter()
    rep = solve(ProblemParams(0.5, 2.0, f, lam=1.0))
    elapsed = time.perf_counter() - t0
    err = float(np.max(np.abs(rep.body.values - 1.0)))
    ok = rep.converged and err <= 1e-8 and elapsed < 1.0
    acceptance(1, "constant data returns the unit disk", ok,
               f"sup err {err:.2e}, {elapsed:.3f} s")


def test_criterion_02_linearization_modes(acceptance, grid256, unit_disk):
    worst = 0.0
    for p in (0.0, 0.5, 1.0):
        f = PeriodicSamples(np.ones(256), grid256)
        jac = jacobian(unit_disk, ProblemParams(p, 2.0, f))
        for k in range(9):
            v = np.cos(k * grid256.theta)
            err = float(np.max(np.abs(jac @ v - (2.0 - p - k * k) * v)))
            worst = max(worst, err)
    acceptance(2, "Jacobian acts as v'' + (2-p) v on modes k <= 8",
               worst <= 1e-10, f"max err {worst:.2e}")


def test_criterion_03_variational_suite(acceptance):
    t0 = time.perf_counter()
    report = run_variational()
    elapsed = time.perf_counter() - t0
    ok = report["ok"] and report["max_rel_error"] <= 1e-5 and elapsed < 10.0
    acceptance(3, "first-variation identities on documented pairs", ok,
               f"max rel {report['max_rel_error']:.2e}, {elapsed:.1f} s")


def test_criterion_04_sandwich_battery(acceptance):
    t0 = time.perf_counter()
    grid = Grid(256)
    seeds = np.random.SeedSequence(0).spawn(200)
    pool = [random_convex_body(np.random.default_rng(s), grid) for s in seeds]
    pool += [body for _, body in eccentric_battery()]
    ellipses = [john(body) for body in pool]

    violations = 0
    min_ratio = np.inf
    for body, ell in zip(pool, ellipses):
        for p in (0.0, 0.5, 1.0):
            for q in (2.0, 3.0, 4.0):
                rep = sandwich_ratio(body, p, q, ellipse=ell)
                if not rep.upper_ok:
                    violations += 1
                min_ratio = min(min_ratio, rep.ratio)
    elapsed = time.perf_counter() - t0
    ok = violations == 0 and min_ratio > 0.0 and elapsed < 120.0
    acceptance(4, "sandwich ratio below c2 on 206 bodies x 9 (p, q)", ok,
               f"violations {violations}, min ratio {min_ratio:.3e}, "
               f"{elapsed:.1f} s")


def test_criterion_05_max_principle(acceptance, tmp_path):
    cfg = ExperimentConfig(kind="maxprinciple", p=3.0, q=2.0, lam=2.0,
                           n_samples=20, seed=0, n_points=256,
                           out_dir=str(tmp_path))
    summary = run_maxprinciple(cfg)["summary"]
    ok = (summary["violations"] == 0
          and summary["worst_margin"] >= -1e-6
          and summary["constant_data_equality_gap"] <= 1e-8)
    acceptance(5, "max h bounded by (min f)^(1/(q-p)) for p > q", ok,
               f"worst margin {summary['worst_margin']:.3e}, "
               f"const gap {summary['constant_data_equality_gap']:.2e}")


def test_criterion_06_uniqueness_near_constants(acceptance, tmp_path):
    t0 = time.perf_counter()
    cfg = ExperimentConfig(kind="uniqueness", p=0.5, q=2.0, eps=0.05,
                           starts=20, n_samples=10, seed=0, n_points=256,
                           out_dir=str(tmp_path))
    summary = run_uniqueness(cfg)["summary"]
    elapsed = time.perf_counter() - t0
    blk = summary["results"][0]
    ok = (blk["all_agree"] and blk["max_pairwise_sup"] <= 1e-6
          and blk["min_h"] >= 0.5 and elapsed < 120.0)
    acceptance(6, "multi-start solves agree near constant data", ok,
               f"max pair {blk['max_pairwise_sup']:.2e}, "
               f"min h {blk['min_h']:.3f}, {elapsed:.1f} s")


def test_criterion_07_diameter_envelope(acceptance, tmp_path):
    details = []
    ok = True
    for q in (2.0, 3.0):
        cfg = ExperimentConfig(kind="diameter", p=0.5, q=q, lam=2.0,
                               n_samples=100, seed=0, n_points=256,
                               out_dir=str(tmp_path / f"q{int(q)}"))
        out = run_diameter(cfg)
        with open(out["csv"], newline="") as fh:
            rows = list(csv.DictReader(fh))
        converged = [row["converged"] == "true" for row in rows]
        max_h = [float(row["max_h"]) for row in rows if row["max_h"]]
        baseline = out["summary"]["baseline_max_h"]
        # seeds are spawned per sample, so the first 50 rows are exactly
        # the 50-sample run and the second 50 are the doubling
        first = max(max_h[:50])
        full = max(max_h)
        ok = (ok and all(converged) and full < 10.0 * baseline
              and full - first <= 0.05 * first)
        details.append(f"q={q:g}: max {full:.3f}, growth "
                       f"{(full - first) / first:.1%}")
    acceptance(7, "solution size envelope stable under sample doubling", ok,
               "; ".join(details))


def test_criterion_08_measure_identities(acceptance):
    g512 = Grid(512)
    bodies = [disk(Grid(256), 1.0), ellipse_body(Grid(256), 2.0, 1.0)]
    bodies += [translate(random_convex_body(np.random.default_rng(s), g512),
                         (0.05, -0.03)) for s in (1, 2, 3)]

    # dual_volume sums the dual curvature measure, which at q = 2 is the same
    # sum as area; the radial route (1/2) integral rho^2 is the independent
    # oracle that keeps this check from comparing a formula with itself.
    area_gap = max(
        max(abs(dual_volume(b, 2.0) - area(b)),
            abs(0.5 * integrate(PeriodicSamples(radial(b).values**2, b.grid))
                - area(b))) / area(b)
        for b in bodies)

    bit_ok = True
    for b in bodies:
        for p in (0.0, 0.5, 1.0):
            a = lp_surface_density(b, p)
            c = lp_dual_density(b, p, 2.0)
            bit_ok = bit_ok and np.array_equal(a.density.values,
                                               c.density.values)
            bit_ok = bit_ok and a.total == c.total

    total_gap = 0.0
    for p, q, seed in ((0.5, 2.0, 1), (0.5, 3.0, 2), (0.0, 2.0, 3),
                       (0.75, 4.0, 4)):
        f = gen_f("trig", 2.0, seed, Grid(256))
        rep = solve(ProblemParams(p, q, f, lam=2.0))
        assert rep.converged
        total = lp_dual_density(rep.body, p, q).total
        target = integrate(f)
        total_gap = max(total_gap, abs(total - target) / target)

    ok = area_gap <= 1e-8 and bit_ok and total_gap <= 1e-8
    acceptance(8, "dual volume, density, and total-measure identities", ok,
               f"area gap {area_gap:.2e}, total gap {total_gap:.2e}, "
               f"bitwise {bit_ok}")


def test_criterion_09_john_recovery(acceptance):
    d = disk(Grid(4096), 1.0)
    ell_d = john(d)
    err_d = max(abs(ell_d.r1 - 1.0), abs(ell_d.r2 - 1.0),
                float(np.max(np.abs(ell_d.center))))

    e = ellipse_body(Grid(8192), 2.0, 1.0)
    ell_e = john(e)
    err_e = max(abs(ell_e.r1 - 2.0), abs(ell_e.r2 - 1.0),
                float(np.max(np.abs(ell_e.center))))

    certs_ok = True
    g = Grid(512)
    for seed in range(10):
        body = random_convex_body(np.random.default_rng(seed), g)
        rep = containment_report(body, john(body))
        certs_ok = certs_ok and rep["boundary_outside_E"] and rep["inside_2E"]

    ok = err_d <= 1e-6 and err_e <= 1e-6 and certs_ok
    acceptance(9, "John ellipse self-recovery and containment certificates",
               ok, f"disk err {err_d:.2e}, ellipse err {err_e:.2e}, "
               f"certificates {certs_ok}")


def test_criterion_10_determinism(acceptance, tmp_path):
    pairs = []
    for label, runner, cfg_kw in (
        ("sandwich", run_sandwich, dict(kind="sandwich", p=0.5, q=2.0,
                                        n_samples=10)),
        ("diameter", run_diameter, dict(kind="diameter", p=0.5, q=2.0,
                                        n_samples=5)),
    ):
        outs = []
        for tag in ("a", "b"):
            cfg = ExperimentConfig(seed=0, n_points=256,
                                   out_dir=str(tmp_path / f"{label}_{tag}"),
                                   **cfg_kw)
            outs.append(open(runner(cfg)["csv"], "rb").read())
        pairs.append((label, outs[0] == outs[1], len(outs[0])))
    ok = all(same for _, same, _ in pairs)
    acceptance(10, "repeated sweeps are byte-identical", ok,
               ", ".join(f"{label} {size} B" for label, _, size in pairs))
