"""Seeded experiment sweeps over the solver and the geometric estimates.

Every sweep draws one RNG stream per sample by spawning the master seed, so
results are reproducible bit for bit, and rows are written in sample order.
CSV data files carry no timestamps (summaries do), which keeps repeated runs
byte-identical.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from datetime import datetime, timezone
from functools import lru_cache
from pathlib import Path

import numpy as np

from .body import (
    SupportFunction,
    centroid,
    diameter,
    disk,
    ellipse_body,
    from_samples,
)
from .errors import (
    EllipseSolveError,
    InvariantViolationError,
    ParameterRangeError,
    SingularJacobianError,
    StagnationError,
)
from .grid import Grid, PeriodicSamples, diff
from .john import containment_report, john, sandwich_c2, sandwich_ratio
from .measures import (
    ProblemParams,
    check_aleksandrov,
    check_dual_variational,
    check_lp_variational,
    lp_dual_density,
)
from .solver import SolverConfig, solve

AGREE_TOL = 1e-6
MAXPRINCIPLE_SLACK = 1e-6
BATTERY_ASPECTS = (2, 5, 10, 20, 50, 100)
BATTERY_GRID_N = 8192


@dataclass
class ExperimentConfig:
    kind: str
    p: float
    q: float
    lam: float = 2.0
    n_samples: int = 50
    seed: int = 0
    n_points: int = 256
    out_dir: str = "results"
    f_kind: str = "trig"
    eps: float = 0.05
    starts: int = 20
    eps_sweep: tuple = ()
    c1_floor: float = 1e-8

    def __post_init__(self):
        if self.n_samples < 1:
            raise ValueError("n_samples must be >= 1")
        if self.lam < 1.0:
            raise ValueError("lambda bound must be >= 1")


# ---------------------------------------------------------------------------
# data and body generators


def gen_f(kind: str, lam: float, seed, grid: Grid) -> PeriodicSamples:
    """Seeded positive data with 1/lam <= f <= lam (sharp unless constant).

    Kinds: "trig" (random low-degree polynomial), "bump" (localized peak over
    a flat background), "piecewise" (random plateaus, Fourier smoothed).  The
    draw does not depend on lam, only the final affine rescaling does.
    """
    if lam < 1.0:
        raise ValueError(f"lambda bound must be >= 1, got {lam}")
    rng = np.random.default_rng(seed)
    t = grid.theta
    if kind == "trig":
        g = np.zeros_like(t)
        for k in range(1, 5):
            a, b = rng.normal(0.0, 1.0 / k**2, size=2)
            g += a * np.cos(k * t) + b * np.sin(k * t)
    elif kind == "bump":
        center = rng.uniform(0.0, 2.0 * np.pi)
        kappa = rng.uniform(2.0, 6.0)
        g = np.exp(kappa * np.cos(t - center))
    elif kind == "piecewise":
        m = 6
        breaks = np.sort(rng.uniform(0.0, 2.0 * np.pi, size=m))
        levels = rng.uniform(0.0, 1.0, size=m)
        idx = np.searchsorted(breaks, t, side="right") % m
        g = levels[idx]
        sigma = 0.15
        coef = np.fft.rfft(g)
        k = np.arange(len(coef))
        g = np.fft.irfft(coef * np.exp(-0.5 * (k * sigma) ** 2), grid.n_points)
    else:
        raise ValueError(f"unknown data kind {kind!r}")

    lo, hi = float(g.min()), float(g.max())
    if hi - lo < 1e-12:
        vals = np.full_like(t, 0.5 * (lam + 1.0 / lam))
    else:
        vals = 1.0 / lam + (g - lo) / (hi - lo) * (lam - 1.0 / lam)
    return PeriodicSamples(vals, grid)


def random_convex_body(rng, grid: Grid, degree: int = 6) -> SupportFunction:
    """Random trig support function, resampled until strictly convex."""
    t = grid.theta
    for _ in range(500):
        h = np.ones_like(t)
        for k in range(1, degree + 1):
            a, b = rng.normal(0.0, 0.4 / k**2, size=2)
            h += a * np.cos(k * t) + b * np.sin(k * t)
        s = PeriodicSamples(h, grid)
        curv = diff(s, 2).values + h
        if float(h.min()) > 0.05 and float(curv.min()) > 0.01:
            return from_samples(h, grid)
    raise RuntimeError("could not draw a convex body in 500 attempts")


def random_initial_body(rng, grid: Grid) -> SupportFunction:
    """Random positive trig polynomial rescaled to keep its curvature positive."""
    t = grid.theta
    const = rng.uniform(0.6, 1.6)
    osc = np.zeros_like(t)
    for k in range(1, 5):
        a, b = rng.normal(0.0, 0.25, size=2)
        osc += a * np.cos(k * t) + b * np.sin(k * t)
    curv_osc = diff(PeriodicSamples(osc, grid), 2).values + osc
    drop = max(float(-curv_osc.min()), float(-osc.min()), 1e-12)
    gamma = min(1.0, 0.7 * const / drop)
    return from_samples(const + gamma * osc, grid)


def eccentric_battery(n_points: int = BATTERY_GRID_N,
                      aspects=BATTERY_ASPECTS) -> list:
    """Deterministic axis-aligned ellipses with aspect ratio up to 100."""
    grid = Grid(n_points)
    return [(f"ellipse-{a}", ellipse_body(grid, 1.0, 1.0 / a)) for a in aspects]


# ---------------------------------------------------------------------------
# serialization helpers


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return "%.17g" % float(value)
    return str(value)


def write_csv(path, header, rows) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\r\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])


def write_json(path, obj) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _timestamp() -> str:
    return datetime.now(timezone.utc).isoformat()


def _spawned(seed: int, count: int):
    return np.random.SeedSequence(seed).spawn(count)


# ---------------------------------------------------------------------------
# sweeps


@lru_cache(maxsize=64)
def _battery_john(aspect: int, n_points: int, centered: bool):
    body = ellipse_body(Grid(n_points), 1.0, 1.0 / aspect)
    if centered:
        return john(body, center=centroid(body))
    return john(body)


def run_sandwich(cfg: ExperimentConfig) -> dict:
    """Ratio battery for the two-sided total-measure estimate."""
    if not (0.0 <= cfg.p <= 1.0):
        raise ParameterRangeError(f"sandwich sweep needs p in [0, 1], got {cfg.p}")
    if cfg.q < 2.0:
        raise ParameterRangeError(f"sandwich sweep needs q >= 2, got {cfg.q}")
    grid = Grid(cfg.n_points)
    seeds = _spawned(cfg.seed, cfg.n_samples)

    def measured(name, kind, body, fit):
        try:
            ell, ell_c = fit()
        except EllipseSolveError:
            return (name, kind, None, None, None, None)
        rep = sandwich_ratio(body, cfg.p, cfg.q, c1_floor=cfg.c1_floor, ellipse=ell)
        factor = containment_report(body, ell_c)["containment_factor"]
        return (name, kind, rep, ell, ell_c, factor)

    def one(i, seed):
        body = random_convex_body(np.random.default_rng(seed), grid)
        return measured(f"s{i:03d}", "random-trig", body,
                        lambda: (john(body), john(body, center=centroid(body))))

    results = [one(i, seed) for i, seed in enumerate(seeds)]
    for name, body in eccentric_battery():
        aspect = int(name.split("-")[1])
        results.append(measured(name, "ellipse", body,
                                lambda: (_battery_john(aspect, BATTERY_GRID_N, False),
                                         _battery_john(aspect, BATTERY_GRID_N, True))))

    header = ["id", "body_kind", "r1", "r2", "eccentricity", "total_measure",
              "ratio", "c2", "upper_ok", "lower_ok", "r1_centroid", "r2_centroid",
              "containment_centroid", "converged"]
    rows = []
    for name, kind, rep, ell, ell_c, factor in results:
        if rep is None:
            rows.append([name, kind] + [None] * 11 + [False])
            continue
        rows.append([name, kind, rep.r1, rep.r2, rep.r1 / rep.r2, rep.total,
                     rep.ratio, rep.c2, rep.upper_ok, rep.lower_ok,
                     ell_c.r1, ell_c.r2, factor, True])

    out = Path(cfg.out_dir)
    csv_path = out / "sandwich.csv"
    write_csv(csv_path, header, rows)
    fitted = [r for r in results if r[2] is not None]
    ratios = [rep.ratio for _, _, rep, _, _, _ in fitted]
    summary = {
        "kind": "sandwich",
        "p": cfg.p,
        "q": cfg.q,
        "seed": cfg.seed,
        "n_samples": cfg.n_samples,
        "n_rows": len(rows),
        "n_converged": len(fitted),
        "c2": sandwich_c2(cfg.p, cfg.q),
        "ratio_min": min(ratios, default=None),
        "ratio_max": max(ratios, default=None),
        "upper_violations": sum(0 if rep.upper_ok else 1
                                for _, _, rep, _, _, _ in fitted),
        "lower_floor_observed": min(ratios, default=None),
        "containment_centroid_max": max((r[5] for r in fitted), default=None),
        "generated_at": _timestamp(),
    }
    json_path = out / "sandwich_summary.json"
    write_json(json_path, summary)
    return {"csv": str(csv_path), "summary": summary, "summary_path": str(json_path)}


def run_diameter(cfg: ExperimentConfig) -> dict:
    """Seeded solves with bounded data; reports the empirical size envelope."""
    if not (0.0 < cfg.p < 1.0):
        raise ParameterRangeError(f"diameter sweep needs p in (0, 1), got {cfg.p}")
    if cfg.q < 2.0:
        raise ParameterRangeError(f"diameter sweep needs q >= 2, got {cfg.q}")
    grid = Grid(cfg.n_points)
    seeds = _spawned(cfg.seed, cfg.n_samples)

    def one(i, seed):
        f = gen_f(cfg.f_kind, cfg.lam, seed, grid)
        params = ProblemParams(cfg.p, cfg.q, f, lam=cfg.lam)
        dev = float(np.max(np.abs(f.values - 1.0)))
        try:
            rep = solve(params)
        except (StagnationError, SingularJacobianError):
            return (f"s{i:03d}", dev, False, None)
        return (f"s{i:03d}", dev, rep.converged, rep)

    results = [one(i, seed) for i, seed in enumerate(seeds)]

    header = ["id", "f_dev_inf", "lam", "converged", "max_h", "diameter",
              "eccentricity", "total_measure", "residual_sup"]
    rows = []
    max_h_all = []
    for name, dev, ok, rep in results:
        ell = None
        if ok:
            try:
                ell = john(rep.body)
            except EllipseSolveError:
                pass
        if ell is None:
            rows.append([name, dev, cfg.lam, False, None, None, None, None, None])
            continue
        body = rep.body
        total = lp_dual_density(body, cfg.p, cfg.q).total
        max_h = float(np.max(body.values))
        max_h_all.append(max_h)
        rows.append([name, dev, cfg.lam, True, max_h, diameter(body),
                     ell.r1 / ell.r2, total, rep.residual_sup])

    baseline = solve(ProblemParams(cfg.p, cfg.q,
                                   PeriodicSamples(np.ones(grid.n_points), grid),
                                   lam=1.0))
    baseline_max = float(np.max(baseline.body.values))

    out = Path(cfg.out_dir)
    csv_path = out / "diameter.csv"
    write_csv(csv_path, header, rows)
    n_conv = sum(1 for row in rows if row[3])
    summary = {
        "kind": "diameter",
        "p": cfg.p,
        "q": cfg.q,
        "lambda": cfg.lam,
        "seed": cfg.seed,
        "n_samples": cfg.n_samples,
        "n_converged": n_conv,
        "empirical_max_h": max(max_h_all) if max_h_all else None,
        "baseline_max_h": baseline_max,
        "generated_at": _timestamp(),
    }
    json_path = out / "diameter_summary.json"
    write_json(json_path, summary)
    return {"csv": str(csv_path), "summary": summary, "summary_path": str(json_path)}


def holder_proxy(deviation: np.ndarray, grid: Grid, alpha: float = 0.5) -> float:
    """Sup norm plus the grid Holder quotient of exponent alpha."""
    sup = float(np.max(np.abs(deviation)))
    t = grid.theta
    d = np.abs(t[:, None] - t[None, :])
    d = np.minimum(d, 2.0 * np.pi - d)
    np.fill_diagonal(d, 1.0)
    quo = np.abs(deviation[:, None] - deviation[None, :]) / d**alpha
    np.fill_diagonal(quo, 0.0)
    return sup + float(np.max(quo))


def _uniqueness_instance(cfg: ExperimentConfig, eps: float, seed, grid: Grid) -> dict:
    g = gen_f(cfg.f_kind, 2.0, seed, grid)
    dev = g.values - float(np.mean(g.values))
    prox = holder_proxy(dev, grid)
    if prox < 1e-12:
        dev = np.cos(grid.theta)
        prox = holder_proxy(dev, grid)
    f = PeriodicSamples(1.0 + dev * (eps / prox), grid)
    params = ProblemParams(cfg.p, cfg.q, f)

    rng = np.random.default_rng(seed)
    scfg = SolverConfig()
    limits = []
    failures = 0
    for _ in range(cfg.starts):
        init = random_initial_body(rng, grid)
        try:
            rep = solve(params, init, scfg)
        except (StagnationError, SingularJacobianError):
            failures += 1
            continue
        if rep.converged:
            limits.append(rep.body.values)
        else:
            failures += 1

    max_pair = 0.0
    for i in range(len(limits)):
        for j in range(i + 1, len(limits)):
            max_pair = max(max_pair, float(np.max(np.abs(limits[i] - limits[j]))))
    min_h = min((float(v.min()) for v in limits), default=float("nan"))
    return {
        "proxy": eps,
        "starts": cfg.starts,
        "converged": len(limits),
        "failures": failures,
        "max_pairwise_sup": max_pair,
        "min_h": min_h,
        "agree": bool(len(limits) == cfg.starts and max_pair <= AGREE_TOL),
    }


def run_uniqueness(cfg: ExperimentConfig) -> dict:
    """Multi-start agreement experiment near constant data (q = 2 regime)."""
    if not (0.0 < cfg.p < 1.0):
        raise ParameterRangeError(f"uniqueness sweep needs p in (0, 1), got {cfg.p}")
    if cfg.q != 2.0:
        raise ParameterRangeError(f"uniqueness sweep needs q = 2, got {cfg.q}")
    grid = Grid(cfg.n_points)
    seeds = _spawned(cfg.seed, cfg.n_samples)

    eps_values = tuple(cfg.eps_sweep) or (cfg.eps,)
    per_eps = []
    for eps in eps_values:
        inst = [_uniqueness_instance(cfg, eps, seed, grid) for seed in seeds]
        per_eps.append({
            "eps": eps,
            "instances": inst,
            "all_agree": bool(all(r["agree"] for r in inst)),
            "max_pairwise_sup": max(r["max_pairwise_sup"] for r in inst),
            "min_h": min(r["min_h"] for r in inst),
        })

    agreeing = [blk["eps"] for blk in per_eps if blk["all_agree"]]
    summary = {
        "kind": "uniqueness",
        "p": cfg.p,
        "q": cfg.q,
        "seed": cfg.seed,
        "n_samples": cfg.n_samples,
        "starts": cfg.starts,
        "eps_values": list(eps_values),
        "results": per_eps,
        "empirical_uniqueness_radius": max(agreeing) if agreeing else None,
        "generated_at": _timestamp(),
    }
    json_path = Path(cfg.out_dir) / "uniqueness_summary.json"
    write_json(json_path, summary)
    return {"summary": summary, "summary_path": str(json_path)}


def run_maxprinciple(cfg: ExperimentConfig) -> dict:
    """Checks max h <= (min f)^(1/(q-p)) on seeded solves (needs p > q)."""
    if cfg.p <= cfg.q:
        raise ParameterRangeError(
            f"max principle sweep needs p > q, got p = {cfg.p}, q = {cfg.q}"
        )
    grid = Grid(cfg.n_points)
    seeds = _spawned(cfg.seed, cfg.n_samples)
    expo = 1.0 / (cfg.q - cfg.p)

    records = []
    for i, seed in enumerate(seeds):
        f = gen_f(cfg.f_kind, cfg.lam, seed, grid)
        params = ProblemParams(cfg.p, cfg.q, f, lam=cfg.lam)
        rep = solve(params)
        bound = float(np.min(f.values)) ** expo
        max_h = float(np.max(rep.body.values))
        records.append({
            "id": f"s{i:03d}",
            "converged": rep.converged,
            "max_h": max_h,
            "bound": bound,
            "margin": bound - max_h,
        })
        if max_h > bound + MAXPRINCIPLE_SLACK:
            dump = Path(cfg.out_dir) / f"maxprinciple_violation_{i:03d}.json"
            write_json(dump, {"f": f.values.tolist(), "record": records[-1]})
            raise InvariantViolationError(
                f"max principle violated on sample {i}: max h = {max_h:.12g}"
                f" > bound {bound:.12g}"
            )

    const = np.full(grid.n_points, cfg.lam)
    rep_const = solve(ProblemParams(cfg.p, cfg.q, PeriodicSamples(const, grid),
                                    lam=cfg.lam))
    gap = abs(float(np.max(rep_const.body.values)) - cfg.lam**expo)

    summary = {
        "kind": "maxprinciple",
        "p": cfg.p,
        "q": cfg.q,
        "lambda": cfg.lam,
        "seed": cfg.seed,
        "n_samples": cfg.n_samples,
        "violations": 0,
        "records": records,
        "worst_margin": min(r["margin"] for r in records),
        "constant_data_equality_gap": gap,
        "generated_at": _timestamp(),
    }
    json_path = Path(cfg.out_dir) / "maxprinciple_summary.json"
    write_json(json_path, summary)
    return {"summary": summary, "summary_path": str(json_path)}


def run_variational(n_points: int = 256, out_dir: str | None = None) -> dict:
    """First-variation identity suite on a fixed set of body pairs."""
    grid = Grid(n_points)
    d1 = disk(grid)
    d2 = disk(grid, radius=2.0)
    d_off = disk(grid, radius=1.0, center=(0.3, 0.0))
    ell = ellipse_body(grid, 2.0, 1.0)

    checks = []

    def record(label, report):
        checks.append({
            "check": label,
            "lhs_slope": report.lhs_slope,
            "rhs_integral": report.rhs_integral,
            "rel_error": report.rel_error,
            "normalization": report.normalization,
        })

    record("aleksandrov disk+disk", check_aleksandrov(d1, d1))
    record("aleksandrov disk+ellipse", check_aleksandrov(d1, ell))
    record("aleksandrov ellipse+offset-disk", check_aleksandrov(ell, d_off))
    record("lp p=1 disk+ellipse", check_lp_variational(d1, ell, 1.0))
    record("lp p=2 disk2+disk", check_lp_variational(d2, d1, 2.0))
    record("lp p=3 ellipse+disk", check_lp_variational(ell, d1, 3.0))
    record("dual q=2 disk+disk", check_dual_variational(d1, d1, 2.0))
    record("dual q=2 offset-disk+disk", check_dual_variational(d_off, d1, 2.0))
    record("dual q=3 disk2+disk", check_dual_variational(d2, d1, 3.0))
    record("dual q=3 ellipse+disk", check_dual_variational(ell, d1, 3.0))

    worst = max(c["rel_error"] for c in checks)
    report = {
        "kind": "variational",
        "n_points": n_points,
        "checks": checks,
        "max_rel_error": worst,
        "ok": bool(worst <= 1e-5),
        "generated_at": _timestamp(),
    }
    if out_dir is not None:
        write_json(Path(out_dir) / "variational.json", report)
    return report
