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
VARIATIONAL_TOL = 1e-5      # largest relative error a first-variation check passes with
BATTERY_ASPECTS = (2, 5, 10, 20, 50, 100)
BATTERY_GRID_N = 8192
# random_convex_body's trig degree, its attempts, and how many it draws at once
BODY_DEGREE = 6
CANDIDATE_ATTEMPTS = 500
CANDIDATE_BLOCK = 16


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
    eps: tuple = (0.05,)        # uniqueness sweep's data deviation levels
    starts: int = 20

    def __post_init__(self):
        if self.n_samples < 1:
            raise ValueError("n_samples must be >= 1")
        if self.starts < 2:
            raise ValueError("starts must be >= 2: fewer starts cannot disagree")
        self.eps = tuple(self.eps)
        if not self.eps:
            raise ValueError("eps needs at least one deviation level")
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


@lru_cache(maxsize=8)
def _body_basis(grid: Grid) -> np.ndarray:
    """random_convex_body's trig basis on ``grid``, read-only, shape (3, 2 d, n).

    Rows cos kt, sin kt for k = 1..d = BODY_DEGREE, interleaved, then their
    first derivatives, then their curvatures (1 - k^2) cos kt, (1 - k^2) sin kt.
    """
    t = grid.theta
    values, deriv, curv = [], [], []
    for k in range(1, BODY_DEGREE + 1):
        cos_k, sin_k = np.cos(k * t), np.sin(k * t)
        values += [cos_k, sin_k]
        deriv += [-k * sin_k, k * cos_k]
        curv += [(1 - k * k) * cos_k, (1 - k * k) * sin_k]
    basis = np.array([values, deriv, curv])
    basis.setflags(write=False)
    return basis


def random_convex_body(rng, grid: Grid) -> SupportFunction:
    """Random trig support function, resampled until strictly convex.

    Candidates come from the stream in blocks of ``CANDIDATE_BLOCK``, in the
    order of one-at-a-time draws, and the first acceptable one is returned;
    the block's unused draws are consumed from ``rng``.  The acceptance
    tests read a block's values and curvatures from two products with the
    cached basis, and the body carries h' and h'' + h from it.  Its values
    are re-summed mode by mode, in the order of one-at-a-time draws, so they
    match those draws bit for bit.
    """
    values, deriv, curv = _body_basis(grid)
    scale = 0.4 / np.arange(1, BODY_DEGREE + 1) ** 2
    for start in range(0, CANDIDATE_ATTEMPTS, CANDIDATE_BLOCK):
        count = min(CANDIDATE_BLOCK, CANDIDATE_ATTEMPTS - start)
        coef = (rng.standard_normal((count, BODY_DEGREE, 2)) * scale[:, None]).reshape(count, -1)
        ok = ((1.0 + coef @ values).min(axis=1) > 0.05) & ((1.0 + coef @ curv).min(axis=1) > 0.01)
        if ok.any():
            c = coef[np.argmax(ok)]
            h = np.ones(grid.n_points)
            for k in range(BODY_DEGREE):
                h += c[2 * k] * values[2 * k] + c[2 * k + 1] * values[2 * k + 1]
            return SupportFunction._carrying(h, grid, c @ deriv, 1.0 + c @ curv)
    raise RuntimeError(
        f"could not draw a convex body in {CANDIDATE_ATTEMPTS} attempts")


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


def eccentric_battery() -> list:
    """Deterministic axis-aligned ellipses with aspect ratio up to 100."""
    grid = Grid(BATTERY_GRID_N)
    return [(f"ellipse-{a}", ellipse_body(grid, 1.0, 1.0 / a)) for a in BATTERY_ASPECTS]


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


def _write_summary(cfg: ExperimentConfig, kind: str, fields: dict) -> dict:
    """Write ``<kind>_summary.json``: the keys every sweep records, then fields."""
    summary = {"kind": kind, "p": cfg.p, "q": cfg.q, "seed": cfg.seed,
               "n_samples": cfg.n_samples, **fields, "generated_at": _timestamp()}
    path = Path(cfg.out_dir) / f"{kind}_summary.json"
    write_json(path, summary)
    return {"summary": summary, "summary_path": str(path)}


# ---------------------------------------------------------------------------
# sweeps


def _sandwich_row(name: str, kind: str, body: SupportFunction, p: float, q: float) -> tuple:
    """One sandwich CSV row: the body's free and centroid-pinned John fits."""
    try:
        ell, ell_c = john(body), john(body, center=centroid(body))
    except EllipseSolveError:
        return (name, kind) + (None,) * 11 + (False,)
    rep = sandwich_ratio(body, p, q, ellipse=ell)
    return (name, kind, rep.r1, rep.r2, rep.r1 / rep.r2, rep.total, rep.ratio, rep.c2,
            rep.upper_ok, rep.lower_ok, ell_c.r1, ell_c.r2,
            containment_report(body, ell_c)["containment_factor"], True)


@lru_cache(maxsize=16)
def _battery_rows(p: float, q: float) -> tuple:
    """The eccentric battery's rows, fit and measured once per process and (p, q)."""
    return tuple(_sandwich_row(name, "ellipse", body, p, q)
                 for name, body in eccentric_battery())


def run_sandwich(cfg: ExperimentConfig) -> dict:
    """Ratio battery for the two-sided total-measure estimate."""
    if not (0.0 <= cfg.p <= 1.0):
        raise ParameterRangeError(f"sandwich sweep needs p in [0, 1], got {cfg.p}")
    if cfg.q < 2.0:
        raise ParameterRangeError(f"sandwich sweep needs q >= 2, got {cfg.q}")
    grid = Grid(cfg.n_points)
    rows = [_sandwich_row(f"s{i:03d}", "random-trig",
                          random_convex_body(np.random.default_rng(seed), grid), cfg.p, cfg.q)
            for i, seed in enumerate(_spawned(cfg.seed, cfg.n_samples))]
    rows += _battery_rows(cfg.p, cfg.q)

    header = ["id", "body_kind", "r1", "r2", "eccentricity", "total_measure",
              "ratio", "c2", "upper_ok", "lower_ok", "r1_centroid", "r2_centroid",
              "containment_centroid", "converged"]
    csv_path = Path(cfg.out_dir) / "sandwich.csv"
    write_csv(csv_path, header, rows)
    fits = [dict(zip(header, row)) for row in rows if row[-1]]
    ratios = [fit["ratio"] for fit in fits]
    return {"csv": str(csv_path), **_write_summary(cfg, "sandwich", {
        "n_rows": len(rows),
        "n_converged": len(fits),
        "c2": sandwich_c2(cfg.p, cfg.q),
        "ratio_min": min(ratios, default=None),
        "ratio_max": max(ratios, default=None),
        "upper_violations": sum(not fit["upper_ok"] for fit in fits),
        "containment_centroid_max": max((fit["containment_centroid"] for fit in fits),
                                        default=None),
    })}


def _diameter_row(name: str, cfg: ExperimentConfig, seed, grid: Grid) -> tuple:
    """One diameter CSV row: a solve on seeded data and its John fit."""
    f = gen_f(cfg.f_kind, cfg.lam, seed, grid)
    dev = float(np.max(np.abs(f.values - 1.0)))
    try:
        rep = solve(ProblemParams(cfg.p, cfg.q, f, lam=cfg.lam))
        ell = john(rep.body)
    except (StagnationError, SingularJacobianError, EllipseSolveError):
        return (name, dev, cfg.lam, False) + (None,) * 5
    body = rep.body
    return (name, dev, cfg.lam, True, float(np.max(body.values)), diameter(body),
            ell.r1 / ell.r2, lp_dual_density(body, cfg.p, cfg.q).total, rep.residual_sup)


def run_diameter(cfg: ExperimentConfig) -> dict:
    """Seeded solves with bounded data; reports the empirical size envelope."""
    if not (0.0 < cfg.p < 1.0):
        raise ParameterRangeError(f"diameter sweep needs p in (0, 1), got {cfg.p}")
    if cfg.q < 2.0:
        raise ParameterRangeError(f"diameter sweep needs q >= 2, got {cfg.q}")
    grid = Grid(cfg.n_points)
    rows = [_diameter_row(f"s{i:03d}", cfg, seed, grid)
            for i, seed in enumerate(_spawned(cfg.seed, cfg.n_samples))]

    baseline = solve(ProblemParams(cfg.p, cfg.q,
                                   PeriodicSamples(np.ones(grid.n_points), grid),
                                   lam=1.0))
    baseline_max = float(np.max(baseline.body.values))

    header = ["id", "f_dev_inf", "lam", "converged", "max_h", "diameter",
              "eccentricity", "total_measure", "residual_sup"]
    csv_path = Path(cfg.out_dir) / "diameter.csv"
    write_csv(csv_path, header, rows)
    max_h = [row[4] for row in rows if row[3]]
    return {"csv": str(csv_path), **_write_summary(cfg, "diameter", {
        "lambda": cfg.lam,
        "n_converged": len(max_h),
        "empirical_max_h": max(max_h, default=None),
        "baseline_max_h": baseline_max,
    })}


def holder_proxy(deviation: np.ndarray, grid: Grid) -> float:
    """Sup norm plus the grid Holder quotient of exponent 1/2."""
    sup = float(np.max(np.abs(deviation)))
    t = grid.theta
    d = np.abs(t[:, None] - t[None, :])
    d = np.minimum(d, 2.0 * np.pi - d)
    np.fill_diagonal(d, 1.0)
    quo = np.abs(deviation[:, None] - deviation[None, :]) / d**0.5
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

    per_eps = []
    for eps in cfg.eps:
        inst = [_uniqueness_instance(cfg, eps, seed, grid) for seed in seeds]
        per_eps.append({
            "eps": eps,
            "instances": inst,
            "all_agree": bool(all(r["agree"] for r in inst)),
            "max_pairwise_sup": max(r["max_pairwise_sup"] for r in inst),
            "min_h": min(r["min_h"] for r in inst),
        })

    agreeing = [blk["eps"] for blk in per_eps if blk["all_agree"]]
    return _write_summary(cfg, "uniqueness", {
        "starts": cfg.starts,
        "eps_values": list(cfg.eps),
        "results": per_eps,
        "empirical_uniqueness_radius": max(agreeing) if agreeing else None,
    })


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

    return _write_summary(cfg, "maxprinciple", {
        "lambda": cfg.lam,
        "violations": 0,
        "records": records,
        "worst_margin": min(r["margin"] for r in records),
        "constant_data_equality_gap": gap,
    })


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
            "ok": bool(report.rel_error <= VARIATIONAL_TOL),
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
        "ok": all(c["ok"] for c in checks),
        "generated_at": _timestamp(),
    }
    if out_dir is not None:
        write_json(Path(out_dir) / "variational.json", report)
    return report
