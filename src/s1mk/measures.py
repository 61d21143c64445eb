"""Curvature-type measure densities and first-variation checks.

All measures of a planar body are absolutely continuous in the normal angle
once the support function is smooth, so they are carried around as densities
on the body's grid together with their totals.  The density zoo:

  surface            h'' + h
  lp_surface         h^(1-p) (h'' + h)
  lp_dual            h^(1-p) (h^2 + h'^2)^((q-2)/2) (h'' + h)
  dual curvature     (1/2) h (h^2 + h'^2)^((q-2)/2) (h'' + h)

The lp_dual density is normalized so that a solution of the central equation
has total measure equal to integral(f).  The dual curvature density is half
the p = 0 lp_dual density; its total is the q-th dual volume
(1/2) integral rho^q over directions, and at q = 2 it is half the support
times the surface density, so the q = 2 identity with area is exact.  The
dual-volume first variation pairs h_L / h_K with it; reports carry the 1/2.

The first-variation checks evaluate each path in one stacked pass: the
path's support values, h' and h'' + h at t = 0 and ``VARIATION_STEPS`` are
the rows of (steps, n) arrays, row 0 being K itself.  Each row t > 0 is
validated as the body of its samples would be, and the volumes are row-wise
sums through the same code as ``area`` and ``dual_volume``, so every slope
equals the per-body difference quotient bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .body import (SupportFunction, _areas, _check_samples, _common_grid, _firey,
                   _validate_rows, perimeter)
# ``radial`` is unused here but stays a module attribute: the benchmark's
# tracer hooks s1mk.measures.radial.
from .body import radial  # noqa: F401
from .errors import OriginOnBoundaryError, ParameterRangeError, SingularDensityError
from .grid import PeriodicSamples, diff_rows, integrate

VARIATION_STEPS = (1e-2, 5e-3, 2.5e-3)
# the path parameters t = 0 and VARIATION_STEPS as a column, one row of a path each
_PATH_T = np.array((0.0,) + VARIATION_STEPS)[:, None]
_SINGULAR_TOL = 1e-12


@dataclass(frozen=True)
class MeasureDensity:
    density: PeriodicSamples
    total: float
    kind: str
    p: float | None = None
    q: float | None = None


@dataclass(frozen=True)
class ProblemParams:
    """Data (p, q, f) for the prescribed-measure equation, with optional bound."""

    p: float
    q: float
    f: PeriodicSamples
    lam: float | None = None

    def __post_init__(self):
        _require_finite_scalars(p=self.p, q=self.q)
        _require_finite(self.f, "data f")
        if np.min(self.f.values) <= 0.0:
            raise ValueError("data f must be strictly positive")
        if self.lam is not None:
            if not 1.0 <= self.lam < math.inf:  # NaN fails too
                raise ValueError(f"bound lam must be finite and >= 1, got {self.lam}")
            lo, hi = np.min(self.f.values), np.max(self.f.values)
            if lo < 1.0 / self.lam - 1e-12 or hi > self.lam + 1e-12:
                raise ValueError(
                    f"f range [{lo:.6g}, {hi:.6g}] violates [1/{self.lam}, {self.lam}]"
                )


@dataclass(frozen=True)
class VariationalReport:
    """One-sided difference quotients of a volume along a path, extrapolated."""

    lhs_slope: float
    rhs_integral: float
    rel_error: float
    steps: tuple
    slopes: tuple
    normalization: float | None = None


def _require_finite_scalars(**params) -> None:
    """Raise ValueError naming the first parameter that is NaN or infinite."""
    for name, value in params.items():
        if not math.isfinite(value):
            raise ValueError(f"parameter {name} must be finite, got {value}")


def _require_finite(samples: PeriodicSamples, what: str) -> None:
    """Raise ValueError naming the first non-finite sample and its angle."""
    finite = np.isfinite(samples.values)
    if not finite.all():
        i = int(finite.argmin())
        raise ValueError(f"{what} has the non-finite sample {samples.values[i]}"
                         f" at theta = {samples.theta[i]:.6f}")


def singular_floor(values: np.ndarray):
    """Scale-aware level at or below which a positive factor counts as zero.

    A 2-D array gets one level per row, as a column.
    """
    if values.ndim == 1:
        return _SINGULAR_TOL * max(float(values.max()), 1.0)
    return _SINGULAR_TOL * np.maximum(values.max(axis=-1, keepdims=True), 1.0)


def _lp_factor(h: np.ndarray, p: float):
    """h^(1-p) and the mask of samples where it varies with h.

    For p < 1 the factor vanishes as h -> 0, so support values at or below
    the floor are cut to zero and held fixed; for p > 1 they are singular.
    """
    if p == 1.0:
        return np.ones_like(h), np.zeros(h.shape, dtype=bool)
    active = h > singular_floor(h)
    if p > 1.0 and not active.all():
        raise SingularDensityError(
            f"h^(1-p) with p = {p} > 1 is singular: min h = {float(h.min()):.3e}"
        )
    return np.where(active, h, 0.0) ** (1.0 - p), active


def lp_dual_kernel(h: np.ndarray, hp: np.ndarray, curv: np.ndarray,
                   p: float, q: float) -> np.ndarray:
    """lp_dual density values h^(1-p) (h^2 + h'^2)^((q-2)/2) (h'' + h).

    Rows of 2-D arrays are separate bodies, each with its own singular floor.
    """
    lp, _ = _lp_factor(h, p)
    if q == 2.0:
        return lp * curv
    return lp * (h * h + hp * hp) ** (0.5 * (q - 2.0)) * curv


def _density_core(body: SupportFunction, p: float, q: float) -> PeriodicSamples:
    _require_finite_scalars(p=p, q=q)
    h = body.values
    hp = body.derivative.values
    if q < 2.0:
        speed = np.sqrt(h * h + hp * hp)
        if float(speed.min()) <= singular_floor(speed):
            raise SingularDensityError(
                f"speed factor with q = {q} < 2 singular: boundary meets the origin"
            )
    return PeriodicSamples(lp_dual_kernel(h, hp, body.curvature.values, p, q), body.grid)


def surface_density(body: SupportFunction) -> MeasureDensity:
    """Surface-area measure density h'' + h; its total is the perimeter."""
    dens = body.curvature
    total = integrate(dens)
    per = perimeter(body)
    assert abs(total - per) <= 1e-10 * max(1.0, abs(per)), (total, per)
    return MeasureDensity(dens, total, kind="surface")


def lp_surface_density(body: SupportFunction, p: float) -> MeasureDensity:
    dens = _density_core(body, p, 2.0)
    return MeasureDensity(dens, integrate(dens), kind="lp_surface", p=p)


def lp_dual_density(body: SupportFunction, p: float, q: float) -> MeasureDensity:
    dens = _density_core(body, p, q)
    return MeasureDensity(dens, integrate(dens), kind="lp_dual", p=p, q=q)


def _check_dual_args(h: np.ndarray, q: float) -> None:
    _require_finite_scalars(q=q)
    if q == 0.0:
        raise ParameterRangeError("dual volume index q must be nonzero")
    if h.min() <= 0.0:  # over all rows at once
        raise OriginOnBoundaryError("dual volume needs the origin strictly inside")


def _dual_volumes(h: np.ndarray, hp: np.ndarray, curv: np.ndarray, q: float, grid):
    """Half-normalized dual curvature density (1/2) h (h^2+h'^2)^((q-2)/2) (h''+h)
    of (h, h', h'' + h) and its total, the q-th dual volume; row by row for 2-D arrays.
    """
    _check_dual_args(h, q)
    dens = 0.5 * lp_dual_kernel(h, hp, curv, 0.0, q)
    return dens, dens.sum(axis=-1) * grid.spacing


def dual_volume(body: SupportFunction, q: float) -> float:
    """q-th dual volume (1/2) integral rho(xi)^q over direction angles.

    Computed as the total of the dual curvature measure on the normal-angle
    grid (Huang, Lutwak, Yang and Zhang, Acta Math. 216, 2016), which needs
    no radial function; at q = 2 it equals ``area`` bitwise.
    """
    return float(_dual_volumes(body.values, body.derivative.values, body.curvature.values,
                               q, body.grid)[1])


def extrapolate_to_zero(steps, values) -> float:
    """Neville extrapolation of (step, value) pairs to step 0."""
    t = [float(s) for s in steps]
    p = [float(v) for v in values]
    m = len(p)
    for level in range(1, m):
        for i in range(m - level):
            p[i] = (t[i] * p[i + 1] - t[i + level] * p[i]) / (t[i] - t[i + level])
    return p[0]


def _path(k: SupportFunction, h: np.ndarray, l: SupportFunction | None = None):
    """Rows (h, h', h'' + h) of a path at t = 0 and VARIATION_STEPS; row 0 is K.

    ``h`` holds the path's support values, one row per t.  The path K + tL
    with L on K's grid carries h'_K + t h'_L and (h''_K + h_K) + t (h''_L + h_L),
    as ``minkowski_sum`` does.  Other paths (``l`` None) are differentiated by
    one ``diff_rows`` call, and row 0 takes K's own arrays.  Rows t > 0 are
    validated as the bodies of their samples would be.
    """
    if l is not None:
        hp = k.derivative.values + _PATH_T * l.derivative.values
        curv = k.curvature.values + _PATH_T * l.curvature.values
    else:
        derivs = diff_rows(h, (1, 2))
        hp = derivs[:, 0]
        curv = derivs[:, 1] + h
        h[0], hp[0], curv[0] = k.values, k.derivative.values, k.curvature.values
    _validate_rows(h[1:], curv[1:], k.grid)
    return h, hp, curv


def _sum_path(k: SupportFunction, l: SupportFunction, hl: np.ndarray):
    """``_path`` of t -> K + tL, given h_L on K's grid; L on another grid is resampled."""
    return _path(k, k.values + _PATH_T * hl, l if l.grid == k.grid else None)


def _variation_report(volumes: np.ndarray, rhs: float,
                      normalization=None) -> VariationalReport:
    """Extrapolated slope at t = 0 of the volumes of a path's rows against rhs."""
    slopes = tuple(((volumes[1:] - volumes[0]) / _PATH_T[1:, 0]).tolist())
    lhs = extrapolate_to_zero(VARIATION_STEPS, slopes)
    rel = abs(lhs - rhs) / max(abs(rhs), 1e-300)
    return VariationalReport(lhs, rhs, rel, VARIATION_STEPS, slopes, normalization)


def check_aleksandrov(k: SupportFunction, l: SupportFunction) -> VariationalReport:
    """First variation of area along t -> K + tL against integral h_L dS_K.

    The whole path is evaluated in one stacked pass (see ``_path``).
    """
    hl = _common_grid(k, l).values
    rhs = integrate(PeriodicSamples(hl * k.curvature.values, k.grid))
    h, _, curv = _sum_path(k, l, hl)
    return _variation_report(_areas(h, curv, k.grid), rhs)


def check_lp_variational(k: SupportFunction, l: SupportFunction,
                         p: float) -> VariationalReport:
    """First variation of area along the Firey path against the p-measure pairing.

    The path (h_K^p + t h_L^p)^(1/p) is evaluated in one stacked pass that
    shares h_L^p with the right side; its rows are differentiated.  K's
    samples are validated first, so a negative one raises
    ``NegativeSupportError`` with its angle and value.
    """
    if not 1.0 <= p < math.inf:  # NaN fails too
        raise ParameterRangeError(f"variational check needs finite p >= 1, got {p}")
    _check_samples(k.values, k.grid)
    hl = _common_grid(k, l).values
    hlp = hl**p
    integrand = hlp * _lp_factor(k.values, p)[0] * k.curvature.values
    rhs = integrate(PeriodicSamples(integrand, k.grid)) / p
    h, _, curv = _path(k, _firey(k.values, hl, _PATH_T, p, hlp))
    return _variation_report(_areas(h, curv, k.grid), rhs)


def check_dual_variational(k: SupportFunction, l: SupportFunction,
                           q: float) -> VariationalReport:
    """First variation of the q-th dual volume along t -> K + tL.

    The right side is q times the pairing of h_L / h_K with the dual
    curvature density; the report records its normalization 0.5.  The path
    is evaluated in one stacked pass, whose row 0 gives K's dual volume and
    the density of the right side.
    """
    hl = _common_grid(k, l).values
    _check_dual_args(k.values, q)  # K's dual volume comes before any path row
    dens, volumes = _dual_volumes(*_sum_path(k, l, hl), q, k.grid)
    rhs = q * integrate(PeriodicSamples(hl / k.values * dens[0], k.grid))
    return _variation_report(volumes, rhs, normalization=0.5)
