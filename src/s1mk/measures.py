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
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .body import SupportFunction, _common_grid, area, minkowski_sum, p_sum, perimeter
# ``radial`` is unused here but stays a module attribute: the benchmark's
# tracer hooks s1mk.measures.radial.
from .body import radial  # noqa: F401
from .errors import OriginOnBoundaryError, ParameterRangeError, SingularDensityError
from .grid import PeriodicSamples, integrate

VARIATION_STEPS = (1e-2, 5e-3, 2.5e-3)
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
        _require_finite(self.f, "data f")
        if np.min(self.f.values) <= 0.0:
            raise ValueError("data f must be strictly positive")
        if self.lam is not None:
            if self.lam < 1.0:
                raise ValueError(f"bound must be >= 1, got {self.lam}")
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


def _require_finite(samples: PeriodicSamples, what: str) -> None:
    """Raise ValueError naming the first non-finite sample and its angle."""
    finite = np.isfinite(samples.values)
    if not finite.all():
        i = int(finite.argmin())
        raise ValueError(f"{what} has the non-finite sample {samples.values[i]}"
                         f" at theta = {samples.theta[i]:.6f}")


def singular_floor(values: np.ndarray) -> float:
    """Scale-aware level at or below which a positive factor counts as zero."""
    return _SINGULAR_TOL * max(float(np.max(values)), 1.0)


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
    """lp_dual density values h^(1-p) (h^2 + h'^2)^((q-2)/2) (h'' + h)."""
    lp, _ = _lp_factor(h, p)
    if q == 2.0:
        return lp * curv
    return lp * (h * h + hp * hp) ** (0.5 * (q - 2.0)) * curv


def _density_core(body: SupportFunction, p: float, q: float) -> PeriodicSamples:
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


def _dual_curvature(body: SupportFunction, q: float) -> np.ndarray:
    """Half-normalized dual curvature density (1/2) h (h^2+h'^2)^((q-2)/2) (h''+h)."""
    return 0.5 * lp_dual_kernel(body.values, body.derivative.values,
                                body.curvature.values, 0.0, q)


def dual_volume(body: SupportFunction, q: float) -> float:
    """q-th dual volume (1/2) integral rho(xi)^q over direction angles.

    Computed as the total of the dual curvature measure on the normal-angle
    grid (Huang, Lutwak, Yang and Zhang, Acta Math. 216, 2016), which needs
    no radial function; at q = 2 it equals ``area`` bitwise.
    """
    if q == 0.0:
        raise ParameterRangeError("dual volume index q must be nonzero")
    if float(np.min(body.values)) <= 0.0:
        raise OriginOnBoundaryError("dual volume needs the origin strictly inside")
    return integrate(PeriodicSamples(_dual_curvature(body, q), body.grid))


def extrapolate_to_zero(steps, values) -> float:
    """Neville extrapolation of (step, value) pairs to step 0."""
    t = [float(s) for s in steps]
    p = [float(v) for v in values]
    m = len(p)
    for level in range(1, m):
        for i in range(m - level):
            p[i] = (t[i] * p[i + 1] - t[i + level] * p[i]) / (t[i] - t[i + level])
    return p[0]


def _one_sided_slopes(fun, steps):
    base = fun(0.0)
    return tuple((fun(s) - base) / s for s in steps)


def _variation_report(volume, rhs: float, normalization=None) -> VariationalReport:
    """Extrapolated slope of volume(t) at t = 0 against the first variation rhs."""
    slopes = _one_sided_slopes(volume, VARIATION_STEPS)
    lhs = extrapolate_to_zero(VARIATION_STEPS, slopes)
    rel = abs(lhs - rhs) / max(abs(rhs), 1e-300)
    return VariationalReport(lhs, rhs, rel, VARIATION_STEPS, slopes, normalization)


def check_aleksandrov(k: SupportFunction, l: SupportFunction) -> VariationalReport:
    """First variation of area along t -> K + tL against integral h_L dS_K."""
    hl = _common_grid(k, l).values
    rhs = integrate(PeriodicSamples(hl * k.curvature.values, k.grid))
    return _variation_report(
        lambda t: area(minkowski_sum(k, l, t)) if t else area(k), rhs)


def check_lp_variational(k: SupportFunction, l: SupportFunction,
                         p: float) -> VariationalReport:
    """First variation of area along the Firey path against the p-measure pairing."""
    if p < 1.0:
        raise ParameterRangeError(f"variational check needs p >= 1, got {p}")
    hl = _common_grid(k, l).values
    integrand = hl**p * _lp_factor(k.values, p)[0] * k.curvature.values
    rhs = integrate(PeriodicSamples(integrand, k.grid)) / p
    return _variation_report(
        lambda t: area(p_sum(k, l, t, p)) if t else area(k), rhs)


def check_dual_variational(k: SupportFunction, l: SupportFunction,
                           q: float) -> VariationalReport:
    """First variation of the q-th dual volume along t -> K + tL.

    The right side is q times the pairing of h_L / h_K with the dual
    curvature density; the report records its normalization 0.5.
    """
    hl = _common_grid(k, l).values
    rhs = q * integrate(PeriodicSamples(hl / k.values * _dual_curvature(k, q), k.grid))
    return _variation_report(
        lambda t: dual_volume(minkowski_sum(k, l, t), q) if t else dual_volume(k, q),
        rhs, normalization=0.5)
