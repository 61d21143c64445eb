"""Planar convex bodies represented by sampled support functions.

A body K containing the origin is encoded by support values h(theta_i) >= 0
whose curvature density h'' + h is nonnegative (up to a small tolerance that
absorbs spectral roundoff).  The boundary point with outward normal
u = (cos t, sin t) is x = h u + h' u_perp, and all the classical quantities
(area, perimeter, diameter, radial function) come from h and its derivatives.
"""

from __future__ import annotations

import json
import warnings

import numpy as np

from .errors import (
    DegenerateCurvatureWarning,
    NegativeSupportError,
    NonconvexError,
    OriginOnBoundaryError,
    ParameterRangeError,
)
from .grid import Grid, PeriodicSamples, diff, integrate, resample, trig_eval


def convexity_tol(values: np.ndarray) -> float:
    """Default allowance for negative curvature density, 1e-9 max h."""
    return 1e-9 * max(float(values.max()), 1e-300)


class SupportFunction:
    """Validated support-function samples with cached derivatives."""

    def __init__(self, samples: PeriodicSamples, tol_convex: float | None = None,
                 validate: bool = True):
        self.h = samples
        if tol_convex is None:
            tol_convex = convexity_tol(samples.values)
        self.tol_convex = float(tol_convex)
        self._hp = None
        self._curv = None
        if validate:
            self._validate()

    def _validate(self):
        vals = self.h.values
        i = int(np.argmin(vals))
        # written as "not >=" so that NaN, which argmin returns first, fails
        if not vals[i] >= 0.0:
            what = f"{vals[i]:.3e} < 0" if np.isfinite(vals[i]) else "non-finite"
            raise NegativeSupportError(
                f"support value {what} at theta = {self.h.theta[i]:.6f}"
            )
        # an infinite support value would leave NaN everywhere in the curvature
        k = int(np.argmax(vals))
        if vals[k] == np.inf:
            raise NonconvexError(
                f"curvature density non-finite: support value inf at "
                f"theta = {self.h.theta[k]:.6f}",
                theta=float(self.h.theta[k]),
                value=float(vals[k]),
            )
        curv = self.curvature.values
        j = int(np.argmin(curv))
        if not curv[j] >= -self.tol_convex:
            what = (f"{curv[j]:.6e} < -{self.tol_convex:.1e}" if np.isfinite(curv[j])
                    else "non-finite")
            raise NonconvexError(
                f"curvature density {what} at theta = {self.h.theta[j]:.6f}",
                theta=float(self.h.theta[j]),
                value=float(curv[j]),
            )

    @property
    def grid(self) -> Grid:
        return self.h.grid

    @property
    def values(self) -> np.ndarray:
        return self.h.values

    def _differentiate(self):
        # h' and h'' from one diff call, bit for bit the single-order calls
        self._hp, hpp = diff(self.h, (1, 2))
        self._curv = PeriodicSamples(hpp.values + self.h.values, self.grid)

    @property
    def derivative(self) -> PeriodicSamples:
        if self._hp is None:
            self._differentiate()
        return self._hp

    @property
    def curvature(self) -> PeriodicSamples:
        """Curvature density h'' + h (the surface measure density)."""
        if self._curv is None:
            self._differentiate()
        return self._curv


def from_samples(values, grid: Grid, tol_convex: float | None = None) -> SupportFunction:
    """Build a body from raw support values, validating the class invariants."""
    return SupportFunction(PeriodicSamples(np.asarray(values, dtype=float), grid),
                           tol_convex=tol_convex)


def boundary_xy(body: SupportFunction) -> np.ndarray:
    """Boundary points as an (n, 2) array, ordered by normal angle."""
    t = body.grid.theta
    h = body.values
    hp = body.derivative.values
    curv = body.curvature.values
    if np.min(curv) <= body.tol_convex:
        warnings.warn(
            "curvature density nearly vanishes; boundary points may repeat",
            DegenerateCurvatureWarning,
            stacklevel=2,
        )
    x = h * np.cos(t) - hp * np.sin(t)
    y = h * np.sin(t) + hp * np.cos(t)
    return np.column_stack([x, y])


def rho_at_normal(body: SupportFunction) -> PeriodicSamples:
    """Distance from the origin to the boundary point with normal angle theta."""
    h = body.values
    hp = body.derivative.values
    return PeriodicSamples(np.sqrt(h * h + hp * hp), body.grid)


def radial(body: SupportFunction, out_grid: Grid | None = None) -> PeriodicSamples:
    """Radial function rho(xi) > 0 of the body at the angles of ``out_grid``.

    For each direction the coarse minimum of h(u)/<u, xi> over grid normals is
    refined by bisection on the boundary parametrization: the offset
    psi(t) = h sin(t - a) + h' cos(t - a) is monotone in t on the forward half
    circle (its derivative is (h'' + h) cos(t - a)), and its zero, bracketed
    to 1e-10, is the normal angle of the boundary point on the ray with
    direction angle a.
    """
    if out_grid is None:
        out_grid = body.grid
    if float(np.min(body.values)) <= 0.0:
        raise OriginOnBoundaryError("radial function needs the origin strictly inside")

    a = out_grid.theta
    t = body.grid.theta
    h = body.values
    hp = body.derivative.values

    dif = t[None, :] - a[:, None]
    cos_d = np.cos(dif)
    sin_d = np.sin(dif)
    gauge = np.where(cos_d > 1e-12, h[None, :] / np.where(cos_d > 1e-12, cos_d, 1.0), np.inf)
    j0 = np.argmin(gauge, axis=1)

    rows = np.arange(len(a))
    psi0 = h[j0] * sin_d[rows, j0] + hp[j0] * cos_d[rows, j0]
    spacing = body.grid.spacing
    t0 = t[j0]
    lo = np.where(psi0 <= 0.0, t0, t0 - spacing)
    hi = np.where(psi0 <= 0.0, t0 + spacing, t0)

    hs = body.h
    hps = body.derivative

    def offset(phi):
        return (trig_eval(hs, phi) * np.sin(phi - a)
                + trig_eval(hps, phi) * np.cos(phi - a))

    # Widen any bracket that roundoff left without a sign change.
    f_lo = offset(lo)
    f_hi = offset(hi)
    bad = f_lo > 0.0
    lo[bad] -= spacing
    bad = f_hi < 0.0
    hi[bad] += spacing

    n_iter = int(np.ceil(np.log2(2.0 * spacing / 1e-10))) + 1
    for _ in range(n_iter):
        mid = 0.5 * (lo + hi)
        f_mid = offset(mid)
        neg = f_mid <= 0.0
        lo = np.where(neg, mid, lo)
        hi = np.where(neg, hi, mid)

    phi = 0.5 * (lo + hi)
    rho = trig_eval(hs, phi) * np.cos(phi - a) - trig_eval(hps, phi) * np.sin(phi - a)
    return PeriodicSamples(rho, out_grid)


def area(body: SupportFunction) -> float:
    h = body.h
    curv = body.curvature
    return 0.5 * integrate(PeriodicSamples(h.values * curv.values, body.grid))


def perimeter(body: SupportFunction) -> float:
    return integrate(body.h)


def diameter(body: SupportFunction) -> float:
    h = body.values
    return float(np.max(h + np.roll(h, body.grid.n_points // 2)))


def centroid(body: SupportFunction) -> np.ndarray:
    """Centroid of the polygon through the sampled boundary points."""
    pts = boundary_xy(body)
    x, y = pts[:, 0], pts[:, 1]
    xn, yn = np.roll(x, -1), np.roll(y, -1)
    cross = x * yn - xn * y
    a = 0.5 * cross.sum()
    cx = ((x + xn) * cross).sum() / (6.0 * a)
    cy = ((y + yn) * cross).sum() / (6.0 * a)
    return np.array([cx, cy])


def _common_grid(k: SupportFunction, other: SupportFunction) -> PeriodicSamples:
    if other.grid.n_points == k.grid.n_points:
        return other.h
    return resample(other.h, k.grid)


def minkowski_sum(k: SupportFunction, l: SupportFunction, t: float = 1.0) -> SupportFunction:
    """Support function of K + t L (t >= 0)."""
    if t < 0.0:
        raise ValueError(f"scale t must be nonnegative, got {t}")
    hl = _common_grid(k, l)
    return SupportFunction(PeriodicSamples(k.values + t * hl.values, k.grid))


def p_sum(k: SupportFunction, l: SupportFunction, t: float, p: float) -> SupportFunction:
    """Firey combination: h = (h_K^p + t h_L^p)^(1/p), defined for p >= 1."""
    if p < 1.0:
        raise ParameterRangeError(f"p-sum needs p >= 1, got p = {p}")
    if t < 0.0:
        raise ValueError(f"scale t must be nonnegative, got {t}")
    hl = _common_grid(k, l)
    if np.min(k.values) <= 0.0 or np.min(hl.values) <= 0.0:
        raise ValueError("p-sum needs strictly positive support functions")
    vals = (k.values**p + t * hl.values**p) ** (1.0 / p)
    return SupportFunction(PeriodicSamples(vals, k.grid))


def translate(body: SupportFunction, vec) -> SupportFunction:
    vx, vy = float(vec[0]), float(vec[1])
    t = body.grid.theta
    vals = body.values + vx * np.cos(t) + vy * np.sin(t)
    return SupportFunction(PeriodicSamples(vals, body.grid), tol_convex=body.tol_convex)


def rotate(body: SupportFunction, phi: float) -> SupportFunction:
    """Rotate the body by phi; exact (a roll) when phi is a grid multiple."""
    spacing = body.grid.spacing
    shift = phi / spacing
    if abs(shift - round(shift)) < 1e-12:
        vals = np.roll(body.values, int(round(shift)))
    else:
        vals = trig_eval(body.h, body.grid.theta - phi)
    return SupportFunction(PeriodicSamples(vals, body.grid), tol_convex=body.tol_convex)


def scale(body: SupportFunction, lam: float) -> SupportFunction:
    if lam <= 0.0:
        raise ValueError(f"scale factor must be positive, got {lam}")
    return SupportFunction(PeriodicSamples(lam * body.values, body.grid))


def disk(grid: Grid, radius: float = 1.0, center=(0.0, 0.0)) -> SupportFunction:
    t = grid.theta
    vals = radius + center[0] * np.cos(t) + center[1] * np.sin(t)
    return from_samples(vals, grid)


def ellipse_body(grid: Grid, r1: float, r2: float, angle: float = 0.0,
                 center=(0.0, 0.0)) -> SupportFunction:
    t = grid.theta - angle
    vals = np.sqrt((r1 * np.cos(t)) ** 2 + (r2 * np.sin(t)) ** 2)
    vals += center[0] * np.cos(grid.theta) + center[1] * np.sin(grid.theta)
    return from_samples(vals, grid)


def to_json(body: SupportFunction) -> dict:
    """JSON-ready dict; float repr round-trips every sample exactly."""
    return {"n_points": body.grid.n_points, "h": body.values.tolist()}


def from_json(data, tol_convex: float | None = None) -> SupportFunction:
    """Rebuild a body from :func:`to_json` output (dict or JSON text).

    The number of samples sets the grid; ``n_points``, where given, must equal it.
    """
    if isinstance(data, str):
        data = json.loads(data)
    h = np.array(data["h"], dtype=float)
    if data.get("n_points", h.size) != h.size:
        raise ValueError(f"n_points = {data['n_points']!r} but {h.size} support values")
    return from_samples(h, Grid(h.size), tol_convex=tol_convex)
