"""Planar convex bodies represented by sampled support functions.

A body K containing the origin is encoded by support values h(theta_i) >= 0
whose curvature density h'' + h is nonnegative (up to a small tolerance that
absorbs spectral roundoff).  The boundary point with outward normal
u = (cos t, sin t) is x = h u + h' u_perp, and all the classical quantities
(area, perimeter, diameter, radial function) come from h and its derivatives.

A body computes h' and h'' + h lazily, by one FFT, and caches them.  The
constructions that commute with Fourier differentiation hand them on
instead: ``minkowski_sum`` on a common grid, ``scale``, ``translate`` (a
degree-1 term has zero curvature), ``rotate`` and ``disk``, and the
harness's random trig bodies.  A carried array equals ``diff`` of the
samples up to spectral roundoff, and the body is validated on it as on a
computed one.  ``from_samples`` differentiates, and so do the constructions
that do not commute: ``p_sum``, which is nonlinear, ``minkowski_sum`` across
grids, which resamples, and ``ellipse_body``.  An ellipse's samples are not
a trig polynomial, so its closed-form curvature is not that of the
interpolant: at aspect 100 they differ by 0.58 max h at n = 1024 and 8e-8
max h at n = 4096, and at n = 256 the interpolant is not convex.
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
from .grid import Grid, PeriodicSamples, _multiplier, diff, integrate, resample, trig_eval


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

    @classmethod
    def _carrying(cls, values, grid: Grid, hp, curv, tol_convex: float | None = None,
                  validate: bool = True) -> SupportFunction:
        """A body whose h' and h'' + h are known, seeded into the cache.

        Only for constructions that commute with Fourier differentiation, so
        that the carried arrays equal ``diff`` of ``values`` up to spectral
        roundoff; validation then reads the carried curvature.
        """
        body = cls(PeriodicSamples(values, grid), tol_convex, validate=False)
        body._hp = PeriodicSamples(hp, grid)
        body._curv = PeriodicSamples(curv, grid)
        if validate:
            body._validate()
        return body

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
    """Build a body from raw support values, validating the class invariants.

    h' and h'' + h are computed from the samples by FFT when first needed.
    """
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
    """Support function of K + t L (t >= 0), on the grid of K.

    On a common grid the sum carries h'_K + t h'_L and curvature
    (h''_K + h_K) + t (h''_L + h_L).  Across grids L is resampled and the
    sum differentiated.
    """
    if t < 0.0:
        raise ValueError(f"scale t must be nonnegative, got {t}")
    if l.grid != k.grid:
        hl = resample(l.h, k.grid)
        return SupportFunction(PeriodicSamples(k.values + t * hl.values, k.grid))
    return SupportFunction._carrying(k.values + t * l.values, k.grid,
                                     k.derivative.values + t * l.derivative.values,
                                     k.curvature.values + t * l.curvature.values)


def p_sum(k: SupportFunction, l: SupportFunction, t: float, p: float) -> SupportFunction:
    """Firey combination: h = (h_K^p + t h_L^p)^(1/p), defined for p >= 1.

    Nonlinear in h, so the result is differentiated, not carried.
    """
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
    """The body moved by ``vec``; carries h' and the unchanged curvature.

    Translation adds the degree-1 term <vec, u>, whose h'' + h is zero.
    """
    vx, vy = float(vec[0]), float(vec[1])
    t = body.grid.theta
    cos_t, sin_t = np.cos(t), np.sin(t)
    vals = body.values + vx * cos_t + vy * sin_t
    hp = body.derivative.values - vx * sin_t + vy * cos_t
    return SupportFunction._carrying(vals, body.grid, hp, body.curvature.values,
                                     tol_convex=body.tol_convex)


def rotate(body: SupportFunction, phi: float) -> SupportFunction:
    """Rotate the body by phi, h(theta - phi); carries h' and h'' + h.

    A grid multiple rolls the three arrays, exactly.  Any other angle shifts
    the phase of each Fourier mode k by exp(-i k phi), the Nyquist mode being
    the pure cosine of ``trig_eval`` (its coefficient times cos(n phi / 2)):
    one rfft of the samples and one three-row irfft, in O(n) memory.
    """
    grid = body.grid
    shift = phi / grid.spacing
    if abs(shift - round(shift)) < 1e-12:
        k = int(round(shift))
        vals, hp, curv = (np.roll(a, k) for a in
                          (body.values, body.derivative.values, body.curvature.values))
    else:
        n = grid.n_points
        phase = np.exp(-1j * phi * np.arange(n // 2 + 1))
        phase[-1] = np.cos(phi * (n // 2))
        coef = np.fft.rfft(body.values) * phase
        vals, hp, hpp = np.fft.irfft(np.vstack([coef, _multiplier(n, (1, 2)) * coef]), n)
        curv = hpp + vals
    return SupportFunction._carrying(vals, grid, hp, curv, tol_convex=body.tol_convex)


def scale(body: SupportFunction, lam: float) -> SupportFunction:
    """The body dilated by lam > 0; carries lam h' and lam (h'' + h)."""
    if lam <= 0.0:
        raise ValueError(f"scale factor must be positive, got {lam}")
    return SupportFunction._carrying(lam * body.values, body.grid, lam * body.derivative.values,
                                     lam * body.curvature.values)


def disk(grid: Grid, radius: float = 1.0, center=(0.0, 0.0)) -> SupportFunction:
    """The disk of ``radius`` about ``center``; carries h' and its curvature, the radius."""
    t = grid.theta
    cos_t, sin_t = np.cos(t), np.sin(t)
    vals = radius + center[0] * cos_t + center[1] * sin_t
    hp = center[1] * cos_t - center[0] * sin_t
    return SupportFunction._carrying(vals, grid, hp, np.full(grid.n_points, float(radius)))


def ellipse_body(grid: Grid, r1: float, r2: float, angle: float = 0.0,
                 center=(0.0, 0.0)) -> SupportFunction:
    """The ellipse with semi-axes r1, r2 turned by ``angle`` about ``center``.

    Differentiated by FFT: its closed-form curvature is not that of the
    samples' interpolant (see the module docstring).
    """
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
