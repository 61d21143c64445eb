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
computed one.  The solver's Newton states and line-search trials carry the
arrays of the solver's own ``diff`` call, bit for bit.  ``from_samples``
differentiates, and so do the constructions that do not commute:
``p_sum``, which is nonlinear, ``minkowski_sum`` across grids, which
resamples, and ``ellipse_body``.  An ellipse's samples are not
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
from .grid import (Grid, PeriodicSamples, _multiplier, diff, integrate, resample, tail_ratio,
                   trig_eval)


def convexity_tol(values: np.ndarray) -> float:
    """Default allowance for negative curvature density, 1e-9 max h."""
    return 1e-9 * max(float(values.max()), 1e-300)


def _check_samples(vals: np.ndarray, grid: Grid) -> None:
    """Raise NegativeSupportError on a negative or NaN sample, NonconvexError on +inf."""
    # one reduction per invariant: ndarray.argmin costs a quarter of ndarray.min
    i = vals.argmin()
    # written as "not >=" so that NaN, which argmin returns first, fails
    if not vals[i] >= 0.0:
        what = f"{vals[i]:.3e} < 0" if np.isfinite(vals[i]) else "non-finite"
        raise NegativeSupportError(f"support value {what} at theta = {grid.theta[i]:.6f}",
                                   theta=float(grid.theta[i]), value=float(vals[i]))
    # an infinite support value would leave NaN everywhere in the curvature
    k = vals.argmax()
    if vals[k] == np.inf:
        raise NonconvexError(
            f"curvature density non-finite: support value inf at "
            f"theta = {grid.theta[k]:.6f}",
            theta=float(grid.theta[k]),
            value=float(vals[k]),
        )


def _check_curvature(curv: np.ndarray, vals: np.ndarray, grid: Grid, tol_convex: float) -> None:
    """Raise NonconvexError where the curvature density h'' + h is below -tol_convex."""
    j = curv.argmin()
    if not curv[j] >= -tol_convex:
        what = (f"{curv[j]:.6e} < -{tol_convex:.1e}" if np.isfinite(curv[j])
                else "non-finite")
        raise NonconvexError(
            f"curvature density {what} at theta = {grid.theta[j]:.6f}"
            f" (samples' Fourier tail ratio {tail_ratio(vals):.1e})",
            theta=float(grid.theta[j]),
            value=float(curv[j]),
        )


def _validate_rows(h: np.ndarray, curv: np.ndarray, grid: Grid) -> None:
    """Validate each row of (support values, h'' + h) as a body with the default tolerance.

    Rows are checked in order, so the first failing row raises the error the
    body of its samples would.
    """
    for vals, c in zip(h, curv):
        _check_samples(vals, grid)
        _check_curvature(c, vals, grid, convexity_tol(vals))


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
        vals, grid = self.h.values, self.h.grid
        _check_samples(vals, grid)
        _check_curvature(self.curvature.values, vals, grid, self.tol_convex)

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


# Bisection halves one grid spacing (at most 0.4) to 1e-14 within 46 steps,
# so the cap is never the exit.
_RADIAL_MAX_STEPS = 64


def radial(body: SupportFunction, out_grid: Grid | None = None) -> PeriodicSamples:
    """Radial function rho(xi) > 0 of the body at the angles of ``out_grid``.

    The boundary point with normal angle s has polar angle phi(s) =
    s + atan(h'/h), increasing since phi' = h (h'' + h) / (h^2 + h'^2).  A
    sorted search on phi at the grid normals brackets each direction a, and
    Newton steps on phi(s) = a refine it from the chord, bisecting where a
    step would leave the bracket; each step reads h, h' and h'' + h at s from
    one ``trig_eval`` table.  A direction stops at |phi(s) - a| <= 1e-14 or a
    Newton step <= 1e-14.  The first alone runs to the cap where phi' is
    large (roundoff holds the residual up to 3.8e-12 on a 20:1 ellipse at
    n = 1024); the second alone bisects on at a zero of h'' + h, where noise
    in the residual makes long steps (19 of them against 4).  rho is where
    the ray meets the supporting line at s, h / cos(a - s): hypot(h, h') at
    the root, second order in s - root off it, and free of the FFT roundoff
    in h' (2.4e-11 against 6e-14 in h on that ellipse).
    """
    if out_grid is None:
        out_grid = body.grid
    if float(np.min(body.values)) <= 0.0:
        raise OriginOnBoundaryError("radial function needs the origin strictly inside")

    grid = body.grid
    phi = grid.theta + np.arctan(body.derivative.values / body.values)
    phi = np.append(phi, phi[0] + 2.0 * np.pi)
    a = phi[0] + np.mod(out_grid.theta - phi[0], 2.0 * np.pi)
    # a = phi[0] + 2 pi after rounding falls in the last bracket
    j = np.minimum(np.searchsorted(phi, a, side="right") - 1, grid.n_points - 1)
    lo = j * grid.spacing
    hi = lo + grid.spacing

    rho = np.empty_like(a)
    idx = np.arange(len(a))
    # where h'' + h = 0 the Newton quotient is x/0 or 0/0, and bisection steps in
    with np.errstate(divide="ignore", invalid="ignore"):
        s = lo + grid.spacing * (a - phi[j]) / (phi[j + 1] - phi[j])
        for _ in range(_RADIAL_MAX_STEPS):
            h, hp, curv = trig_eval((body.h, body.derivative, body.curvature), s)
            rho[idx] = h / np.cos(a[idx] - s)
            g = s + np.arctan(hp / h) - a[idx]
            lo = np.where(g < 0.0, s, lo)
            hi = np.where(g > 0.0, s, hi)
            step = g * (h * h + hp * hp) / (h * curv)
            more = ~((np.abs(g) <= 1e-14) | (np.abs(step) <= 1e-14))
            if not more.any():
                break
            new = s - step
            new = np.where((new > lo) & (new < hi), new, 0.5 * (lo + hi))
            idx, s, lo, hi = idx[more], new[more], lo[more], hi[more]
    return PeriodicSamples(rho, out_grid)


def _areas(h: np.ndarray, curv: np.ndarray, grid: Grid):
    """Area (1/2) integral h (h'' + h) of the samples, row by row for 2-D arrays."""
    return 0.5 * ((h * curv).sum(axis=-1) * grid.spacing)


def area(body: SupportFunction) -> float:
    return float(_areas(body.values, body.curvature.values, body.grid))


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
    if not 1.0 <= p < np.inf:  # NaN fails too
        raise ParameterRangeError(f"p-sum needs finite p >= 1, got p = {p}")
    if t < 0.0:
        raise ValueError(f"scale t must be nonnegative, got {t}")
    hl = _common_grid(k, l).values
    return SupportFunction(PeriodicSamples(_firey(k.values, hl, t, p), k.grid))


def _firey(hk: np.ndarray, hl: np.ndarray, t, p: float, hlp=None) -> np.ndarray:
    """(h_K^p + t h_L^p)^(1/p), with h_L^p given or computed after the positivity
    check; a column of t gives one row per t."""
    if np.min(hk) <= 0.0 or np.min(hl) <= 0.0:
        raise ValueError("p-sum needs strictly positive support functions")
    if hlp is None:
        hlp = hl**p
    return (hk**p + t * hlp) ** (1.0 / p)


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


def _json_object(data, keys) -> dict:
    """``data`` (a dict or JSON text) as a dict; ValueError lists the keys it lacks."""
    if isinstance(data, str):
        data = json.loads(data)
    missing = [key for key in keys if not isinstance(data, dict) or key not in data]
    if missing:
        raise ValueError(f"JSON object lacks the keys {missing}")
    return data


def from_json(data, tol_convex: float | None = None) -> SupportFunction:
    """Rebuild a body from :func:`to_json` output (dict or JSON text).

    The number of samples sets the grid; ``n_points``, where given, must equal it.
    """
    data = _json_object(data, ("h",))
    if not isinstance(data["h"], list):
        raise ValueError(f"\"h\" must be a list of support values, got {data['h']!r}")
    h = np.array(data["h"], dtype=float)
    if data.get("n_points", h.size) != h.size:
        raise ValueError(f"n_points = {data['n_points']!r} but {h.size} support values")
    return from_samples(h, Grid(h.size), tol_convex=tol_convex)
