"""Maximal-area inscribed ellipse and the two-sided total-measure estimate.

The ellipse E = {B u + c : |u| <= 1} with B symmetric positive definite is fit
inside the convex hull of the sampled boundary points by maximizing log det B
subject to one second-order constraint per hull edge,

    || B a_i || + <a_i, c> <= b_i        for the half-plane <a_i, x> <= b_i.

The program is solved by a log-barrier Newton method with backtracking (five
unknowns: the three entries of B and the center; Boyd and Vandenberghe,
Convex Optimization, 11.3).  Each stage t is centered until the Newton
decrement lambda has lambda^2 <= 1e-8 or reaches its roundoff floor, which it
does from t of about 1e12 on: there a full step from lambda^2 < 1/16 no
longer cuts lambda^2 by 4x, and the stage ends after that step.  A stage that
instead runs out of ``max_inner`` steps, fails its backtracking search, or
steps out of the domain raises ``EllipseSolveError`` with the last iterate as
``best``; no stage is left uncentered silently.

Hull containment gives E inside K for free; the classical containment K
inside 2E (dilation about the center of E) is checked a posteriori, never
assumed.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np
from scipy.spatial import ConvexHull

from .body import SupportFunction, boundary_xy, diameter
from .errors import EllipseSolveError, ParameterRangeError
from .measures import lp_dual_density


@dataclass(frozen=True)
class Ellipse:
    center: np.ndarray
    r1: float
    r2: float
    angle: float

    def __post_init__(self):
        object.__setattr__(self, "center", np.asarray(self.center, dtype=float))
        if not (self.r1 >= self.r2 > 0.0):
            raise ValueError(f"need r1 >= r2 > 0, got r1 = {self.r1}, r2 = {self.r2}")
        if not (0.0 <= self.angle < math.pi):
            raise ValueError(f"angle must lie in [0, pi), got {self.angle}")

    @property
    def shape_matrix(self) -> np.ndarray:
        ca, sa = math.cos(self.angle), math.sin(self.angle)
        rot = np.array([[ca, -sa], [sa, ca]])
        return rot @ np.diag([self.r1, self.r2]) @ rot.T


@dataclass(frozen=True)
class SandwichReport:
    ratio: float
    lower_ok: bool
    upper_ok: bool
    c2: float
    total: float
    r1: float
    r2: float


def _hull_halfplanes(points: np.ndarray):
    """Outward unit normals a_i and offsets b_i of the hull edges (a.x <= b)."""
    hull = ConvexHull(points)
    verts = points[hull.vertices]          # counterclockwise
    edges = np.roll(verts, -1, axis=0) - verts
    lengths = np.hypot(edges[:, 0], edges[:, 1])
    keep = lengths > 1e-14 * max(1.0, float(lengths.max()))
    verts, edges, lengths = verts[keep], edges[keep], lengths[keep]
    normals = np.column_stack([edges[:, 1], -edges[:, 0]]) / lengths[:, None]
    offsets = np.einsum("ij,ij->i", normals, verts)
    return normals, offsets


def _phi_grad_hess(x, t, normals, offsets, fixed_center):
    """Barrier value, gradient and Hessian at x = (b11, b22, b12[, c1, c2])."""
    b11, b22, b12 = x[0], x[1], x[2]
    if fixed_center is None:
        c = x[3:5]
        dim = 5
    else:
        c = fixed_center
        dim = 3
    det = b11 * b22 - b12 * b12
    if det <= 0.0 or b11 <= 0.0:
        return np.inf, None, None

    a1, a2 = normals[:, 0], normals[:, 1]
    w1 = b11 * a1 + b12 * a2
    w2 = b12 * a1 + b22 * a2
    s = np.sqrt(w1 * w1 + w2 * w2)
    slack = offsets - normals @ c - s
    if np.min(slack) <= 0.0 or np.min(s) <= 0.0:
        return np.inf, None, None

    phi = -t * math.log(det) - float(np.log(slack).sum())

    ds1 = w1 * a1 / s
    ds2 = w2 * a2 / s
    ds3 = (w1 * a2 + w2 * a1) / s
    if fixed_center is None:
        g_slack = np.column_stack([ds1, ds2, ds3, a1, a2])
    else:
        g_slack = np.column_stack([ds1, ds2, ds3])

    inv_slack = 1.0 / slack
    grad = g_slack.T @ inv_slack
    mdet = np.array([b22, b11, -2.0 * b12])
    grad[:3] += -t * mdet / det

    scaled = g_slack * inv_slack[:, None]
    hess = scaled.T @ scaled

    # curvature of s(B) in the three B coordinates
    u11 = a1 * a1
    u22 = a2 * a2
    u12 = a1 * a2
    dots = [ds1, ds2, ds3]
    grams = {(0, 0): u11, (1, 1): u22, (2, 2): u11 + u22,
             (0, 1): np.zeros_like(a1), (0, 2): u12, (1, 2): u12}
    for i in range(3):
        for j in range(i, 3):
            gram = grams[(i, j)]
            block = ((gram / s - dots[i] * dots[j] / s) * inv_slack).sum()
            hess[i, j] += block
            if i != j:
                hess[j, i] += block

    hdet = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, -2.0]])
    hess[:3, :3] += t * (np.outer(mdet, mdet) / det**2 - hdet / det)
    return phi, grad, hess


def _barrier_solve(normals, offsets, c_init, fixed_center=None,
                   gap_tol=1e-11, max_inner=80):
    m = len(offsets)
    if fixed_center is None:
        slack0 = offsets - normals @ c_init
        x = np.array([0.0, 0.0, 0.0, c_init[0], c_init[1]])
    else:
        slack0 = offsets - normals @ fixed_center
        x = np.zeros(3)
    s0 = float(np.min(slack0))
    if s0 <= 0.0:
        raise EllipseSolveError("initial center not strictly interior")
    x[0] = x[1] = 0.4 * s0

    t = max(1.0, 0.05 * m)
    mu = 8.0
    while True:
        phi, grad, hess = _phi_grad_hess(x, t, normals, offsets, fixed_center)
        prev = np.inf
        for _ in range(max_inner):
            try:
                step = np.linalg.solve(hess, -grad)
            except np.linalg.LinAlgError:
                ridge = 1e-12 * (1.0 + abs(np.trace(hess)))
                step = np.linalg.solve(hess + ridge * np.eye(len(x)), -grad)
            lam2 = float(-grad @ step)
            if lam2 <= 1e-8:
                # centered to lambda <= 1e-4 (or lost definiteness to roundoff)
                break
            # Away from roundoff a full step from lambda^2 < 1/16 cuts lambda^2
            # by 17x or more (5x is the self-concordant bound).  Less than 4x
            # means the O(t) gradient's roundoff now sets lambda^2: take this
            # step, which still removes the decrement the noise hides, and stop.
            at_floor = prev < 0.0625 and lam2 >= 0.25 * prev
            prev = lam2
            if lam2 < 0.0625:
                # lambda < 1/4: the full step stays feasible and contracts
                # quadratically, and phi differences are below roundoff at
                # large t, so no sufficient-decrease test is meaningful here.
                cand = x + step
                phi_c, grad_c, hess_c = _phi_grad_hess(cand, t, normals,
                                                       offsets, fixed_center)
                if not np.isfinite(phi_c):
                    raise EllipseSolveError(
                        f"full Newton step left the domain at t = {t:.3g}, "
                        f"lambda^2 = {lam2:.3g}", best=x.copy())
                x, phi, grad, hess = cand, phi_c, grad_c, hess_c
            else:
                # Armijo with an explicit roundoff allowance: phi is O(t)
                # while the required decrease can be orders of magnitude
                # smaller.
                pad = 32.0 * np.finfo(float).eps * abs(phi)
                alpha = 1.0
                for _ in range(60):
                    cand = x + alpha * step
                    phi_c, grad_c, hess_c = _phi_grad_hess(cand, t, normals,
                                                           offsets, fixed_center)
                    if phi_c <= phi - 0.25 * alpha * lam2 + pad:
                        x, phi, grad, hess = cand, phi_c, grad_c, hess_c
                        break
                    alpha *= 0.5
                else:
                    raise EllipseSolveError(
                        f"backtracking found no decrease at t = {t:.3g}, "
                        f"lambda^2 = {lam2:.3g}", best=x.copy())
            if at_floor:
                break
        else:
            raise EllipseSolveError(
                f"stage t = {t:.3g} not centered in {max_inner} Newton steps, "
                f"lambda^2 = {prev:.3g} still contracting", best=x.copy())
        if m / t < gap_tol:
            break
        t *= mu
        if t > 1e19:
            raise EllipseSolveError("barrier parameter overflow", best=x.copy())
    return x


def _extract_ellipse(x, fixed_center):
    b = np.array([[x[0], x[2]], [x[2], x[1]]])
    center = fixed_center if fixed_center is not None else x[3:5]
    vals, vecs = np.linalg.eigh(b)
    r2, r1 = float(vals[0]), float(vals[1])
    v = vecs[:, 1]
    angle = math.atan2(v[1], v[0]) % math.pi
    return Ellipse(np.asarray(center, dtype=float), r1, r2, angle)


def john(body: SupportFunction, center=None) -> Ellipse:
    """Maximal-area ellipse inscribed in the hull of the sampled boundary.

    With ``center`` given, only the shape is optimized (the centroid-pinned
    variant); otherwise the center is free.
    """
    points = boundary_xy(body)
    shift = points.mean(axis=0)
    scale = 0.5 * max(np.ptp(points[:, 0]), np.ptp(points[:, 1]))
    work = (points - shift) / scale
    normals, offsets = _hull_halfplanes(work)

    if center is None:
        c_init = work.mean(axis=0)
        x = _barrier_solve(normals, offsets, c_init, fixed_center=None)
        ell = _extract_ellipse(x, None)
    else:
        fixed = (np.asarray(center, dtype=float) - shift) / scale
        x = _barrier_solve(normals, offsets, None, fixed_center=fixed)
        ell = _extract_ellipse(x, fixed)
    return Ellipse(ell.center * scale + shift, ell.r1 * scale, ell.r2 * scale,
                   ell.angle)


def gauge_distances(body: SupportFunction, ellipse: Ellipse) -> np.ndarray:
    """Signed radial distance of each sampled boundary point to the ellipse.

    Negative means inside E; the units are lengths along the ray from the
    ellipse center, so the values compare directly with body diameters.
    """
    pts = boundary_xy(body) - ellipse.center
    binv = np.linalg.inv(ellipse.shape_matrix)
    mapped = pts @ binv.T
    g = np.hypot(mapped[:, 0], mapped[:, 1])
    r = np.hypot(pts[:, 0], pts[:, 1])
    g = np.maximum(g, 1e-300)
    return (g - 1.0) * r / g


def containment_report(body: SupportFunction, ellipse: Ellipse) -> dict:
    """Certificates for E inside K (vertexwise) and K inside 2E."""
    dists = gauge_distances(body, ellipse)
    diam = diameter(body)
    pts = boundary_xy(body) - ellipse.center
    binv = np.linalg.inv(ellipse.shape_matrix)
    mapped = pts @ binv.T
    g = np.maximum(np.hypot(mapped[:, 0], mapped[:, 1]), 1e-300)
    r = np.hypot(pts[:, 0], pts[:, 1])
    outer = (g - 2.0) * r / g
    factor = float(np.max(g))
    return {
        "min_signed_distance": float(np.min(dists)),
        "boundary_outside_E": bool(np.min(dists) >= -1e-8 * diam),
        "max_outside_2E": float(np.max(outer)),
        "inside_2E": bool(np.max(outer) <= 1e-6 * diam),
        "containment_factor": factor,
        "diameter": diam,
    }


def sandwich_c2(p: float, q: float) -> float:
    return 2.0 ** (2.0 * q - 1.0 - 1.5 * p) * math.pi


def sandwich_ratio(body: SupportFunction, p: float, q: float,
                   c1_floor: float = 1e-8, tol: float = 1e-9,
                   ellipse: Ellipse | None = None) -> SandwichReport:
    """Total measure against the inscribed-ellipse comparison quantity.

    The ratio total / ((r1 r2)^(1-p) (r1^2 + r2^2)^((p+q-2)/2)) must stay in
    (0, c2] with c2 = 2^(2q - 1 - 3p/2) pi for p in [0, 1] and q >= 2.
    """
    if not (0.0 <= p <= 1.0):
        raise ParameterRangeError(f"sandwich ratio needs p in [0, 1], got {p}")
    if q < 2.0:
        raise ParameterRangeError(f"sandwich ratio needs q >= 2, got {q}")
    if ellipse is None:
        ellipse = john(body)
    total = lp_dual_density(body, p, q).total
    r1, r2 = ellipse.r1, ellipse.r2
    denom = (r1 * r2) ** (1.0 - p) * (r1 * r1 + r2 * r2) ** (0.5 * (p + q - 2.0))
    ratio = total / denom
    c2 = sandwich_c2(p, q)
    return SandwichReport(
        ratio=ratio,
        lower_ok=bool(ratio >= c1_floor),
        upper_ok=bool(ratio <= c2 * (1.0 + 1e-12) + tol),
        c2=c2,
        total=total,
        r1=r1,
        r2=r2,
    )


def ellipse_to_json(ellipse: Ellipse) -> dict:
    return {
        "center": ellipse.center.tolist(),
        "r1": ellipse.r1,
        "r2": ellipse.r2,
        "angle": ellipse.angle,
    }


def ellipse_from_json(data) -> Ellipse:
    if isinstance(data, str):
        data = json.loads(data)
    return Ellipse(np.array(data["center"], dtype=float),
                   float(data["r1"]), float(data["r2"]), float(data["angle"]))
