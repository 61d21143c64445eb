"""Maximal-area inscribed ellipse and the two-sided total-measure estimate.

A body is its support values h_i at the grid normals u_i = (cos t_i, sin t_i).
The ellipse E = {B u + c : |u| <= 1} with B symmetric positive definite has
support function ||B u|| + <u, c>, so the fit maximizes log det B subject to
E lying inside K at every sampled normal,

    || B u_i || + <u_i, c> <= h_i        for each grid normal u_i.

It works in coordinates shifted by the Steiner point (2/n) sum h_i u_i and
scaled by half the diameter, so the free fit starts at the origin.  E inside
K is exact at every sampled normal, these being the fit's constraints;
between samples it holds only to O(n^-2) of the diameter, h_E - h_K peaking
at a few 1e-5 of it on random bodies at n = 256.  The classical containment K
inside 2E (dilation about the center of E) is checked a posteriori on the
boundary samples, never assumed.

At the optimum only a few normals are active, and a small core set of them
fixes the ellipse (Kumar and Yildirim, J. Optim. Theory Appl. 126, 2005).  So
above WORKING_SET_FULL_N = 2048 normals the fit runs on a working set: every
(n // 256)-th normal at first; after each fit every normal whose slack
b_i - <u_i, c> - ||B u_i|| is negative joins the set, and the fit is redone
from the disk start.  The loop stops when no sampled normal is violated, and
an answer feasible at every normal and optimal on a subset is optimal for the
full set, so the containment contract below is unchanged.  Up to 2048
normals the first set is all of them and the fit is one barrier solve.
Started from n // 256 normals at every n > 256, fits of 100 random bodies
(free and pinned) lost at n = 512 and 1024 and won from 2048 on; the
figures are beside the constants.  On the same bodies at n = 8192 a fit
takes 2-3 rounds, ends with 268-402 normals and costs 5.7 ms against 19.3
for one fit over all of them (one BLAS thread, 2-core x86_64); the battery
ellipses take one round.

The program is solved by a log-barrier Newton method with backtracking (five
unknowns: the three entries of B and the center, which a pinned fit holds
fixed; Boyd and Vandenberghe, Convex Optimization, 11.3 and 11.6).  Both fits
start from the disk of radius 0.4 s0 about the start center (the Steiner
point, or the pinned center), s0 being its least slack to a constraint of
the working set; a start center not strictly inside at every sampled normal
raises ``EllipseSolveError`` before any fit.  Constraint i contributes
-log(r_i^2 - ||B u_i||^2) with r_i = h_i - <u_i, c>, and the objective
-t log det B.  There are two kernels for this one barrier:

- A free fit iterates on x = (b11, b22, b12, c1, c2), where constraint i's
  term is the self-concordant barrier of the second-order cone, whose
  parameter is 2.  In (P, c) with P = B^2 its feasible set would not be
  convex, sqrt(u^T P u) being concave in P.
- A pinned fit iterates on p = (p11, p22, p12) of P = B^2.  With c fixed,
  ||B u_i||^2 = u_i^T P u_i = <p, g_i> with g_i = (u1^2, u2^2, 2 u1 u2), so
  every constraint is linear in p: a log-det program under linear
  constraints (Vandenberghe, Boyd and Wu, SIAM J. Matrix Anal. Appl. 19,
  1998).  Its barrier -(t/2) log det P - sum log(r_i^2 - <p, g_i>) is the
  free fit's at that c, so the central path is the same, but each term has
  parameter 1 and the gap is at most m/t.  An evaluation is a few array
  operations on the fixed 3 x m table of the g_i, and the fit returns
  B = sqrt(P) in closed form, as does every error it raises.

Both fits stop at the first stage t with 2m/t below 1e-11, which is
conservative for the pinned one.  Every Newton step is solved by Cholesky
and goes through one Armijo search with a roundoff pad; when the decrement
lambda is below 1/4 it takes the full step on a finite barrier value alone.
Line-search trials are evaluated by value alone, and the gradient and
Hessian are built in one pass, only at accepted points.  The final stage
is centered until lambda^2 <= 1e-8, the intermediate ones, which only start
the next stage, until lambda^2 <= 1e-3; any stage ends where
lambda^2 reaches its roundoff floor, which it does from t of about 1e13 on:
there a step from lambda^2 < 1/4 no longer cuts lambda^2 by 4x, and the
stage ends after the next step.  A stage that instead runs out of
``max_inner`` steps or fails its backtracking search raises
``EllipseSolveError`` with the last iterate as ``best``; no stage is left
uncentered silently.  ``max_inner`` = 400 bounds each working-set fit.
Free fits over all normals at n = 8192 have damped phases at t of about 1e7
whose longest stage takes up to 234 steps (seed 87 resampled); the pinned
fits of seeds 8, 26, 92 and 99 there take at most 36 on P, and that of seed
26 over all 16384 normals, which ran out of 400 steps on B, takes 53.  The
working-set fits of seeds 0-99 at n = 8192 and 16384 stay well within it.
Between stages a predictor moves the centered point along the central path's
tangent, extrapolated in 1/t, and keeps the move, or else half or a quarter
of it, where the barrier at the next t is finite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .body import SupportFunction, _json_float, _json_object, boundary_xy, diameter
from .errors import EllipseSolveError, ParameterRangeError
from .lapack import lapack
from .measures import lp_dual_density


def __getattr__(name):
    # The fit builds no hull, but the benchmark's tracer hooks
    # s1mk.john.ConvexHull, so the name still resolves: scipy.spatial is
    # imported only when it is asked for.  This goes when ROADMAP item 2
    # moves the hook.
    if name == "ConvexHull":
        from scipy.spatial import ConvexHull
        return ConvexHull
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


# sandwich_ratio's lower floor for the ratio and roundoff allowance above c2
SANDWICH_C1_FLOOR = 1e-8
SANDWICH_TOL = 1e-9


@dataclass(frozen=True)
class Ellipse:
    center: np.ndarray
    r1: float
    r2: float
    angle: float

    def __post_init__(self):
        object.__setattr__(self, "center", np.asarray(self.center, dtype=float))
        if self.center.shape != (2,) or not np.isfinite(self.center).all():
            raise ValueError(f"center must be two finite numbers, got {self.center}")
        if not (math.inf > self.r1 >= self.r2 > 0.0):  # NaN fails too
            raise ValueError(f"need finite r1 >= r2 > 0, got r1 = {self.r1}, r2 = {self.r2}")
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


# Above WORKING_SET_FULL_N normals a fit starts from every
# (n // WORKING_SET_START)-th one.  Started that way at every n > 256, the free
# and pinned fits of 100 random bodies went from 2.66 to 4.38 ms per fit at
# n = 512, 3.74 -> 4.78 at 1024, 5.51 -> 4.81 at 2048 and 9.88 -> 5.13 at 4096
# (best of 3, one BLAS thread, 2-core x86_64).  The gain at 2048 is small
# (another run read 7.3 -> 6.9), so up to 2048 the fit keeps all normals and
# the one-solve answer bit for bit.
WORKING_SET_FULL_N = 2048
WORKING_SET_START = 256

def _constraint_constants(normals, offsets):
    """Per-fit arrays of the free fit's barrier that depend only on the
    constraints."""
    a = np.ascontiguousarray(normals.T)    # rows a1 and a2
    a1, a2 = a
    return {
        "a": a,
        "offsets": offsets,
        # entries u11, u22, u12 of a_i a_i^T, one row each
        "gram": np.stack([a1 * a1, a2 * a2, a1 * a2]),
        # one row per unknown, filled in place by _barrier_grad_hess
        "rows": np.empty((5, len(offsets))),
    }


def _barrier_value(x, t, cons):
    """Free fit's barrier value at x = (b11, b22, b12, c1, c2) and the parts
    its derivatives reuse; (inf, None) outside the domain."""
    b11, b22, b12 = x[:3].tolist()
    det = b11 * b22 - b12 * b12
    if det <= 0.0 or b11 <= 0.0:
        return np.inf, None

    # rows w1, w2 of B a_i and <a_i, c>
    c1, c2 = x[3:5].tolist()
    w = np.array([[b11, b12], [b12, b22], [c1, c2]]) @ cons["a"]
    r = cons["offsets"] - w[2]
    w = w[:2]
    s = np.hypot(w[0], w[1])
    slack = r - s
    if slack.min() <= 0.0:
        return np.inf, None

    # q_i = r_i^2 - s_i^2 from the slack, which keeps its precision at large t
    q = r + s
    q *= slack
    phi = -t * math.log(det) - float(np.log(q).sum())
    return phi, (det, w, r, q)


def _barrier_grad_hess(x, t, cons, parts):
    """Gradient and Hessian of the barrier from ``_barrier_value``'s parts."""
    b11, b22, b12 = x[:3].tolist()
    det, w, r, q = parts
    a, rows = cons["a"], cons["rows"]

    # row j holds -1/2 the derivative of every q_i in unknown j
    np.multiply(w, a, out=rows[:2])
    np.multiply(w[0], a[1], out=rows[2])
    rows[2] += w[1] * a[0]
    np.multiply(r, a, out=rows[3:])
    weight = 2.0 / q
    rows *= weight
    grad = rows.sum(axis=1)
    hess = rows @ rows.T

    # -(Hessian of q_i) / q_i: a constant matrix per constraint, over q_i
    s11, s22, s12 = (cons["gram"] @ weight).tolist()
    hess[3, 3] -= s11
    hess[4, 4] -= s22
    hess[3, 4] -= s12
    hess[4, 3] -= s12

    # -t log det B: gradient -t m / det with m = (b22, b11, -2 b12), Hessian
    # t (m m^T / det^2 - H / det) with H the Hessian of det B
    u, v = t / (det * det), t / det
    grad[0] -= v * b22
    grad[1] -= v * b11
    grad[2] += 2.0 * v * b12
    h01 = u * b11 * b22 - v
    h02 = s12 - 2.0 * u * b22 * b12
    h12 = s12 - 2.0 * u * b11 * b12
    hess[0, 0] += s11 + u * b22 * b22
    hess[1, 1] += s22 + u * b11 * b11
    hess[2, 2] += s11 + s22 + 4.0 * u * b12 * b12 + 2.0 * v
    hess[0, 1] += h01
    hess[1, 0] += h01
    hess[0, 2] += h02
    hess[2, 0] += h02
    hess[1, 2] += h12
    hess[2, 1] += h12
    return grad, hess


def _pinned_constants(normals, offsets, center):
    """Per-fit arrays of the pinned fit's barrier in p = (p11, p22, p12)."""
    a1, a2 = normals.T
    room = offsets - normals @ center
    return {
        # g_i = (a1^2, a2^2, 2 a1 a2), so that a_i^T P a_i = <p, g_i>
        "gram": np.stack([a1 * a1, a2 * a2, 2.0 * a1 * a2]),
        "room2": room * room,
        # g_i / q_i, filled in place by _pinned_grad_hess
        "rows": np.empty((3, len(offsets))),
    }


def _pinned_value(p, t, cons):
    """Pinned fit's barrier value at p = (p11, p22, p12) and the parts its
    derivatives reuse; (inf, None) outside the domain."""
    p11, p22, p12 = p.tolist()
    det = p11 * p22 - p12 * p12
    if det <= 0.0 or p11 <= 0.0:
        return np.inf, None
    # q_i = r_i^2 - <p, g_i> by subtraction, not from the slack as in the
    # free kernel: on criterion 4's bodies and 20 more at n = 8192, pinned
    # answers still agree with that form's to 9e-16 in log det B
    q = cons["room2"] - p @ cons["gram"]
    if q.min() <= 0.0:
        return np.inf, None
    phi = -0.5 * t * math.log(det) - float(np.log(q).sum())
    return phi, (det, q)


def _pinned_grad_hess(p, t, cons, parts):
    """Gradient and Hessian of the barrier from ``_pinned_value``'s parts."""
    p11, p22, p12 = p.tolist()
    det, q = parts
    # -log q_i has gradient g_i / q_i and Hessian g_i g_i^T / q_i^2
    rows = np.divide(cons["gram"], q, out=cons["rows"])
    grad = rows.sum(axis=1)
    hess = rows @ rows.T

    # -(t/2) log det P: gradient -(t/2) m / det with m = (p22, p11, -2 p12),
    # Hessian (t/2) (m m^T / det^2 - H / det) with H the Hessian of det P
    u, v = 0.5 * t / (det * det), 0.5 * t / det
    grad[0] -= v * p22
    grad[1] -= v * p11
    grad[2] += 2.0 * v * p12
    h01 = u * p11 * p22 - v
    h02 = -2.0 * u * p22 * p12
    h12 = -2.0 * u * p11 * p12
    hess[0, 0] += u * p22 * p22
    hess[1, 1] += u * p11 * p11
    hess[2, 2] += 4.0 * u * p12 * p12 + 2.0 * v
    hess[0, 1] += h01
    hess[1, 0] += h01
    hess[0, 2] += h02
    hess[2, 0] += h02
    hess[1, 2] += h12
    hess[2, 1] += h12
    return grad, hess


def _sqrt_shape(p):
    """(b11, b22, b12) of B = P^(1/2), in closed form for 2 x 2 P:
    B = (P + sqrt(det P) I) / sqrt(tr P + 2 sqrt(det P))."""
    p11, p22, p12 = p.tolist()
    root = math.sqrt(p11 * p22 - p12 * p12)
    scale = math.sqrt(p11 + p22 + 2.0 * root)
    return np.array([(p11 + root) / scale, (p22 + root) / scale, p12 / scale])


def _newton_solve(hess, rhs):
    """Solve hess @ step = rhs by Cholesky.  Where roundoff has cost hess its
    positive definiteness, solve by LU, with a ridge if hess is singular."""
    _, step, info = lapack("posv")(hess, rhs)  # Cholesky
    if info == 0:
        return step
    try:
        return np.linalg.solve(hess, rhs)
    except np.linalg.LinAlgError:
        ridge = 1e-12 * (1.0 + abs(np.trace(hess)))
        return np.linalg.solve(hess + ridge * np.eye(len(rhs)), rhs)


def _barrier_solve(normals, offsets, center, pinned=False, max_inner=400):
    """Barrier Newton solution x = (b11, b22, b12[, c1, c2]) of the fit under
    ||B a_i|| + <a_i, c> <= b_i, the center free or, with ``pinned``, held at
    ``center``.  The start is the disk of radius 0.4 s0 about ``center``, s0
    its least constraint slack, which the caller has checked is positive.
    A free fit iterates on x; a pinned one on p = (p11, p22, p12) of P = B^2,
    and returns B (or raises with it as ``best``)."""
    m = len(offsets)
    s0 = float(np.min(offsets - normals @ center))
    if pinned:
        x = np.array([(0.4 * s0) ** 2, (0.4 * s0) ** 2, 0.0])
        cons = _pinned_constants(normals, offsets, center)
        value, grad_hess, shape = _pinned_value, _pinned_grad_hess, _sqrt_shape
    else:
        x = np.array([0.4 * s0, 0.4 * s0, 0.0, center[0], center[1]])
        cons = _constraint_constants(normals, offsets)
        value, grad_hess, shape = _barrier_value, _barrier_grad_hess, np.copy
    pad_per_phi = 32.0 * np.finfo(float).eps
    t = max(1.0, 0.05 * m)
    mu = 8.0
    phi, parts = value(x, t, cons)
    while True:
        # each constraint's cone barrier has parameter 2, so the gap is at
        # most 2m/t (m/t in a pinned fit, whose terms have parameter 1)
        final = 2 * m / t < 1e-11
        # Only the final stage's center is returned, and its gap bound needs
        # it centered (Boyd and Vandenberghe 11.3.3).  An intermediate stage
        # only starts the next one: centering it to 1e-3 instead of 1e-8
        # moved 240 random-body fits by at most 1e-14 relative, and cut the
        # barrier values of TestBarrierWork's 20 fits from 1693 to 1452.
        centered = 1e-8 if final else 1e-3
        grad, hess = grad_hess(x, t, cons, parts)
        prev = np.inf
        for _ in range(max_inner):
            rhs = -grad
            step = _newton_solve(hess, rhs)
            lam2 = float(rhs @ step)
            if lam2 <= centered:
                # centered (or lost definiteness to roundoff)
                break
            # Away from roundoff a step from lambda^2 < 1/4 cuts lambda^2 by
            # 4x or more: in the free and pinned fits of criterion 4's bodies
            # and of 100 bodies at n = 8192, this test fired only from t =
            # 5e13 on.  Less means the O(t) gradient's roundoff now sets
            # lambda^2: take this step, which still removes the decrement the
            # noise hides, and stop.  The floor reaches 0.087 on a smoothed
            # square at n = 16384, which a test from 1/16 on never caught.
            at_floor = prev < 0.25 and lam2 >= 0.25 * prev
            prev = lam2
            # Armijo with an explicit roundoff allowance: phi is O(t) while the
            # required decrease can be orders of magnitude smaller.  For
            # lambda < 1/4 self-concordance keeps the full step in the domain
            # and bounds its decrease below by lambda^2 + lambda + log(1 -
            # lambda), about lambda^2/2 - lambda^3/3 and above the lambda^2/4
            # asked at alpha = 1.  So alpha = 1 is taken there on a finite phi
            # alone: from t of about 1e10 on, phi's roundoff can hide that
            # decrease by more than the pad (74 eps |phi| has been seen).
            pad = pad_per_phi * abs(phi)
            alpha = 1.0
            for _ in range(60):
                cand = x + alpha * step
                phi_c, parts = value(cand, t, cons)
                if (phi_c <= phi - 0.25 * alpha * lam2 + pad
                        or (alpha == 1.0 and lam2 < 0.0625 and phi_c < np.inf)):
                    x, phi = cand, phi_c
                    grad, hess = grad_hess(x, t, cons, parts)
                    break
                alpha *= 0.5
            else:
                raise EllipseSolveError(
                    f"backtracking found no decrease at t = {t:.3g}, "
                    f"lambda^2 = {lam2:.3g}", best=shape(x))
            if at_floor:
                break
        else:
            raise EllipseSolveError(
                f"stage t = {t:.3g} not centered in {max_inner} Newton steps, "
                f"lambda^2 = {prev:.3g} still contracting", best=shape(x))
        if final:
            break
        # Predictor: on the central path H dx/dt = d, the gradient of log det B
        # (of 1/2 log det P in a pinned fit's p) in x.  Extrapolated in 1/t
        # from t to mu t, x moves by (1 - 1/mu) t H^-1 d.  The move is kept
        # where the barrier at mu t is finite; if it leaves the domain, half
        # and then a quarter of it are tried before the stage restarts from
        # x.  Over the free and pinned fits of criterion 4's 200 random
        # bodies, no stage restarts: of 5600 moves, 4152 are kept in full,
        # 1348 halved and 100 quartered, and from t = 1e4 to 1e6 the full
        # move is never kept (701 halved, 99 quartered).  These fits take
        # 29 881 barrier values and 21 373 gradient/Hessian builds; with the
        # pinned fits iterating on B they took 29 728 and 20 999, against
        # 37 047 and 22 794 with the full move only and 50 282 and 27 390
        # with no predictor.
        d = np.zeros_like(x)
        d[:3] = np.array([x[1], x[0], -2.0 * x[2]]) / (
            (2.0 if pinned else 1.0) * (x[0] * x[1] - x[2] ** 2))
        move = (1.0 - 1.0 / mu) * t * _newton_solve(hess, d)
        t *= mu
        if t > 1e19:
            raise EllipseSolveError("barrier parameter overflow", best=shape(x))
        for frac in (1.0, 0.5, 0.25):
            cand = x + frac * move
            phi, parts = value(cand, t, cons)
            if phi < np.inf:
                x = cand
                break
        else:
            phi, parts = value(x, t, cons)
    return shape(x)


def _support_constraints(body: SupportFunction):
    """The fit's constraints ||B u_i|| + <u_i, c> <= b_i, u_i the grid normals,
    in coordinates x = (y - shift) / scale with shift the Steiner point
    (2/n) sum h_i u_i and scale half the diameter: (normals, b, shift, scale)."""
    theta = body.grid.theta
    normals = np.column_stack([np.cos(theta), np.sin(theta)])
    h = body.values
    shift = (2.0 / len(h)) * (h @ normals)
    scale = 0.5 * diameter(body)
    return normals, (h - normals @ shift) / scale, shift, scale


def _working_set_solve(normals, offsets, center, pinned=False):
    """``_barrier_solve`` on a working set of the constraints, grown by every
    normal the answer violates until it violates none (see the module
    docstring); ``EllipseSolveError`` before any fit if ``center`` is not
    strictly inside at every normal."""
    n = len(offsets)
    if not float(np.min(offsets - normals @ center)) > 0.0:
        raise EllipseSolveError("initial center not strictly interior")
    stride = n // WORKING_SET_START if n > WORKING_SET_FULL_N else 1
    active = np.zeros(n, dtype=bool)
    active[::stride] = True
    work = slice(None, None, stride)
    while True:
        x = _barrier_solve(normals[work], offsets[work], center, pinned=pinned)
        c = center if pinned else x[3:5]
        w = np.array([[x[0], x[2]], [x[2], x[1]]]) @ normals.T
        joining = (offsets - normals @ c - np.hypot(w[0], w[1]) < 0.0) & ~active
        if not joining.any():
            return x
        active |= joining
        work = active


def john(body: SupportFunction, center=None) -> Ellipse:
    """Maximal-area ellipse inside the body at every sampled normal.

    E inside K is exact at the grid normals, which are the fit's constraints,
    and holds between them only to O(n^-2) of the diameter.  With ``center``
    given, only the shape is optimized (the centroid-pinned variant), and a
    center not strictly inside raises ``EllipseSolveError``; otherwise the
    center is free.  Both fits start from the disk of radius 0.4 s0 about
    ``center`` or the Steiner point, s0 being its least slack to a constraint
    of the working set (see ``_working_set_solve``).
    """
    normals, offsets, shift, scale = _support_constraints(body)
    pinned = center is not None
    c = (np.asarray(center, dtype=float) - shift) / scale if pinned else np.zeros(2)
    x = _working_set_solve(normals, offsets, c, pinned=pinned)
    if not pinned:
        c = x[3:5]
    vals, vecs = np.linalg.eigh(np.array([[x[0], x[2]], [x[2], x[1]]]))
    v = vecs[:, 1]
    return Ellipse(c * scale + shift, float(vals[1]) * scale, float(vals[0]) * scale,
                   math.atan2(v[1], v[0]) % math.pi)


def containment_report(body: SupportFunction, ellipse: Ellipse) -> dict:
    """Certificates for E inside K and K inside 2E on the boundary samples.

    A fitted E lies inside K exactly at the sampled normals and to O(n^-2)
    of the diameter between them; ``boundary_outside_E`` checks that no
    sampled boundary point falls inside E by more than 1e-8 of the diameter.
    A sampled boundary point at distance r from E's center has gauge g: it
    lies on the dilate gE and is (g - s) r / g outside sE along its ray."""
    pts = boundary_xy(body) - ellipse.center
    mapped = pts @ np.linalg.inv(ellipse.shape_matrix).T
    g = np.maximum(np.hypot(mapped[:, 0], mapped[:, 1]), 1e-300)
    r = np.hypot(pts[:, 0], pts[:, 1])
    dists = (g - 1.0) * r / g
    diam = diameter(body)
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
                   ellipse: Ellipse | None = None) -> SandwichReport:
    """Total measure against the inscribed-ellipse comparison quantity.

    The ratio total / ((r1 r2)^(1-p) (r1^2 + r2^2)^((p+q-2)/2)) must stay in
    (0, c2] with c2 = 2^(2q - 1 - 3p/2) pi for p in [0, 1] and q >= 2.
    """
    if not (0.0 <= p <= 1.0):
        raise ParameterRangeError(f"sandwich ratio needs p in [0, 1], got {p}")
    if not 2.0 <= q < math.inf:  # NaN fails too
        raise ParameterRangeError(f"sandwich ratio needs finite q >= 2, got {q}")
    if ellipse is None:
        ellipse = john(body)
    total = lp_dual_density(body, p, q).total
    r1, r2 = ellipse.r1, ellipse.r2
    denom = (r1 * r2) ** (1.0 - p) * (r1 * r1 + r2 * r2) ** (0.5 * (p + q - 2.0))
    ratio = total / denom
    c2 = sandwich_c2(p, q)
    return SandwichReport(
        ratio=ratio,
        lower_ok=bool(ratio >= SANDWICH_C1_FLOOR),
        upper_ok=bool(ratio <= c2 * (1.0 + 1e-12) + SANDWICH_TOL),
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
    """An ellipse from JSON; ValueError names each key whose value is not a number."""
    data = _json_object(data, ("center", "r1", "r2", "angle"))
    center = data["center"]
    if not (isinstance(center, list) and len(center) == 2):
        raise ValueError(f"center must be two finite numbers, got {center!r}")
    return Ellipse(np.array([_json_float(c, "each center coordinate") for c in center]),
                   *(_json_float(data[key], key) for key in ("r1", "r2", "angle")))
